package service

import (
	"context"
	"encoding/json"
	"errors"
	"sync"
	"testing"

	"quarc/noc"
)

// testSpec is a small, fast scenario shared by the service tests.
func testSpec() noc.Spec {
	return noc.Spec{
		Topology: "quarc", N: 16, Pattern: "localized", Dests: 4,
		MsgLen: 16, Rate: 0.002, Alpha: 0.05,
		Seed: 5, Warmup: 500, Measure: 4000,
	}
}

func resultJSON(t *testing.T, r noc.Result) string {
	t.Helper()
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestCacheHitBitwise pins the memoization contract: the cached response
// is bitwise-identical to the cold one, which is itself bitwise-identical
// to evaluating the spec directly with the noc engines.
func TestCacheHitBitwise(t *testing.T) {
	e := New(Config{Workers: 2})
	defer e.Close()
	ctx := context.Background()
	sp := testSpec()

	cold, src, err := e.Evaluate(ctx, sp)
	if err != nil {
		t.Fatal(err)
	}
	if src != SourceComputed {
		t.Errorf("first evaluation source = %s, want computed", src)
	}
	hot, src, err := e.Evaluate(ctx, sp)
	if err != nil {
		t.Fatal(err)
	}
	if src != SourceCache {
		t.Errorf("second evaluation source = %s, want cache", src)
	}
	if got, want := resultJSON(t, hot), resultJSON(t, cold); got != want {
		t.Errorf("cached result differs from cold:\n hot:  %s\n cold: %s", got, want)
	}

	s, err := sp.Scenario()
	if err != nil {
		t.Fatal(err)
	}
	direct, err := noc.Simulator{}.Evaluate(s)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := resultJSON(t, cold), resultJSON(t, direct); got != want {
		t.Errorf("service result differs from direct evaluation:\n svc:    %s\n direct: %s", got, want)
	}

	st := e.Stats()
	if st.Evaluations != 1 || st.Hits != 1 || st.Misses != 1 {
		t.Errorf("stats = %+v, want 1 evaluation, 1 hit, 1 miss", st)
	}
}

// TestSingleflight pins deduplication: N concurrent identical requests
// execute the evaluation exactly once, whatever mix of coalescing and
// cache hits the scheduler produces, and every caller sees the same
// bytes. Run under -race in CI.
func TestSingleflight(t *testing.T) {
	e := New(Config{Workers: 4})
	defer e.Close()
	sp := testSpec()
	sp.Measure = 20000 // long enough that requests overlap

	const n = 8
	results := make([]noc.Result, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], _, errs[i] = e.Evaluate(context.Background(), sp)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	want := resultJSON(t, results[0])
	for i := 1; i < n; i++ {
		if got := resultJSON(t, results[i]); got != want {
			t.Errorf("request %d result differs:\n %s\n %s", i, got, want)
		}
	}
	st := e.Stats()
	if st.Evaluations != 1 {
		t.Errorf("evaluations = %d, want exactly 1 for %d identical requests", st.Evaluations, n)
	}
	if st.Hits+st.Misses+st.Coalesced != n {
		t.Errorf("hits %d + misses %d + coalesced %d != %d requests", st.Hits, st.Misses, st.Coalesced, n)
	}
}

// TestSweepDedup pins point-wise content addressing inside a sweep:
// duplicate rates coalesce, results come back in rate order, and a
// second overlapping sweep is served from cache.
func TestSweepDedup(t *testing.T) {
	e := New(Config{Workers: 2})
	defer e.Close()
	sp := testSpec()

	rates := []float64{0.001, 0.002, 0.001}
	results, err := e.Sweep(context.Background(), sp, rates)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("got %d results for 3 rates", len(results))
	}
	if got, want := resultJSON(t, results[0]), resultJSON(t, results[2]); got != want {
		t.Errorf("duplicate rate produced different results:\n %s\n %s", got, want)
	}
	if st := e.Stats(); st.Evaluations != 2 {
		t.Errorf("evaluations = %d, want 2 for rates {0.001, 0.002, 0.001}", st.Evaluations)
	}

	again, err := e.Sweep(context.Background(), sp, rates[:2])
	if err != nil {
		t.Fatal(err)
	}
	if st := e.Stats(); st.Evaluations != 2 {
		t.Errorf("overlapping sweep re-evaluated: %d evaluations", st.Evaluations)
	}
	if got, want := resultJSON(t, again[1]), resultJSON(t, results[1]); got != want {
		t.Errorf("cached sweep point differs")
	}

	// Sweeps share the structural base scenario across points.
	if st := e.Stats(); st.CachedScenarios != 1 {
		t.Errorf("cached scenarios = %d, want 1 shared base", st.CachedScenarios)
	}

	for _, bad := range [][]float64{nil, {-1}, make([]float64, MaxSweepPoints+1)} {
		if _, err := e.Sweep(context.Background(), sp, bad); err == nil {
			t.Errorf("sweep accepted rates %v", bad)
		}
	}
}

// TestModelEvaluator routes "evaluator":"model" specs to the analytical
// model and keeps the two engines' cache entries distinct.
func TestModelEvaluator(t *testing.T) {
	e := New(Config{Workers: 1})
	defer e.Close()
	sp := testSpec()
	sp.Evaluator = "model"

	res, _, err := e.Evaluate(context.Background(), sp)
	if err != nil {
		t.Fatal(err)
	}
	if res.Evaluator != "model" {
		t.Fatalf("evaluator = %q, want model", res.Evaluator)
	}
	s, err := sp.Scenario()
	if err != nil {
		t.Fatal(err)
	}
	direct, err := noc.Model{}.Evaluate(s)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := resultJSON(t, res), resultJSON(t, direct); got != want {
		t.Errorf("service model result differs from direct:\n %s\n %s", got, want)
	}

	simSpec := testSpec()
	sim, _, err := e.Evaluate(context.Background(), simSpec)
	if err != nil {
		t.Fatal(err)
	}
	if sim.Evaluator != "simulator" {
		t.Errorf("default evaluator = %q, want simulator", sim.Evaluator)
	}
	if e.Stats().Evaluations != 2 {
		t.Errorf("model and simulator specs shared a cache entry")
	}
}

// TestRejections pins the service-level refusals.
func TestRejections(t *testing.T) {
	e := New(Config{Workers: 1})
	defer e.Close()
	ctx := context.Background()

	if _, _, err := e.Evaluate(ctx, noc.Spec{N: 1 << 30}); !errors.Is(err, noc.ErrInvalidSpec) {
		t.Errorf("huge spec error = %v, want ErrInvalidSpec", err)
	}
	if _, _, err := e.Evaluate(ctx, noc.Spec{Topology: "ring", N: 16}); !errors.Is(err, noc.ErrInvalidOption) {
		t.Errorf("unknown topology error = %v, want ErrInvalidOption", err)
	}

	canceled, cancel := context.WithCancel(ctx)
	cancel()
	if _, _, err := e.Evaluate(canceled, testSpec()); !errors.Is(err, context.Canceled) {
		t.Errorf("canceled context error = %v", err)
	}
}

// TestClose pins shutdown: a closed evaluator refuses new work, and
// Close is idempotent.
func TestClose(t *testing.T) {
	e := New(Config{Workers: 1})
	sp := testSpec()
	if _, _, err := e.Evaluate(context.Background(), sp); err != nil {
		t.Fatal(err)
	}
	e.Close()
	e.Close()
	// The cache outlives the pool, but new evaluations are refused.
	if _, src, err := e.Evaluate(context.Background(), sp); err != nil || src != SourceCache {
		t.Errorf("cached read after close: src=%v err=%v", src, err)
	}
	other := sp
	other.Seed = 99
	if _, _, err := e.Evaluate(context.Background(), other); !errors.Is(err, ErrClosed) {
		t.Errorf("cold evaluate after close error = %v, want ErrClosed", err)
	}
}

// TestReplicationsServed pins that replicated specs work through the
// pool (serially inside one worker) and match the direct aggregate.
func TestReplicationsServed(t *testing.T) {
	e := New(Config{Workers: 2})
	defer e.Close()
	sp := testSpec()
	sp.Replications = 3

	res, _, err := e.Evaluate(context.Background(), sp)
	if err != nil {
		t.Fatal(err)
	}
	if res.Replications != 3 {
		t.Fatalf("replications = %d, want 3", res.Replications)
	}
	s, err := sp.Scenario()
	if err != nil {
		t.Fatal(err)
	}
	direct, err := noc.Simulator{}.Evaluate(s)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := resultJSON(t, res), resultJSON(t, direct); got != want {
		t.Errorf("served replicated result differs from direct:\n %s\n %s", got, want)
	}
}

// TestCacheEviction pins the LRU bound.
func TestCacheEviction(t *testing.T) {
	e := New(Config{Workers: 1, CacheEntries: 2})
	defer e.Close()
	sp := testSpec()
	sp.Evaluator = "model" // fast: no simulation needed
	for _, rate := range []float64{0.001, 0.002, 0.003} {
		pt := sp
		pt.Rate = rate
		if _, _, err := e.Evaluate(context.Background(), pt); err != nil {
			t.Fatal(err)
		}
	}
	st := e.Stats()
	if st.CachedResults != 2 || st.Evictions != 1 {
		t.Errorf("stats = %+v, want 2 cached results and 1 eviction", st)
	}
	// The evicted (oldest) point re-evaluates; the newest is still hot.
	pt := sp
	pt.Rate = 0.003
	if _, src, _ := e.Evaluate(context.Background(), pt); src != SourceCache {
		t.Errorf("newest entry source = %s, want cache", src)
	}
	pt.Rate = 0.001
	if _, src, _ := e.Evaluate(context.Background(), pt); src != SourceComputed {
		t.Errorf("evicted entry source = %s, want computed", src)
	}
}

// BenchmarkEvaluateCacheHit measures the served latency of a content
// address that is already cached.
func BenchmarkEvaluateCacheHit(b *testing.B) {
	e := New(Config{Workers: 1})
	defer e.Close()
	sp := testSpec()
	if _, _, err := e.Evaluate(context.Background(), sp); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, src, err := e.Evaluate(context.Background(), sp); err != nil || src != SourceCache {
			b.Fatalf("src=%v err=%v", src, err)
		}
	}
}

// BenchmarkEvaluateCold measures the full pipeline — compile against the
// shared base, schedule, simulate — by giving every iteration a fresh
// content address (the seed). one-shape varies only the seed of one spec,
// so the worker's pooled network always runs the shape it ran last;
// eight-shapes cycles the eight serve-hot shapes, as the benchmark's
// serve-cold workload does, so every request rebinds it to another one.
func BenchmarkEvaluateCold(b *testing.B) {
	shapes := make([]noc.Spec, len(hotShapes))
	for k, doc := range hotShapes {
		sp, err := noc.ParseSpec([]byte(doc))
		if err != nil {
			b.Fatal(err)
		}
		shapes[k] = sp
	}
	for _, bc := range []struct {
		name   string
		shapes []noc.Spec
	}{
		{"one-shape", []noc.Spec{testSpec()}},
		{"eight-shapes", shapes},
	} {
		b.Run(bc.name, func(b *testing.B) {
			e := New(Config{Workers: 1})
			defer e.Close()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sp := bc.shapes[i%len(bc.shapes)]
				sp.Seed = uint64(i + 1)
				if _, src, err := e.Evaluate(context.Background(), sp); err != nil || src != SourceComputed {
					b.Fatalf("src=%v err=%v", src, err)
				}
			}
		})
	}
}
