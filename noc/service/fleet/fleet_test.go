package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"quarc/internal/faultinject"
	"quarc/noc"
	"quarc/noc/service"
)

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

// directJSON evaluates the spec straight through the noc engines — the
// ground truth every served result must match bitwise.
func directJSON(t *testing.T, sp noc.Spec) string {
	t.Helper()
	s, err := sp.Scenario()
	if err != nil {
		t.Fatal(err)
	}
	res, err := noc.Simulator{}.Evaluate(s)
	if err != nil {
		t.Fatal(err)
	}
	return resultJSON(t, res)
}

// newPeer stands up one peer daemon: a real evaluator behind the real
// HTTP handler.
func newPeer(t *testing.T) (*httptest.Server, *service.Evaluator) {
	t.Helper()
	e := service.New(service.Config{Workers: 2})
	t.Cleanup(e.Close)
	srv := httptest.NewServer(service.NewHandler(e))
	t.Cleanup(srv.Close)
	return srv, e
}

func newLocal(t *testing.T) *service.Evaluator {
	t.Helper()
	e := service.New(service.Config{Workers: 2})
	t.Cleanup(e.Close)
	return e
}

// TestSweepAcrossPeers pins the basic fan-out: a sweep splits across
// two peers, every point is peer-served, and every result is
// bitwise-identical to direct evaluation.
func TestSweepAcrossPeers(t *testing.T) {
	p1, e1 := newPeer(t)
	p2, e2 := newPeer(t)
	d, err := New(Config{Peers: []string{p1.URL, p2.URL}, Local: newLocal(t), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}

	sp := testSpec()
	rates := []float64{0.001, 0.002, 0.003, 0.004, 0.005, 0.006}
	results, err := d.Sweep(context.Background(), sp, rates)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range rates {
		pt := sp
		pt.Rate = r
		if got, want := resultJSON(t, results[i]), directJSON(t, pt); got != want {
			t.Errorf("rate %g: fleet result differs from direct:\n %s\n %s", r, got, want)
		}
	}
	if d.dispatched.Load() != uint64(len(rates)) || d.fallbacks.Load() != 0 {
		t.Errorf("counters = %s, want %d dispatched and no fallbacks", counters(d), len(rates))
	}
	if e1.Stats().Evaluations == 0 || e2.Stats().Evaluations == 0 {
		t.Errorf("sweep did not split: peer evaluations %d and %d",
			e1.Stats().Evaluations, e2.Stats().Evaluations)
	}
	for _, ph := range d.PeerHealth() {
		if ph.State != stateClosed || ph.Successes == 0 {
			t.Errorf("peer %s health = %+v", ph.URL, ph)
		}
	}

	// Sweep validation matches the service contract.
	for _, bad := range [][]float64{nil, {-1}, make([]float64, service.MaxSweepPoints+1)} {
		if _, err := d.Sweep(context.Background(), sp, bad); !errors.Is(err, noc.ErrInvalidSpec) {
			t.Errorf("sweep accepted rates of len %d: %v", len(bad), err)
		}
	}
}

// TestRetryAfterTransientFailure pins the retry loop: two injected
// transport errors, then success — bitwise-correct, with the retries
// counted.
func TestRetryAfterTransientFailure(t *testing.T) {
	p1, _ := newPeer(t)
	inj := faultinject.New(7, faultinject.Rule{
		Point: "peer.rpc", Kind: faultinject.KindError, First: 2,
	})
	client := &http.Client{Transport: &faultinject.Transport{Point: "peer.rpc", Inj: inj}}
	d, err := New(Config{
		Peers: []string{p1.URL}, Local: newLocal(t), Client: client,
		MaxAttempts: 3, BaseBackoff: time.Millisecond, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}

	sp := testSpec()
	res, src, err := d.Evaluate(context.Background(), sp)
	if err != nil {
		t.Fatal(err)
	}
	if src != service.SourceFleet {
		t.Errorf("source = %s, want fleet", src)
	}
	if got, want := resultJSON(t, res), directJSON(t, sp); got != want {
		t.Errorf("retried result differs from direct:\n %s\n %s", got, want)
	}
	if d.retries.Load() != 2 || d.dispatched.Load() != 1 || d.fallbacks.Load() != 0 {
		t.Errorf("counters = %s, want 2 retries, 1 dispatched", counters(d))
	}
	if inj.Fired("peer.rpc") != 2 {
		t.Errorf("injector fired %d faults, want 2", inj.Fired("peer.rpc"))
	}
}

// TestHedgedDispatch pins straggler hedging: the primary call hangs on
// injected latency, the hedge to the second peer answers, and the
// result is still bitwise-correct.
func TestHedgedDispatch(t *testing.T) {
	p1, _ := newPeer(t)
	p2, _ := newPeer(t)
	// Only the first transport call is slow; the hedge is clean.
	inj := faultinject.New(3, faultinject.Rule{
		Point: "peer.rpc", Kind: faultinject.KindLatency, First: 1, Latency: 5 * time.Second,
	})
	client := &http.Client{Transport: &faultinject.Transport{Point: "peer.rpc", Inj: inj}}
	d, err := New(Config{
		Peers: []string{p1.URL, p2.URL}, Local: newLocal(t), Client: client,
		HedgeAfter: 20 * time.Millisecond, BaseBackoff: time.Millisecond, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}

	sp := testSpec()
	start := time.Now()
	res, src, err := d.Evaluate(context.Background(), sp)
	if err != nil {
		t.Fatal(err)
	}
	if src != service.SourceFleet {
		t.Errorf("source = %s, want fleet", src)
	}
	if elapsed := time.Since(start); elapsed > 4*time.Second {
		t.Errorf("hedge did not rescue the straggler: took %v", elapsed)
	}
	if got, want := resultJSON(t, res), directJSON(t, sp); got != want {
		t.Errorf("hedged result differs from direct:\n %s\n %s", got, want)
	}
	if d.hedges.Load() != 1 || d.hedgeWins.Load() != 1 {
		t.Errorf("counters = %s, want 1 hedge and 1 hedge win", counters(d))
	}
}

// TestLocalFallback pins graceful degradation: with every peer dead,
// the job degrades to local evaluation and still answers correctly.
func TestLocalFallback(t *testing.T) {
	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close() // connection refused from here on
	d, err := New(Config{
		Peers: []string{dead.URL}, Local: newLocal(t),
		MaxAttempts: 2, BaseBackoff: time.Millisecond, FailThreshold: 2, Seed: 4,
	})
	if err != nil {
		t.Fatal(err)
	}

	sp := testSpec()
	res, src, err := d.Evaluate(context.Background(), sp)
	if err != nil {
		t.Fatal(err)
	}
	if src != service.SourceComputed {
		t.Errorf("source = %s, want computed (local fallback)", src)
	}
	if got, want := resultJSON(t, res), directJSON(t, sp); got != want {
		t.Errorf("fallback result differs from direct:\n %s\n %s", got, want)
	}
	if d.fallbacks.Load() != 1 || d.dispatched.Load() != 0 {
		t.Errorf("counters = %s, want 1 fallback, 0 dispatched", counters(d))
	}
	if d.breakerOpens.Load() != 1 {
		t.Errorf("breaker opens = %d, want 1 after %d consecutive failures", d.breakerOpens.Load(), 2)
	}
	if ph := d.PeerHealth(); ph[0].State != stateOpen {
		t.Errorf("dead peer state = %s, want open", ph[0].State)
	}
}

// TestNonRetryable4xx pins that a peer-side 400 is never retried: the
// spec itself is wrong, and the local evaluator supplies the
// authoritative typed error.
func TestNonRetryable4xx(t *testing.T) {
	p1, _ := newPeer(t)
	d, err := New(Config{Peers: []string{p1.URL}, Local: newLocal(t), BaseBackoff: time.Millisecond, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = d.Evaluate(context.Background(), noc.Spec{Record: "x.trace"})
	if !errors.Is(err, service.ErrTraceSpec) {
		t.Errorf("trace spec error = %v, want ErrTraceSpec", err)
	}
	if d.retries.Load() != 0 {
		t.Errorf("a 400 was retried: %s", counters(d))
	}
	if d.fallbacks.Load() != 1 {
		t.Errorf("counters = %s, want the 400 to degrade to local for the typed error", counters(d))
	}
	// The breaker does not punish the peer for refusing a bad spec... but
	// the failure is still counted in the lifetime total.
	if ph := d.PeerHealth(); ph[0].State != stateClosed {
		t.Errorf("peer state after 400 = %s, want closed", ph[0].State)
	}
}

// TestBreakerLifecycle walks the full circuit: failures open it, a
// degraded healthz keeps it open past the cooldown, and only a 200
// probe re-admits the peer.
func TestBreakerLifecycle(t *testing.T) {
	e := service.New(service.Config{Workers: 1})
	t.Cleanup(e.Close)
	inner := service.NewHandler(e)
	var failing atomic.Bool
	var degraded atomic.Bool
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/healthz" && degraded.Load() {
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		if r.URL.Path != "/v1/healthz" && failing.Load() {
			http.Error(w, `{"error":"injected outage"}`, http.StatusInternalServerError)
			return
		}
		inner.ServeHTTP(w, r)
	}))
	t.Cleanup(srv.Close)

	d, err := New(Config{
		Peers: []string{srv.URL}, Local: newLocal(t),
		MaxAttempts: 2, FailThreshold: 2, BaseBackoff: time.Millisecond,
		Cooldown: 10 * time.Millisecond, Seed: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	sp := testSpec()
	ctx := context.Background()

	// Outage: both attempts 500, breaker opens, job degrades to local.
	failing.Store(true)
	degraded.Store(true)
	if _, src, err := d.Evaluate(ctx, sp); err != nil || src != service.SourceComputed {
		t.Fatalf("outage evaluate: src=%s err=%v", src, err)
	}
	if ph := d.PeerHealth(); ph[0].State != stateOpen {
		t.Fatalf("peer state after outage = %s, want open", ph[0].State)
	}

	// Past the cooldown but healthz still 503: the probe must NOT
	// re-admit, and the job keeps degrading. A fresh seed keeps the
	// local LRU out of the picture.
	time.Sleep(20 * time.Millisecond)
	failing.Store(false)
	sp2 := sp
	sp2.Seed = 99
	if _, src, err := d.Evaluate(ctx, sp2); err != nil || src != service.SourceComputed {
		t.Fatalf("degraded-peer evaluate: src=%s err=%v", src, err)
	}
	if ph := d.PeerHealth(); ph[0].State != stateOpen {
		t.Errorf("503 healthz re-admitted the peer")
	}

	// Healthy again: after another cooldown the probe answers 200 and
	// the peer serves.
	degraded.Store(false)
	time.Sleep(20 * time.Millisecond)
	sp3 := sp
	sp3.Seed = 123
	res, src, err := d.Evaluate(ctx, sp3)
	if err != nil {
		t.Fatal(err)
	}
	if src != service.SourceFleet {
		t.Errorf("recovered evaluate source = %s, want fleet", src)
	}
	if got, want := resultJSON(t, res), directJSON(t, sp3); got != want {
		t.Errorf("recovered result differs from direct")
	}
	if ph := d.PeerHealth(); ph[0].State != stateClosed {
		t.Errorf("peer state after recovery = %s, want closed", ph[0].State)
	}
}

// TestNoPeersDegradesToLocal pins the empty-fleet edge: a dispatcher
// with no peers is just the local evaluator.
func TestNoPeersDegradesToLocal(t *testing.T) {
	d, err := New(Config{Local: newLocal(t)})
	if err != nil {
		t.Fatal(err)
	}
	sp := testSpec()
	res, src, err := d.Evaluate(context.Background(), sp)
	if err != nil || src != service.SourceComputed {
		t.Fatalf("src=%s err=%v", src, err)
	}
	if got, want := resultJSON(t, res), directJSON(t, sp); got != want {
		t.Errorf("result differs from direct")
	}
	if d.fallbacks.Load() != 0 {
		t.Errorf("an empty fleet counted a fallback: %s", counters(d))
	}
	if hs := d.Healthz(); hs.Status != service.StatusOK {
		t.Errorf("healthz = %+v", hs)
	}
}

// TestConfigErrors pins constructor validation.
func TestConfigErrors(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("New accepted a nil Local")
	}
	if _, err := New(Config{Local: newLocal(t), Peers: []string{" "}}); err == nil {
		t.Error("New accepted an empty peer URL")
	}
}

// TestBackoffShape pins the backoff envelope: capped exponential, with
// jitter inside [0.5, 1.0) of the step, and deterministic for a seed.
func TestBackoffShape(t *testing.T) {
	mk := func() *Dispatcher {
		d, err := New(Config{
			Local: newLocal(t), BaseBackoff: 10 * time.Millisecond,
			MaxBackoff: 40 * time.Millisecond, Seed: 42,
		})
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	a, b := mk(), mk()
	steps := []time.Duration{10, 20, 40, 40, 40} // ms, capped
	for i, stepMs := range steps {
		step := stepMs * time.Millisecond
		ba, bb := a.backoff(i+1), b.backoff(i+1)
		if ba != bb {
			t.Errorf("attempt %d: same seed, different backoff: %v vs %v", i+1, ba, bb)
		}
		if ba < step/2 || ba >= step {
			t.Errorf("attempt %d: backoff %v outside [%v, %v)", i+1, ba, step/2, step)
		}
	}
}

// counters renders the dispatcher's lifetime totals for failure messages.
func counters(d *Dispatcher) string {
	return fmt.Sprintf("dispatched=%d retries=%d hedges=%d hedge_wins=%d fallbacks=%d breaker_opens=%d",
		d.dispatched.Load(), d.retries.Load(), d.hedges.Load(), d.hedgeWins.Load(),
		d.fallbacks.Load(), d.breakerOpens.Load())
}
