package noc

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestSweepExplicitRates(t *testing.T) {
	s, err := NewScenario(Quarc(16), MsgLen(16), Alpha(0.05), LocalizedDests(PortL, 3),
		Warmup(1000), Measure(10000), Seed(3))
	if err != nil {
		t.Fatal(err)
	}
	rates := []float64{0.001, 0.002, 0.004}
	res, err := Sweep(s, SweepOptions{Rates: rates, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != len(rates) {
		t.Fatalf("got %d points, want %d", len(res.Points), len(rates))
	}
	for i, pt := range res.Points {
		if pt.Rate != rates[i] {
			t.Errorf("point %d rate = %v, want %v (input order must be preserved)", i, pt.Rate, rates[i])
		}
		if len(pt.Results) != 2 {
			t.Fatalf("point %d has %d results, want model+simulator", i, len(pt.Results))
		}
		model, ok := pt.Get("model")
		if !ok || model.Saturated || math.IsNaN(model.Unicast) {
			t.Errorf("point %d model result bad: %+v", i, model)
		}
		sim, ok := pt.Get("simulator")
		if !ok || sim.Completed == 0 {
			t.Errorf("point %d simulator result bad: %+v", i, sim)
		}
	}
	// Latency grows with load.
	first, _ := res.Points[0].Get("model")
	last, _ := res.Points[len(res.Points)-1].Get("model")
	if !(last.Unicast > first.Unicast) {
		t.Errorf("model latency did not grow with rate: %v -> %v", first.Unicast, last.Unicast)
	}
}

// TestSweepDeterministicAcrossWorkers pins the bounded pool down: the
// worker count must not change any number.
func TestSweepDeterministicAcrossWorkers(t *testing.T) {
	s, err := NewScenario(Quarc(16), MsgLen(16), Alpha(0.05), LocalizedDests(PortL, 3),
		Warmup(1000), Measure(10000), Seed(3))
	if err != nil {
		t.Fatal(err)
	}
	o := SweepOptions{Rates: []float64{0.001, 0.003}, MsgLens: []int{16, 32}}
	o.Workers = 1
	seq, err := Sweep(s, o)
	if err != nil {
		t.Fatal(err)
	}
	o.Workers = 4
	par, err := Sweep(s, o)
	if err != nil {
		t.Fatal(err)
	}
	// Compare via JSON so NaN fields (e.g. a CI with too few batches)
	// compare equal; every finite number must still be bitwise identical.
	seqJSON, err := json.Marshal(seq)
	if err != nil {
		t.Fatal(err)
	}
	parJSON, err := json.Marshal(par)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(seqJSON, parJSON) {
		t.Error("sweep results differ between 1 and 4 workers")
	}
	if len(seq.Points) != 4 {
		t.Fatalf("rate x size cross product: got %d points, want 4", len(seq.Points))
	}
}

// TestSweepAutoGrid pins the one auto-grid formula: the fractions of the
// model's saturation rate a grid of each size samples, bit for bit.
func TestSweepAutoGrid(t *testing.T) {
	s, err := NewScenario(Quarc(16), MsgLen(16), Warmup(500), Measure(5000))
	if err != nil {
		t.Fatal(err)
	}
	for points, fracs := range map[int][]float64{
		1: {0.5},
		4: {0.1, 0.3833333333333333, 0.6666666666666666, 0.95},
		8: {0.1, 0.22142857142857142, 0.34285714285714286, 0.4642857142857143,
			0.5857142857142857, 0.7071428571428571, 0.8285714285714285, 0.95},
	} {
		res, err := Sweep(s, SweepOptions{Points: points, Evaluators: []Evaluator{Model{}}})
		if err != nil {
			t.Fatal(err)
		}
		if res.SatRate <= 0 {
			t.Fatalf("auto grid did not record a saturation rate: %v", res.SatRate)
		}
		if len(res.Points) != points {
			t.Fatalf("got %d points, want %d", len(res.Points), points)
		}
		for i, pt := range res.Points {
			if pt.Rate != res.SatRate*fracs[i] {
				t.Errorf("%d points: rate %d = %v, want %v of %v", points, i, pt.Rate, fracs[i], res.SatRate)
			}
		}
	}
}

func TestSweepSinglePointGrid(t *testing.T) {
	s, err := NewScenario(Quarc(16), MsgLen(16), Warmup(500), Measure(5000))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Sweep(s, SweepOptions{Points: 1, Evaluators: []Evaluator{Model{}}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 1 {
		t.Fatalf("got %d points, want 1", len(res.Points))
	}
	if r := res.Points[0].Rate; math.IsNaN(r) || r <= 0 {
		t.Fatalf("single-point auto grid rate = %v", r)
	}
}

// faultyEvaluator fails or panics at a chosen rate and counts evaluations.
type faultyEvaluator struct {
	mu      sync.Mutex
	evals   int
	badRate float64
	doPanic bool
}

func (f *faultyEvaluator) Name() string { return "faulty" }

func (f *faultyEvaluator) Evaluate(s *Scenario) (Result, error) {
	f.mu.Lock()
	f.evals++
	f.mu.Unlock()
	if s.Rate() == f.badRate {
		if f.doPanic {
			panic("faulty evaluator exploded")
		}
		return Result{}, errors.New("faulty evaluator failed")
	}
	return Result{Evaluator: "faulty", Unicast: 1}, nil
}

// TestSweepEvaluatorError pins the pool's failure path: an evaluator error
// must surface (with the failing point identified), not hang the sweep,
// and the remaining queued jobs must be skipped after the first failure.
func TestSweepEvaluatorError(t *testing.T) {
	s, err := NewScenario(Quarc(16), MsgLen(16))
	if err != nil {
		t.Fatal(err)
	}
	rates := []float64{0.001, 0.002, 0.003, 0.004, 0.005, 0.006, 0.007, 0.008}
	f := &faultyEvaluator{badRate: rates[0]}
	// One worker makes the early-cancel deterministic: the first job fails,
	// so exactly one evaluation may happen before the rest are skipped.
	_, err = Sweep(s, SweepOptions{Rates: rates, Workers: 1, Evaluators: []Evaluator{f}})
	if err == nil {
		t.Fatal("sweep with a failing evaluator returned no error")
	}
	if !strings.Contains(err.Error(), "rate=0.001") {
		t.Errorf("error does not identify the failing point: %v", err)
	}
	if f.evals != 1 {
		t.Errorf("%d points evaluated after an immediate failure, want 1 (early-cancel)", f.evals)
	}
}

// TestSweepEvaluatorPanic pins the deadlock fix: before the buffered job
// feed, a panicking evaluator killed its worker goroutine while the feeder
// blocked forever on the unbuffered channel (and the panic itself killed
// the process). Now the panic is recovered into the point's error.
func TestSweepEvaluatorPanic(t *testing.T) {
	s, err := NewScenario(Quarc(16), MsgLen(16))
	if err != nil {
		t.Fatal(err)
	}
	rates := []float64{0.001, 0.002, 0.003, 0.004, 0.005}
	f := &faultyEvaluator{badRate: rates[2], doPanic: true}
	done := make(chan struct{})
	var serr error
	go func() {
		defer close(done)
		_, serr = Sweep(s, SweepOptions{Rates: rates, Workers: 2, Evaluators: []Evaluator{f}})
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("sweep with a panicking evaluator did not return (deadlocked feed)")
	}
	if serr == nil {
		t.Fatal("sweep with a panicking evaluator returned no error")
	}
	if !strings.Contains(serr.Error(), "panicked") {
		t.Errorf("panic not surfaced in the error: %v", serr)
	}
}

// TestSweepPoolsNetworkPerWorker checks that the per-worker network reuse
// actually engages and stays bitwise-faithful: a single worker running
// every point through one reused network must match per-point fresh
// evaluation exactly.
func TestSweepPoolsNetworkPerWorker(t *testing.T) {
	s, err := NewScenario(Quarc(16), MsgLen(16), Alpha(0.05), LocalizedDests(PortL, 3),
		Warmup(1000), Measure(10000), Seed(3))
	if err != nil {
		t.Fatal(err)
	}
	rates := []float64{0.001, 0.002, 0.004}
	res, err := Sweep(s, SweepOptions{Rates: rates, Workers: 1, Evaluators: []Evaluator{Simulator{}}})
	if err != nil {
		t.Fatal(err)
	}
	for i, rate := range rates {
		sp, err := s.With(Rate(rate))
		if err != nil {
			t.Fatal(err)
		}
		want, err := Simulator{}.Evaluate(sp)
		if err != nil {
			t.Fatal(err)
		}
		got, ok := res.Points[i].Get("simulator")
		if !ok {
			t.Fatalf("point %d missing simulator result", i)
		}
		if got.Unicast != want.Unicast || got.Events != want.Events ||
			got.Completed != want.Completed || got.MaxUtil != want.MaxUtil {
			t.Errorf("point %d: pooled sweep result diverged from fresh evaluation:\n got %+v\nwant %+v",
				i, got, want)
		}
	}
}

func TestSaturationRate(t *testing.T) {
	s, err := NewScenario(Quarc(16), MsgLen(32), Alpha(0.05), LocalizedDests(PortL, 4))
	if err != nil {
		t.Fatal(err)
	}
	sat, err := SaturationRate(s)
	if err != nil {
		t.Fatal(err)
	}
	if sat <= 0 || sat >= 1.0/32 {
		t.Fatalf("saturation rate %v out of range", sat)
	}
	// The model must be stable just below and saturated just above.
	below, err := s.With(Rate(0.9 * sat))
	if err != nil {
		t.Fatal(err)
	}
	r, err := Model{}.Evaluate(below)
	if err != nil {
		t.Fatal(err)
	}
	if r.Saturated {
		t.Error("model saturated below the bisected boundary")
	}
	above, err := s.With(Rate(1.1 * sat))
	if err != nil {
		t.Fatal(err)
	}
	r, err = Model{}.Evaluate(above)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Saturated {
		t.Error("model stable above the bisected boundary")
	}
}

// The bisection sees the scenario's spatial pattern and model options, so
// an auto grid never runs past the scenario's own stability boundary — it
// used to be scaled to the uniform workload's, leaving half of a hotspot
// sweep at +Inf.
func TestSaturationRateFollowsScenario(t *testing.T) {
	uniform, err := NewScenario(Quarc(16), MsgLen(32), Alpha(0.05), LocalizedDests(PortL, 3))
	if err != nil {
		t.Fatal(err)
	}
	hot, err := uniform.With(Hotspot(0.5, 3))
	if err != nil {
		t.Fatal(err)
	}
	sw, err := Sweep(hot, SweepOptions{Points: 6, Evaluators: []Evaluator{Model{}}})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range sw.Points {
		if r := p.Results[0]; r.Saturated || math.IsInf(r.Unicast, 0) {
			t.Errorf("auto-grid rate %v (sat %v) saturates the hotspot model", p.Rate, sw.SatRate)
		}
	}
	uniSat, err := SaturationRate(uniform)
	if err != nil {
		t.Fatal(err)
	}
	if !(sw.SatRate < uniSat) {
		t.Errorf("hotspot saturation rate %v not below the uniform one %v", sw.SatRate, uniSat)
	}
	// A model option moves the boundary too: tail release saturates later.
	tail, err := uniform.With(ModelService(TailRelease))
	if err != nil {
		t.Fatal(err)
	}
	if tailSat, err := SaturationRate(tail); err != nil || !(tailSat > uniSat) {
		t.Errorf("tail-release saturation rate %v (%v) not above Eq. 6's %v", tailSat, err, uniSat)
	}
	// The arrival process stays out of it: the model declines onoff
	// scenarios, yet their simulator-only sweeps need a grid.
	bursty, err := uniform.With(OnOff(8, 0.25))
	if err != nil {
		t.Fatal(err)
	}
	if burstySat, err := SaturationRate(bursty); err != nil || burstySat != uniSat {
		t.Errorf("onoff saturation rate %v (%v), want the poisson one %v", burstySat, err, uniSat)
	}
}

func TestRunSeriesTable(t *testing.T) {
	s, err := NewScenario(Quarc(16), MsgLen(16), Alpha(0.05), Broadcast(),
		Warmup(500), Measure(5000))
	if err != nil {
		t.Fatal(err)
	}
	series, err := RunSeries("bcast", s, []float64{0.001})
	if err != nil {
		t.Fatal(err)
	}
	out := SeriesTable([]Series{series})
	if out == "" || len(series.Points) != 1 {
		t.Fatalf("series table empty or wrong points: %q", out)
	}
}

// TestSweepBuildsModelOnce pins the build-once property: one model per
// (sweep, message length) serves the saturation bisection and every
// point, so a Model-only auto-grid sweep costs less than two model
// builds however many points it has. A build per point costs nine.
func TestSweepBuildsModelOnce(t *testing.T) {
	s, err := NewScenario(Quarc(64), Alpha(0.05), LocalizedDests(PortL, 8))
	if err != nil {
		t.Fatal(err)
	}
	build := testing.AllocsPerRun(3, func() {
		if _, err := buildModel(s); err != nil {
			t.Fatal(err)
		}
	})
	sweep := testing.AllocsPerRun(3, func() {
		res, err := Sweep(s, SweepOptions{Points: 8, Workers: 1, Evaluators: []Evaluator{Model{}}})
		if err != nil || len(res.Points) != 8 {
			t.Fatalf("sweep: %d points, err %v", len(res.Points), err)
		}
	})
	if sweep >= 2*build {
		t.Errorf("an 8-point model sweep allocates %v times, a model build %v: the sweep builds more than once", sweep, build)
	}
}
