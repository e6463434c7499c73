package noc

import (
	"bytes"
	"errors"
	"math"
	"testing"
)

// The pre-PR goldens: results of the seed configurations captured on the
// commit before the workload-diversity subsystem landed. The default
// workload (poisson arrivals, uniform destinations) and its explicit
// "poisson"/"uniform" spelling must reproduce these
// numbers bitwise — the registries are a pure refactor of the default
// path.
const (
	goldenQuarc16Unicast   = 37.372764155286347
	goldenQuarc16Multicast = 40.923185295421526
	goldenQuarc16CI        = 0.67865456259690327
	goldenQuarc16MaxUtil   = 0.092463159886420135
	goldenQuarc16Generated = 593
	goldenQuarc16Completed = 592
	goldenQuarc16Events    = 6731

	goldenMesh4x4Unicast   = 20.718250617563978
	goldenMesh4x4Multicast = 20.334840974537567
	goldenMesh4x4CI        = 0.062361547848914893
	goldenMesh4x4MaxUtil   = 0.082375199101008281
	goldenMesh4x4Generated = 1306
	goldenMesh4x4Completed = 1304
	goldenMesh4x4Events    = 15181
)

func quarc16Golden(t *testing.T, arrival, spatial string) Result {
	t.Helper()
	s, err := Spec{
		Topology: "quarc", N: 16, MsgLen: 32, Rate: 0.002, Alpha: 0.05,
		Pattern: "localized", Port: PortL, Dests: 4,
		Seed: 2024, Warmup: 2000, Measure: 20000,
		Arrival: arrival, Spatial: spatial,
	}.Scenario()
	if err != nil {
		t.Fatal(err)
	}
	r, err := Simulator{}.Evaluate(s)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func mesh4x4Golden(t *testing.T, arrival, spatial string) Result {
	t.Helper()
	s, err := Spec{
		Topology: "mesh", W: 4, H: 4, MsgLen: 16, Rate: 0.004, Alpha: 0.05,
		Pattern: "highlow", High: []int{1, 3}, Low: []int{2},
		Seed: 31, Warmup: 2000, Measure: 20000,
		Arrival: arrival, Spatial: spatial,
	}.Scenario()
	if err != nil {
		t.Fatal(err)
	}
	r, err := Simulator{}.Evaluate(s)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func checkGolden(t *testing.T, label string, r Result,
	uni, mc, ci, util float64, gen, comp int64, events uint64) {
	t.Helper()
	eq(t, label+" unicast", r.Unicast, uni)
	eq(t, label+" multicast", r.Multicast, mc)
	eq(t, label+" unicast CI", r.UnicastCI, ci)
	eq(t, label+" max util", r.MaxUtil, util)
	if r.Generated != gen || r.Completed != comp {
		t.Errorf("%s messages: (%d/%d), want (%d/%d)", label, r.Completed, r.Generated, comp, gen)
	}
	if r.Events != events {
		t.Errorf("%s events: %d, want %d", label, r.Events, events)
	}
}

// TestPoissonPinnedToPrePRGoldens is the registry-refactor differential:
// the default workload, and the same workload spelled through the new
// arrival/spatial registries, reproduce the pre-PR results bitwise on
// both seed topologies.
func TestPoissonPinnedToPrePRGoldens(t *testing.T) {
	variants := [][2]string{
		{"", ""}, // the default path
		{"poisson", ""},
		{"", "uniform"},
		{"poisson", "uniform"},
	}
	for i, v := range variants {
		r := quarc16Golden(t, v[0], v[1])
		checkGolden(t, "quarc16", r,
			goldenQuarc16Unicast, goldenQuarc16Multicast, goldenQuarc16CI, goldenQuarc16MaxUtil,
			goldenQuarc16Generated, goldenQuarc16Completed, goldenQuarc16Events)
		m := mesh4x4Golden(t, v[0], v[1])
		checkGolden(t, "mesh4x4", m,
			goldenMesh4x4Unicast, goldenMesh4x4Multicast, goldenMesh4x4CI, goldenMesh4x4MaxUtil,
			goldenMesh4x4Generated, goldenMesh4x4Completed, goldenMesh4x4Events)
		if t.Failed() {
			t.Fatalf("variant %d diverged from the pre-PR goldens", i)
		}
	}
}

// resultsEqual compares every numeric field of two simulator results
// bitwise (NaN == NaN counts as equal, as in eq).
func resultsEqual(a, b Result) bool {
	feq := func(x, y float64) bool {
		return x == y || (math.IsNaN(x) && math.IsNaN(y))
	}
	return feq(a.Unicast, b.Unicast) && feq(a.Multicast, b.Multicast) &&
		feq(a.UnicastCI, b.UnicastCI) && feq(a.MulticastCI, b.MulticastCI) &&
		feq(a.MaxUtil, b.MaxUtil) && feq(a.Time, b.Time) &&
		a.UnicastN == b.UnicastN && a.MulticastN == b.MulticastN &&
		a.Generated == b.Generated && a.Completed == b.Completed &&
		a.Events == b.Events && a.Saturated == b.Saturated
}

// TestRecordReplayRoundTrip pins the trace subsystem end to end: a run
// recorded under a bursty arrival process and a permutation pattern
// replays to the exact same Result, directly and after a round trip
// through the binary trace format.
func TestRecordReplayRoundTrip(t *testing.T) {
	base, err := Spec{
		Topology: "quarc", N: 16, MsgLen: 16, Rate: 0.003, Alpha: 0.1,
		Pattern: "localized", Port: PortL, Dests: 3,
		Arrival: "onoff", BurstLen: 6, DutyCycle: 0.3,
		Seed: 99, Warmup: 1000, Measure: 10000,
	}.Scenario()
	if err != nil {
		t.Fatal(err)
	}
	trace := &TraceWorkload{}
	rec, err := base.With(Record(trace))
	if err != nil {
		t.Fatal(err)
	}
	orig, err := Simulator{}.Evaluate(rec)
	if err != nil {
		t.Fatal(err)
	}
	if trace.Empty() || trace.Messages() == 0 {
		t.Fatal("recording captured no messages")
	}
	if trace.Nodes() != 16 {
		t.Fatalf("trace nodes = %d, want 16", trace.Nodes())
	}

	replayed, err := base.With(Replay(trace))
	if err != nil {
		t.Fatal(err)
	}
	again, err := Simulator{}.Evaluate(replayed)
	if err != nil {
		t.Fatal(err)
	}
	if !resultsEqual(orig, again) {
		t.Fatalf("direct replay diverged:\noriginal %+v\nreplayed %+v", orig, again)
	}

	var buf bytes.Buffer
	if err := trace.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := ReadTraceWorkload(&buf)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := base.With(Replay(loaded))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Simulator{}.Evaluate(rs)
	if err != nil {
		t.Fatal(err)
	}
	if !resultsEqual(orig, res) {
		t.Fatalf("round-trip replay diverged:\noriginal %+v\nreplayed %+v", orig, res)
	}
}

// TestRecordReplayValidation covers the trace options' fail-fast paths.
func TestRecordReplayValidation(t *testing.T) {
	trace := &TraceWorkload{}
	if _, err := NewScenario(Quarc(16), Rate(0.002), Replay(trace)); err == nil {
		t.Error("replay of an empty trace accepted")
	}
	if _, err := NewScenario(Quarc(16), Rate(0.002), Record(trace), Replay(trace)); err == nil {
		t.Error("record+replay on one scenario accepted")
	}
	if reps, err := (Spec{N: 16, Rate: 0.002, Replications: 4}).Scenario(); err != nil {
		t.Fatal(err)
	} else if _, err := reps.With(Record(trace)); err == nil {
		t.Error("recording with replications accepted")
	}
	if _, err := NewScenario(Quarc(16), Rate(0.002), Record(nil)); err == nil {
		t.Error("Record(nil) accepted")
	}

	// Record a real trace, then try to replay it on a different size.
	s, err := NewScenario(Quarc(16), Rate(0.003), Record(trace), Warmup(100), Measure(1000))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := (Simulator{}).Evaluate(s); err != nil {
		t.Fatal(err)
	}
	// Recording is simulator-only but must not block the model: the
	// generative workload it predicts is unchanged by a Record option.
	if _, err := (Model{}).Evaluate(s); err != nil {
		t.Errorf("model rejected a recording scenario: %v", err)
	}
	if _, err := NewScenario(Quarc(32), Rate(0.003), Replay(trace)); err == nil {
		t.Error("16-node trace accepted on a 32-node network")
	}
	if mesh, err := (Spec{Topology: "mesh", W: 4, H: 4, Rate: 0.003}).Scenario(); err != nil {
		t.Fatal(err)
	} else if _, err := mesh.With(Replay(trace)); err == nil {
		t.Error("quarc-16 trace accepted on a 16-node mesh (channel fingerprint)")
	}
	if _, err := NewScenario(Quarc(16), Rate(0.003), MsgLen(8), Replay(trace)); err == nil {
		t.Error("trace recorded at the default message length accepted under MsgLen(8)")
	}
	if _, err := Sweep(s, SweepOptions{Rates: []float64{0.001, 0.002},
		Evaluators: []Evaluator{Simulator{}}}); err == nil {
		t.Error("trace recording inside a sweep accepted")
	}
	// The model has nothing to record or replay.
	sm, err := NewScenario(Quarc(16), Rate(0.003), Replay(trace))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := (Model{}).Evaluate(sm); err == nil {
		t.Error("model accepted a trace-driven scenario")
	} else if !errors.Is(err, ErrModelInapplicable) {
		t.Errorf("replay rejection does not match ErrModelInapplicable: %v", err)
	}
	if _, err := Sweep(sm, SweepOptions{Rates: []float64{0.001, 0.002},
		Evaluators: []Evaluator{Simulator{}}}); err == nil {
		t.Error("trace replay inside a sweep accepted")
	}
}

// TestPermutationBuilders spot-checks every built-in permutation family
// against hand-computed mappings.
func TestPermutationBuilders(t *testing.T) {
	permOf := func(t *testing.T, s *Scenario) []int {
		t.Helper()
		spec := s.trafficSpec()
		if spec.Perm == nil {
			t.Fatal("scenario has no permutation")
		}
		out := make([]int, len(spec.Perm))
		for i, d := range spec.Perm {
			out[i] = int(d)
		}
		return out
	}
	mesh, quarc := Spec{Topology: "mesh", W: 4, H: 4}, Spec{Topology: "quarc", N: 16}
	cases := []struct {
		name string
		net  Spec
		src  int
		want int
	}{
		// mesh-4x4 transpose: node 6 = (2,1) -> (1,2) = node 9.
		{"transpose", mesh, 6, 9},
		// quarc-16 bit transpose: 0b0001 -> swap halves -> 0b0100.
		{"transpose", quarc, 1, 4},
		// bit-reversal on 16 nodes: 0b0001 -> 0b1000.
		{"bit-reversal", quarc, 1, 8},
		// bit-complement: 0b0011 -> 0b1100.
		{"bit-complement", quarc, 3, 12},
		// shuffle: rotate left, 0b0101 -> 0b1010.
		{"shuffle", quarc, 5, 10},
		// ring tornado on 16: src + 7.
		{"tornado", quarc, 2, 9},
		// mesh tornado on 4x4: (0,0) -> (1,1) = node 5.
		{"tornado", mesh, 0, 5},
	}
	for _, c := range cases {
		sp := c.net
		sp.Spatial, sp.Rate, sp.MsgLen = c.name, 0.001, 8
		s, err := sp.Scenario()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got := permOf(t, s)[c.src]; got != c.want {
			t.Errorf("%s: perm[%d] = %d, want %d", c.name, c.src, got, c.want)
		}
		if got := s.Spec().Spatial; got != c.name {
			t.Errorf("Spec().Spatial = %q, want %q", got, c.name)
		}
	}
}

// TestSpatialBuilderErrors covers the geometry preconditions.
func TestSpatialBuilderErrors(t *testing.T) {
	cases := []struct {
		name string
		sp   Spec
	}{
		{"transpose non-square", Spec{Topology: "mesh", W: 4, H: 2, Spatial: "transpose"}},
		{"bit-reversal non-pow2", Spec{Topology: "quarc", N: 12, Spatial: "bit-reversal"}},
		{"shuffle non-pow2", Spec{Topology: "spidergon", N: 12, Spatial: "shuffle"}},
		{"unknown spatial", Spec{N: 16, Spatial: "spiral"}},
		{"hotspot no nodes", Spec{N: 16, Spatial: "hotspot", SpatialFrac: 0.5}},
		{"hotspot bad frac", Spec{N: 16, Spatial: "hotspot", SpatialFrac: 1.5, SpatialNodes: []int{1}}},
		{"hotspot out of range", Spec{N: 16, Spatial: "hotspot", SpatialFrac: 0.5, SpatialNodes: []int{40}}},
		{"hotspot weight mismatch", Spec{N: 16, Spatial: "hotspot", SpatialFrac: 0.5, SpatialNodes: []int{1, 2}, SpatialWeights: []float64{1}}},
		{"hotspot bad weight", Spec{N: 16, Spatial: "hotspot", SpatialFrac: 0.5, SpatialNodes: []int{1, 2}, SpatialWeights: []float64{1, -3}}},
	}
	for _, c := range cases {
		c.sp.Rate = 0.001
		if _, err := c.sp.Scenario(); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

// TestModelRejectsNonPoisson: the M/G/1 model must refuse arrival
// processes that break its Poisson assumption rather than silently
// answering.
func TestModelRejectsNonPoisson(t *testing.T) {
	s, err := Spec{N: 16, Rate: 0.002, Arrival: "onoff", BurstLen: 8, DutyCycle: 0.5}.Scenario()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := (Model{}).Evaluate(s); err == nil {
		t.Fatal("model accepted onoff arrivals")
	} else if !errors.Is(err, ErrModelInapplicable) {
		t.Fatalf("non-poisson rejection does not match ErrModelInapplicable: %v", err)
	}
	sim, err := Simulator{}.Evaluate(s)
	if err != nil {
		t.Fatalf("simulator rejected onoff arrivals: %v", err)
	}
	if sim.Generated == 0 {
		t.Fatal("onoff run generated nothing")
	}
}

// TestModelSimAgreeOnPermutation cross-checks the two evaluators on a
// permutation workload at low load, where the model is essentially
// exact: the deterministic flows must line up with what the simulator
// measures.
func TestModelSimAgreeOnPermutation(t *testing.T) {
	s, err := Spec{
		Topology: "mesh", W: 4, H: 4, MsgLen: 8, Rate: 0.0005,
		Spatial: "transpose",
		Seed:    5, Warmup: 2000, Measure: 40000,
	}.Scenario()
	if err != nil {
		t.Fatal(err)
	}
	pred, err := Model{}.Evaluate(s)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := Simulator{}.Evaluate(s)
	if err != nil {
		t.Fatal(err)
	}
	if sim.UnicastN == 0 {
		t.Fatal("no unicasts measured")
	}
	if re := math.Abs(pred.Unicast-sim.Unicast) / sim.Unicast; re > 0.05 {
		t.Errorf("transpose at low load: model %v vs sim %v (rel err %.2f%%)",
			pred.Unicast, sim.Unicast, 100*re)
	}
}

// TestSweepBitwiseStableWithNewWorkloads extends the sweep's
// worker-count invariance to the new subsystem: pooled workers reset
// per-node arrival state and permutation destinations, so any worker
// count produces bitwise-identical sweeps.
func TestSweepBitwiseStableWithNewWorkloads(t *testing.T) {
	s, err := Spec{
		Topology: "quarc", N: 16, MsgLen: 8, Arrival: "onoff", BurstLen: 4, DutyCycle: 0.5, Spatial: "tornado",
		Seed: 3, Warmup: 500, Measure: 5000,
	}.Scenario()
	if err != nil {
		t.Fatal(err)
	}
	rates := []float64{0.001, 0.002, 0.003}
	run := func(workers int) []SweepPoint {
		t.Helper()
		res, err := Sweep(s, SweepOptions{Rates: rates, Workers: workers,
			Evaluators: []Evaluator{Simulator{}}})
		if err != nil {
			t.Fatal(err)
		}
		return res.Points
	}
	serial, parallel := run(1), run(4)
	for i := range serial {
		a, b := serial[i].Results[0], parallel[i].Results[0]
		if !resultsEqual(a, b) {
			t.Fatalf("rate %v: workers=1 and workers=4 diverged:\n%+v\n%+v",
				serial[i].Rate, a, b)
		}
	}
}

// TestRegistriesListNewFamilies pins the discoverability surface.
func TestRegistriesListNewFamilies(t *testing.T) {
	arr := Arrivals()
	for _, want := range []string{"bernoulli", "onoff", "periodic", "poisson"} {
		if !contains(arr, want) {
			t.Errorf("Arrivals() = %v, missing %q", arr, want)
		}
	}
	sp := Spatials()
	for _, want := range []string{"uniform", "transpose", "bit-reversal",
		"bit-complement", "shuffle", "tornado", "hotspot"} {
		if !contains(sp, want) {
			t.Errorf("Spatials() = %v, missing %q", sp, want)
		}
	}
	if _, err := (Spec{N: 16, Rate: 0.001, Arrival: "fractal"}).Scenario(); err == nil {
		t.Error("unknown arrival process accepted")
	}
}

func contains(xs []string, want string) bool {
	for _, x := range xs {
		if x == want {
			return true
		}
	}
	return false
}
