package noc

import (
	"math"
	"math/rand/v2"
	"testing"

	"quarc/internal/core"
	"quarc/internal/routing"
	"quarc/internal/topology"
	"quarc/internal/traffic"
	"quarc/internal/wormhole"
)

// The golden tests pin the refactor down: a scenario evaluated through the
// public API must reproduce, bitwise, what the pre-refactor pipeline
// produced by hand-wiring the internal packages.

func eq(t *testing.T, name string, got, want float64) {
	t.Helper()
	if math.IsNaN(got) && math.IsNaN(want) {
		return
	}
	if got != want {
		t.Errorf("%s: noc %v != direct %v (must be bitwise identical)", name, got, want)
	}
}

func TestGoldenQuarc16(t *testing.T) {
	const (
		n      = 16
		msgLen = 32
		rate   = 0.002
		alpha  = 0.05
		dests  = 4
		seed   = 2024
	)
	s, err := NewScenario(
		Quarc(n), MsgLen(msgLen), Rate(rate), Alpha(alpha),
		LocalizedDests(PortL, dests),
		Seed(seed), Warmup(2000), Measure(20000),
	)
	if err != nil {
		t.Fatal(err)
	}

	// Direct pipeline against internal packages.
	q, err := topology.NewQuarc(n)
	if err != nil {
		t.Fatal(err)
	}
	rt := routing.NewQuarcRouter(q)
	set, err := rt.LocalizedSet(topology.PortL, dests)
	if err != nil {
		t.Fatal(err)
	}
	spec := traffic.Spec{Rate: rate, MulticastFrac: alpha, Set: set}
	pred, err := core.Predict(core.Input{Router: rt, Spec: spec, MsgLen: msgLen})
	if err != nil {
		t.Fatal(err)
	}
	w, err := traffic.NewWorkload(rt, spec, seed)
	if err != nil {
		t.Fatal(err)
	}
	nw, err := wormhole.New(rt.Graph(), w, wormhole.Config{MsgLen: msgLen, Warmup: 2000, Measure: 20000})
	if err != nil {
		t.Fatal(err)
	}
	direct := nw.Run()

	model, err := Model{}.Evaluate(s)
	if err != nil {
		t.Fatal(err)
	}
	eq(t, "model unicast", model.Unicast, pred.UnicastLatency)
	eq(t, "model multicast", model.Multicast, pred.MulticastLatency)
	eq(t, "model max rho", model.MaxRho, pred.MaxRho)
	if model.Iterations != pred.Iterations || model.Converged != pred.Converged {
		t.Errorf("model fixed point: noc (%d, %v) != direct (%d, %v)",
			model.Iterations, model.Converged, pred.Iterations, pred.Converged)
	}

	sim, err := Simulator{}.Evaluate(s)
	if err != nil {
		t.Fatal(err)
	}
	eq(t, "sim unicast", sim.Unicast, direct.Unicast.Mean())
	eq(t, "sim multicast", sim.Multicast, direct.Multicast.Mean())
	eq(t, "sim unicast CI", sim.UnicastCI, direct.UnicastBM.HalfWidth(1.96))
	eq(t, "sim max util", sim.MaxUtil, direct.MaxUtil)
	if sim.Completed != direct.Completed || sim.Generated != direct.Generated {
		t.Errorf("sim messages: noc (%d/%d) != direct (%d/%d)",
			sim.Completed, sim.Generated, direct.Completed, direct.Generated)
	}
	if sim.Events != direct.Events {
		t.Errorf("sim events: noc %d != direct %d", sim.Events, direct.Events)
	}
}

func TestGoldenQuarc16RandomDests(t *testing.T) {
	const (
		n, msgLen = 16, 16
		rate      = 0.003
		alpha     = 0.10
		dests     = 5
		setSeed   = 61
		simSeed   = 7
	)
	s, err := Spec{
		Topology: "quarc", N: n, MsgLen: msgLen, Rate: rate, Alpha: alpha,
		Pattern: "random", Dests: dests, SetSeed: setSeed,
		Seed: simSeed, Warmup: 2000, Measure: 20000,
	}.Scenario()
	if err != nil {
		t.Fatal(err)
	}

	q, err := topology.NewQuarc(n)
	if err != nil {
		t.Fatal(err)
	}
	rt := routing.NewQuarcRouter(q)
	set, err := rt.RandomSet(rand.New(rand.NewPCG(setSeed, 0)), dests)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.SetString(); got != set.String() {
		t.Fatalf("random set mismatch: noc {%s} != direct {%s}", got, set.String())
	}
	spec := traffic.Spec{Rate: rate, MulticastFrac: alpha, Set: set}
	pred, err := core.Predict(core.Input{Router: rt, Spec: spec, MsgLen: msgLen})
	if err != nil {
		t.Fatal(err)
	}
	w, err := traffic.NewWorkload(rt, spec, simSeed)
	if err != nil {
		t.Fatal(err)
	}
	nw, err := wormhole.New(rt.Graph(), w, wormhole.Config{MsgLen: msgLen, Warmup: 2000, Measure: 20000})
	if err != nil {
		t.Fatal(err)
	}
	direct := nw.Run()

	model, err := Model{}.Evaluate(s)
	if err != nil {
		t.Fatal(err)
	}
	eq(t, "model unicast", model.Unicast, pred.UnicastLatency)
	eq(t, "model multicast", model.Multicast, pred.MulticastLatency)

	sim, err := Simulator{}.Evaluate(s)
	if err != nil {
		t.Fatal(err)
	}
	eq(t, "sim unicast", sim.Unicast, direct.Unicast.Mean())
	eq(t, "sim multicast", sim.Multicast, direct.Multicast.Mean())
}

func TestGoldenMesh4x4(t *testing.T) {
	const (
		w, h   = 4, 4
		msgLen = 16
		rate   = 0.004
		alpha  = 0.05
		seed   = 31
	)
	high, low := []int{1, 3}, []int{2}
	s, err := Spec{
		Topology: "mesh", W: w, H: h, MsgLen: msgLen, Rate: rate, Alpha: alpha,
		Pattern: "highlow", High: high, Low: low,
		Seed: seed, Warmup: 2000, Measure: 20000,
	}.Scenario()
	if err != nil {
		t.Fatal(err)
	}

	m, err := topology.NewMesh(w, h)
	if err != nil {
		t.Fatal(err)
	}
	rt := routing.NewMeshRouter(m)
	set, err := rt.HighLowSet(high, low)
	if err != nil {
		t.Fatal(err)
	}
	spec := traffic.Spec{Rate: rate, MulticastFrac: alpha, Set: set}
	pred, err := core.Predict(core.Input{Router: rt, Spec: spec, MsgLen: msgLen})
	if err != nil {
		t.Fatal(err)
	}
	wl, err := traffic.NewWorkload(rt, spec, seed)
	if err != nil {
		t.Fatal(err)
	}
	nw, err := wormhole.New(rt.Graph(), wl, wormhole.Config{MsgLen: msgLen, Warmup: 2000, Measure: 20000})
	if err != nil {
		t.Fatal(err)
	}
	direct := nw.Run()

	model, err := Model{}.Evaluate(s)
	if err != nil {
		t.Fatal(err)
	}
	eq(t, "model unicast", model.Unicast, pred.UnicastLatency)
	eq(t, "model multicast", model.Multicast, pred.MulticastLatency)

	sim, err := Simulator{}.Evaluate(s)
	if err != nil {
		t.Fatal(err)
	}
	eq(t, "sim unicast", sim.Unicast, direct.Unicast.Mean())
	eq(t, "sim multicast", sim.Multicast, direct.Multicast.Mean())
	if sim.Events != direct.Events {
		t.Errorf("sim events: noc %d != direct %d", sim.Events, direct.Events)
	}
}

// TestGoldenModelVariants pins the model-knob plumbing: the Spec's
// Service/Wait names must select the same code paths as the core input
// fields.
func TestGoldenModelVariants(t *testing.T) {
	s, err := Spec{N: 16, MsgLen: 32, Rate: 0.006}.Scenario()
	if err != nil {
		t.Fatal(err)
	}
	q, err := topology.NewQuarc(16)
	if err != nil {
		t.Fatal(err)
	}
	rt := routing.NewQuarcRouter(q)
	spec := traffic.Spec{Rate: 0.006}

	sTail, err := Spec{N: 16, MsgLen: 32, Rate: 0.006, Service: "tail"}.ScenarioWith(s)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Model{}.Evaluate(sTail)
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.Predict(core.Input{Router: rt, Spec: spec, MsgLen: 32,
		ServiceFormula: core.TailRelease})
	if err != nil {
		t.Fatal(err)
	}
	eq(t, "tail-release unicast", got.Unicast, want.UnicastLatency)

	sEq3, err := Spec{N: 16, MsgLen: 32, Rate: 0.006, Wait: "eq3"}.ScenarioWith(s)
	if err != nil {
		t.Fatal(err)
	}
	got3, err := Model{}.Evaluate(sEq3)
	if err != nil {
		t.Fatal(err)
	}
	want3, err := core.Predict(core.Input{Router: rt, Spec: spec, MsgLen: 32,
		WaitFormula: core.PaperEq3Literal})
	if err != nil {
		t.Fatal(err)
	}
	eq(t, "eq3-literal unicast", got3.Unicast, want3.UnicastLatency)
}
