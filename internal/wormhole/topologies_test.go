package wormhole

import (
	"math/rand/v2"
	"testing"

	"quarc/internal/routing"
	"quarc/internal/topology"
	"quarc/internal/traffic"
)

// runOn drives a moderate-load drained simulation on a router and checks
// liveness: no saturation, all measured messages complete, and the
// network is empty afterwards (no leaked channel holds — which is also a
// deadlock check, since a deadlocked worm never releases).
func runOn(t *testing.T, rt routing.Router, set routing.MulticastSet, alpha, rate float64, msgLen int) Result {
	t.Helper()
	w, err := traffic.NewWorkload(rt, traffic.Spec{Rate: rate, MulticastFrac: alpha, Set: set}, 404)
	if err != nil {
		t.Fatal(err)
	}
	nw, err := New(rt.Graph(), w, Config{MsgLen: msgLen, Warmup: 2000, Measure: 30000, Drain: true})
	if err != nil {
		t.Fatal(err)
	}
	res := nw.Run()
	if res.Saturated {
		t.Fatalf("%s saturated at rate %v", rt.Graph().Name(), rate)
	}
	if res.Generated != res.Completed {
		t.Fatalf("%s: %d of %d messages missing after drain (possible deadlock)",
			rt.Graph().Name(), res.Generated-res.Completed, res.Generated)
	}
	nw.eng.RunAll()
	if err := nw.LeakCheck(); err != nil {
		t.Fatalf("%s: %v", rt.Graph().Name(), err)
	}
	if res.Unicast.N() == 0 {
		t.Fatalf("%s: no unicast samples", rt.Graph().Name())
	}
	return res
}

func TestSimulatorLivenessSpidergon(t *testing.T) {
	s, err := topology.NewSpidergon(16)
	if err != nil {
		t.Fatal(err)
	}
	rt := routing.NewSpidergonRouter(s)
	set, err := rt.RandomSet(rand.New(rand.NewPCG(1, 2)), 4)
	if err != nil {
		t.Fatal(err)
	}
	res := runOn(t, rt, set, 0.05, 0.002, 24)
	if res.Multicast.N() == 0 {
		t.Fatal("no multicast samples")
	}
}

func TestSimulatorLivenessOnePortQuarc(t *testing.T) {
	q, err := topology.NewQuarcOnePort(16)
	if err != nil {
		t.Fatal(err)
	}
	rt := routing.NewQuarcRouter(q)
	runOn(t, rt, rt.BroadcastSet(), 0.03, 0.0015, 24)
}

func TestSimulatorLivenessMesh(t *testing.T) {
	m, err := topology.NewMesh(5, 5)
	if err != nil {
		t.Fatal(err)
	}
	rt := routing.NewMeshRouter(m)
	set, err := rt.HighLowSet([]int{1, 4, 7}, []int{2, 5})
	if err != nil {
		t.Fatal(err)
	}
	runOn(t, rt, set, 0.05, 0.003, 16)
}

func TestSimulatorLivenessTorus(t *testing.T) {
	m, err := topology.NewTorus(4, 6)
	if err != nil {
		t.Fatal(err)
	}
	rt := routing.NewMeshRouter(m)
	set, err := rt.HighLowSet([]int{3}, []int{2})
	if err != nil {
		t.Fatal(err)
	}
	runOn(t, rt, set, 0.05, 0.003, 16)
}

func TestSimulatorLivenessHypercube(t *testing.T) {
	h, err := topology.NewHypercube(5)
	if err != nil {
		t.Fatal(err)
	}
	rt := routing.NewHypercubeRouter(h)
	set := routing.NewMulticastSet(1).Add(0, 3).Add(0, 12).Add(0, 21)
	runOn(t, rt, set, 0.05, 0.003, 16)
}

// High-load liveness: close to (but under) saturation the dateline VCs
// must still prevent deadlock on the Quarc rims — every message drains.
func TestSimulatorLivenessQuarcHighLoad(t *testing.T) {
	if testing.Short() {
		t.Skip("long simulation in -short mode")
	}
	q, err := topology.NewQuarc(32)
	if err != nil {
		t.Fatal(err)
	}
	rt := routing.NewQuarcRouter(q)
	set, err := rt.LocalizedSet(topology.PortL, 5)
	if err != nil {
		t.Fatal(err)
	}
	// ~85% of this configuration's simulated capacity.
	runOn(t, rt, set, 0.05, 0.004, 32)
}
