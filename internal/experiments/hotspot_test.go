package experiments

import (
	"math"
	"testing"

	"quarc/internal/core"
	"quarc/internal/routing"
	"quarc/internal/topology"
	"quarc/internal/traffic"
	"quarc/internal/wormhole"
)

// Hotspot traffic breaks the vertex symmetry the paper's uniform setup
// relies on; the model's fixed point is fully general, so it must still
// track the simulator. This guards against accidental symmetry
// assumptions anywhere in the model.
func TestHotspotModelTracksSimulator(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation in -short mode")
	}
	q, err := topology.NewQuarc(16)
	if err != nil {
		t.Fatal(err)
	}
	rt := routing.NewQuarcRouter(q)
	spec := traffic.Spec{Rate: 0.003, Weights: hotspotWeights(16, 5, 0.3)}

	pred, err := core.Predict(core.Input{Router: rt, Spec: spec, MsgLen: 24})
	if err != nil {
		t.Fatal(err)
	}
	if pred.Saturated {
		t.Fatal("model saturated")
	}
	w, err := traffic.NewWorkload(rt, spec, 321)
	if err != nil {
		t.Fatal(err)
	}
	cfg := wormhole.Config{MsgLen: 24, Warmup: 5000, Measure: 120000}
	nw, err := wormhole.New(rt.Graph(), w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	grants := countGrants(nw, cfg)
	res := nw.Run()
	if res.Saturated {
		t.Fatal("simulator saturated")
	}
	if e := math.Abs(pred.UnicastLatency-res.Unicast.Mean()) / res.Unicast.Mean(); e > 0.08 {
		t.Errorf("hotspot: model %v vs sim %v (err %.3f > 8%%)",
			pred.UnicastLatency, res.Unicast.Mean(), e)
	}

	// The hotspot's ejection channels must carry far more traffic than a
	// typical node's — in both the model and the simulation.
	m, err := core.NewModel(core.Input{Router: rt, Spec: spec, MsgLen: 24})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Solve(); err != nil {
		t.Fatal(err)
	}
	ejRate := func(node topology.NodeID) (model, sim float64) {
		for p := 0; p < topology.QuarcPorts; p++ {
			id := rt.Graph().Ejection(node, p)
			model += m.Lambda(id)
			sim += grants.rate(id)
		}
		return
	}
	hotModel, hotSim := ejRate(5)
	coldModel, coldSim := ejRate(12)
	if !(hotModel > 4*coldModel) {
		t.Errorf("model hotspot ejection %v not >> cold %v", hotModel, coldModel)
	}
	if !(hotSim > 4*coldSim) {
		t.Errorf("sim hotspot ejection %v not >> cold %v", hotSim, coldSim)
	}
	// And the two sides agree on the hotspot's absolute rate.
	if e := math.Abs(hotModel-hotSim) / hotModel; e > 0.05 {
		t.Errorf("hotspot ejection rate: model %v vs sim %v", hotModel, hotSim)
	}
}

func TestHotspotLowersSaturation(t *testing.T) {
	q, err := topology.NewQuarc(16)
	if err != nil {
		t.Fatal(err)
	}
	rt := routing.NewQuarcRouter(q)
	set := routing.NewMulticastSet(topology.QuarcPorts)
	uniform, err := FindSaturationRate(rt, 32, 0, set, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	m, err := core.NewModel(core.Input{
		Router: rt,
		Spec:   traffic.Spec{Weights: hotspotWeights(16, 0, 0.4)},
		MsgLen: 32,
	})
	if err != nil {
		t.Fatal(err)
	}
	hotspot, err := m.SaturationRate(1e-3)
	if err != nil {
		t.Fatal(err)
	}
	// The hotspot's ejection channels are the new bottleneck: they saturate
	// well before the uniform workload does, but not at a trickle.
	if !(hotspot < uniform && hotspot > uniform/8) {
		t.Errorf("hotspot saturation rate %v, want within (%v, %v)", hotspot, uniform/8, uniform)
	}
}

// hotspotWeights is the weight matrix of noc's "hotspot" spatial pattern
// with one node: every other source sends frac of its unicasts to node
// and spreads the rest uniformly, and node itself sends uniformly.
func hotspotWeights(n, node int, frac float64) [][]float64 {
	w := make([][]float64, n)
	for src := range w {
		w[src] = make([]float64, n)
		uniform := (1 - frac) / float64(n-1)
		if src == node {
			uniform = 1 / float64(n-1)
		}
		for dst := range w[src] {
			if dst != src {
				w[src][dst] = uniform
			}
		}
		if src != node {
			w[src][node] += frac
		}
	}
	return w
}
