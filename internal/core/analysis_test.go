package core

import (
	"math"
	"testing"

	"quarc/internal/routing"
	"quarc/internal/topology"
	"quarc/internal/traffic"
	"quarc/internal/wormhole"
)

func TestQuarcMeanDistanceClosedForm(t *testing.T) {
	for _, n := range []int{8, 16, 32, 64, 128} {
		rt := quarcRouter(t, n)
		enum, err := MeanDistance(rt)
		if err != nil {
			t.Fatal(err)
		}
		closed, err := QuarcMeanDistance(n)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(enum-closed) > 1e-9 {
			t.Errorf("n=%d: enumerated %v, closed form %v", n, enum, closed)
		}
	}
	if _, err := QuarcMeanDistance(10); err == nil {
		t.Error("invalid size accepted")
	}
}

func TestSpidergonMeanDistanceEqualsQuarc(t *testing.T) {
	// The Quarc preserves the Spidergon's shortest-path distances; only
	// the port structure differs.
	for _, n := range []int{8, 16, 32} {
		s, err := topology.NewSpidergon(n)
		if err != nil {
			t.Fatal(err)
		}
		enum, err := MeanDistance(routing.NewSpidergonRouter(s))
		if err != nil {
			t.Fatal(err)
		}
		closed, err := QuarcMeanDistance(n)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(enum-closed) > 1e-9 {
			t.Errorf("n=%d: spidergon enumerated %v, quarc closed form %v", n, enum, closed)
		}
	}
}

func TestHypercubeMeanDistanceClosedForm(t *testing.T) {
	for _, dims := range []int{2, 3, 4, 5} {
		h, err := topology.NewHypercube(dims)
		if err != nil {
			t.Fatal(err)
		}
		enum, err := MeanDistance(routing.NewHypercubeRouter(h))
		if err != nil {
			t.Fatal(err)
		}
		closed, err := HypercubeMeanDistance(dims)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(enum-closed) > 1e-9 {
			t.Errorf("dims=%d: enumerated %v, closed form %v", dims, enum, closed)
		}
	}
}

func TestZeroLoadUnicastLatencyMatchesModel(t *testing.T) {
	rt := quarcRouter(t, 32)
	want, err := ZeroLoadUnicastLatency(rt, 48)
	if err != nil {
		t.Fatal(err)
	}
	pred, err := Predict(Input{Router: rt, Spec: traffic.Spec{Rate: 1e-12}, MsgLen: 48})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(pred.UnicastLatency-want) > 1e-6 {
		t.Errorf("model zero-load %v, analytic %v", pred.UnicastLatency, want)
	}
}

func TestQuarcZeroLoadBroadcastClosedForm(t *testing.T) {
	// Cross-check the closed form against an actual simulation of a
	// single broadcast.
	for _, n := range []int{16, 32} {
		rt := quarcRouter(t, n)
		want, err := QuarcZeroLoadBroadcastLatency(n, 20)
		if err != nil {
			t.Fatal(err)
		}
		branches, err := routing.MulticastBranches(rt, 0, rt.BroadcastSet())
		if err != nil {
			t.Fatal(err)
		}
		src := &oneShot{branches: branches}
		nw, err := wormhole.New(rt.Graph(), src, wormhole.Config{MsgLen: 20, Warmup: 0, Measure: 5000})
		if err != nil {
			t.Fatal(err)
		}
		res := nw.Run()
		if got := res.Multicast.Mean(); got != want {
			t.Errorf("n=%d: simulated single broadcast %v, closed form %v", n, got, want)
		}
	}
}

func TestSpidergonZeroLoadBroadcastClosedForm(t *testing.T) {
	s, err := topology.NewSpidergon(16)
	if err != nil {
		t.Fatal(err)
	}
	rt := routing.NewSpidergonRouter(s)
	want, err := SpidergonZeroLoadBroadcastLatency(16, 20)
	if err != nil {
		t.Fatal(err)
	}
	branches, err := routing.MulticastBranches(rt, 0, rt.BroadcastSet())
	if err != nil {
		t.Fatal(err)
	}
	src := &oneShot{branches: branches}
	nw, err := wormhole.New(rt.Graph(), src, wormhole.Config{MsgLen: 20, Warmup: 0, Measure: 5000})
	if err != nil {
		t.Fatal(err)
	}
	res := nw.Run()
	if got := res.Multicast.Mean(); got != want {
		t.Errorf("simulated spidergon broadcast %v, closed form %v", got, want)
	}
}

func TestAnalysisValidation(t *testing.T) {
	if _, err := HypercubeMeanDistance(0); err == nil {
		t.Error("dims 0 accepted")
	}
	if _, err := QuarcZeroLoadBroadcastLatency(10, 16); err == nil {
		t.Error("invalid quarc size accepted")
	}
	if _, err := SpidergonZeroLoadBroadcastLatency(7, 16); err == nil {
		t.Error("odd spidergon size accepted")
	}
}

// oneShot injects a single multicast at t=1.
type oneShot struct {
	branches []routing.Branch
	fired    bool
}

func (s *oneShot) Interarrival(node topology.NodeID) float64 {
	if node == 0 && !s.fired {
		return 1
	}
	return math.Inf(1)
}

func (s *oneShot) Next(node topology.NodeID) ([]routing.Branch, bool) {
	s.fired = true
	return s.branches, true
}
