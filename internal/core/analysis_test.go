package core

import (
	"fmt"
	"math"
	"testing"

	"quarc/internal/routing"
	"quarc/internal/topology"
	"quarc/internal/traffic"
	"quarc/internal/wormhole"
)

// MeanDistance returns the average unicast hop count (network link
// crossings) over all ordered source/destination pairs, read from the
// router's route table. This is the D̄ entering the zero-load latency
// D̄ + 1 + msg (the +1 is the injection-channel crossing).
func MeanDistance(rt routing.Router) (float64, error) {
	routes, err := routing.NewTable(rt, routing.MulticastSet{})
	if err != nil {
		return 0, err
	}
	n := routes.Graph().Nodes()
	var sum float64
	for src := 0; src < n; src++ {
		for dst := 0; dst < n; dst++ {
			if src == dst {
				continue
			}
			p := routes.Unicast(topology.NodeID(src), topology.NodeID(dst))[0].Path
			sum += float64(len(p) - 2) // exclude injection and ejection
		}
	}
	return sum / float64(n*(n-1)), nil
}

// ZeroLoadUnicastLatency returns the exact average unicast latency at
// vanishing load: mean distance + 1 (injection) + message drain.
func ZeroLoadUnicastLatency(rt routing.Router, msgLen int) (float64, error) {
	d, err := MeanDistance(rt)
	if err != nil {
		return 0, err
	}
	return d + 1 + float64(msgLen), nil
}

// QuarcMeanDistance is the closed form of the Quarc's average unicast
// distance. With quadrant size Q = N/4 the distance sums per quadrant are
// Q(Q+1)/2 for L and R, Q(Q+1)/2 for the cross-left quadrant, and
// Q(Q+1)/2 - 1 for cross-right (one fewer node), giving
//
//	D̄ = (2Q(Q+1) - 1) / (N - 1).
//
// The Spidergon's Across-First routing yields exactly the same value —
// the Quarc changes the port structure, not the shortest-path distances.
func QuarcMeanDistance(n int) (float64, error) {
	if n < 8 || n%4 != 0 {
		return 0, fmt.Errorf("core: invalid quarc size %d", n)
	}
	q := float64(n / 4)
	return (2*q*(q+1) - 1) / float64(n-1), nil
}

// HypercubeMeanDistance is the closed form of the hypercube's average
// e-cube distance: the mean Hamming distance to a random other node,
// d·2^(d-1) / (2^d - 1).
func HypercubeMeanDistance(dims int) (float64, error) {
	if dims < 1 || dims > 16 {
		return 0, fmt.Errorf("core: invalid hypercube dims %d", dims)
	}
	n := float64(int(1) << uint(dims))
	return float64(dims) * n / 2 / (n - 1), nil
}

// QuarcZeroLoadBroadcastLatency is the exact zero-load latency of a Quarc
// broadcast: the four quadrant branches are independent, each is N/4
// network hops deep plus the injection crossing, and the slowest branch
// defines completion: (N/4 + 1) + msg.
func QuarcZeroLoadBroadcastLatency(n, msgLen int) (float64, error) {
	if n < 8 || n%4 != 0 {
		return 0, fmt.Errorf("core: invalid quarc size %d", n)
	}
	return float64(n/4+1) + float64(msgLen), nil
}

// SpidergonZeroLoadBroadcastLatency is the zero-load latency of the
// Spidergon's broadcast-by-consecutive-unicast: the k-th of the N-1
// unicasts leaves after k-1 injection holding times of msg cycles each,
// and the slowest completion over all k defines the broadcast. At zero
// load unicast k to a destination at distance d_k completes at
// (k-1)·msg + (d_k + 1) + msg; with distances bounded by the diameter the
// last transmission dominates: (N-2)·msg + msg + d + 1 where d is the
// distance of the final destination in transmission order (position
// order, i.e. relative position N-1, at distance 1), giving
// (N-1)·msg + 2.
func SpidergonZeroLoadBroadcastLatency(n, msgLen int) (float64, error) {
	if n < 6 || n%2 != 0 {
		return 0, fmt.Errorf("core: invalid spidergon size %d", n)
	}
	return float64(n-1)*float64(msgLen) + 2, nil
}

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
