package wormhole

import (
	"math"
	"testing"

	"quarc/internal/routing"
	"quarc/internal/topology"
	"quarc/internal/traffic"
)

func quarcRouter(t *testing.T, n int) *routing.QuarcRouter {
	t.Helper()
	q, err := topology.NewQuarc(n)
	if err != nil {
		t.Fatal(err)
	}
	return routing.NewQuarcRouter(q)
}

// singleShot injects exactly one message and returns its latency.
type singleShot struct {
	branches []routing.Branch
	node     topology.NodeID
	fired    bool
}

func (s *singleShot) Interarrival(node topology.NodeID) float64 {
	if node == s.node && !s.fired {
		return 5 // inject at t=5, inside the measurement window
	}
	return math.Inf(1)
}

func (s *singleShot) Next(node topology.NodeID) ([]routing.Branch, bool) {
	s.fired = true
	return s.branches, len(s.branches) > 1
}

func TestZeroLoadUnicastLatencyIsExact(t *testing.T) {
	rt := quarcRouter(t, 16)
	msgLen := 20
	for _, dst := range []topology.NodeID{1, 4, 5, 8, 9, 11, 12, 15} {
		path, err := rt.UnicastPath(0, dst)
		if err != nil {
			t.Fatal(err)
		}
		src := &singleShot{
			node:     0,
			branches: []routing.Branch{{Path: path, Targets: []topology.NodeID{dst}}},
		}
		nw, err := New(rt.Graph(), src, Config{MsgLen: msgLen, Warmup: 0, Measure: 1000})
		if err != nil {
			t.Fatal(err)
		}
		res := nw.Run()
		if res.Unicast.N() != 1 {
			t.Fatalf("dst %d: recorded %d messages, want 1", dst, res.Unicast.N())
		}
		// Zero-load latency = header pipeline depth + message drain:
		// (len(path)-1) + msgLen.
		want := float64(len(path)-1) + float64(msgLen)
		if got := res.Unicast.Mean(); got != want {
			t.Errorf("dst %d: zero-load latency = %v, want %v (path len %d)", dst, got, want, len(path))
		}
	}
}

func TestZeroLoadBroadcastLatency(t *testing.T) {
	rt := quarcRouter(t, 16)
	msgLen := 20
	branches, err := rt.MulticastBranches(0, rt.BroadcastSet())
	if err != nil {
		t.Fatal(err)
	}
	src := &singleShot{node: 0, branches: branches}
	nw, err := New(rt.Graph(), src, Config{MsgLen: msgLen, Warmup: 0, Measure: 1000})
	if err != nil {
		t.Fatal(err)
	}
	res := nw.Run()
	if res.Multicast.N() != 1 {
		t.Fatalf("recorded %d multicasts, want 1", res.Multicast.N())
	}
	// All four branches have path length N/4 + 2 = 6, so the last one
	// finishes at (6-1) + msgLen with no contention: the branches use
	// disjoint channels.
	want := float64(5 + msgLen)
	if got := res.Multicast.Mean(); got != want {
		t.Errorf("zero-load broadcast latency = %v, want %v", got, want)
	}
}

// twoShot injects two identical unicasts back to back on the same port to
// exercise FIFO blocking at the injection channel.
type twoShot struct {
	branches []routing.Branch
	node     topology.NodeID
	count    int
}

func (s *twoShot) Interarrival(node topology.NodeID) float64 {
	if node != s.node || s.count >= 2 {
		return math.Inf(1)
	}
	if s.count == 0 {
		return 1
	}
	return 0.25 // second message 0.25 cycles after the first
}

func (s *twoShot) Next(node topology.NodeID) ([]routing.Branch, bool) {
	s.count++
	return s.branches, false
}

func TestFIFOBlockingAtInjection(t *testing.T) {
	rt := quarcRouter(t, 16)
	msgLen := 10
	path, err := rt.UnicastPath(0, 2)
	if err != nil {
		t.Fatal(err)
	}
	src := &twoShot{node: 0, branches: []routing.Branch{{Path: path, Targets: []topology.NodeID{2}}}}
	nw, err := New(rt.Graph(), src, Config{MsgLen: msgLen, Warmup: 0, Measure: 1000})
	if err != nil {
		t.Fatal(err)
	}
	res := nw.Run()
	if res.Unicast.N() != 2 {
		t.Fatalf("recorded %d messages, want 2", res.Unicast.N())
	}
	// First message: generated t=1, path len 4 (inj, 2 links, eject),
	// latency 3 + 10 = 13, so it completes at 14. Its injection channel
	// releases at te + msg - (len-1) = 3 + 10 - 3 = 10... the second
	// message (generated t=1.25) is granted injection at release of the
	// injection channel: te(first eject grant)=1+3=4; release(inj) =
	// 4 + 10 - 3 = 11. Header then needs 3 more grants (12,13,14 are free
	// by then since first worm released everything by 14... eject release
	// = 4+10 = 14; second header requests eject at 14; granted at 14.
	// Completion = 24; latency = 24 - 1.25 = 22.75.
	first := res.Unicast.Min()
	second := res.Unicast.Max()
	if first != 13 {
		t.Errorf("first latency = %v, want 13", first)
	}
	if second != 22.75 {
		t.Errorf("second latency = %v, want 22.75", second)
	}
}

func poissonWorkload(t *testing.T, rt *routing.QuarcRouter, rate, alpha float64, set routing.MulticastSet, seed uint64) *traffic.Workload {
	t.Helper()
	w, err := traffic.NewWorkload(rt, traffic.Spec{Rate: rate, MulticastFrac: alpha, Set: set}, seed)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestLowLoadMatchesZeroLoadApproximately(t *testing.T) {
	rt := quarcRouter(t, 16)
	w := poissonWorkload(t, rt, 0.0005, 0, routing.MulticastSet{}, 42)
	nw, err := New(rt.Graph(), w, Config{MsgLen: 16, Warmup: 2000, Measure: 30000})
	if err != nil {
		t.Fatal(err)
	}
	res := nw.Run()
	if res.Saturated {
		t.Fatal("low-load run reported saturation")
	}
	if res.Unicast.N() < 50 {
		t.Fatalf("too few samples: %d", res.Unicast.N())
	}
	// Average zero-load unicast latency: mean path depth + msg. Mean
	// unicast distance in a 16-node quarc: sum over r of DistRel / 15.
	q := rt.Quarc()
	var sum float64
	for r := 1; r < 16; r++ {
		sum += float64(q.DistRel(r))
	}
	want := sum/15 + 1 + 16 // +1 injection-to-ejection depth offset, +msg
	got := res.Unicast.Mean()
	if math.Abs(got-want) > 1.0 {
		t.Errorf("low-load latency = %v, want ~%v", got, want)
	}
}

func TestSaturationDetected(t *testing.T) {
	rt := quarcRouter(t, 16)
	// Absurdly high load must saturate.
	w := poissonWorkload(t, rt, 0.5, 0, routing.MulticastSet{}, 7)
	nw, err := New(rt.Graph(), w, Config{MsgLen: 32, Warmup: 1000, Measure: 5000, SatQueue: 200})
	if err != nil {
		t.Fatal(err)
	}
	res := nw.Run()
	if !res.Saturated {
		t.Fatal("overloaded network not flagged as saturated")
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	rt := quarcRouter(t, 16)
	set, err := rt.LocalizedSet(topology.PortL, 3)
	if err != nil {
		t.Fatal(err)
	}
	run := func() Result {
		w := poissonWorkload(t, rt, 0.004, 0.05, set, 99)
		nw, err := New(rt.Graph(), w, Config{MsgLen: 16, Warmup: 1000, Measure: 20000})
		if err != nil {
			t.Fatal(err)
		}
		return nw.Run()
	}
	a, b := run(), run()
	if a.Unicast.Mean() != b.Unicast.Mean() || a.Multicast.Mean() != b.Multicast.Mean() {
		t.Fatalf("same seed gave different results: %v vs %v, %v vs %v",
			a.Unicast.Mean(), b.Unicast.Mean(), a.Multicast.Mean(), b.Multicast.Mean())
	}
	if a.Generated != b.Generated || a.Completed != b.Completed {
		t.Fatalf("same seed gave different counts: %d/%d vs %d/%d",
			a.Generated, a.Completed, b.Generated, b.Completed)
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	rt := quarcRouter(t, 16)
	run := func(seed uint64) float64 {
		w := poissonWorkload(t, rt, 0.004, 0, routing.MulticastSet{}, seed)
		nw, err := New(rt.Graph(), w, Config{MsgLen: 16, Warmup: 1000, Measure: 20000})
		if err != nil {
			t.Fatal(err)
		}
		return nw.Run().Unicast.Mean()
	}
	if run(1) == run(2) {
		t.Fatal("different seeds produced identical means (suspicious)")
	}
}

// TestConfigValidation covers New's and Reset's own guard. A NaN window
// compares false against every bound and an infinite one never ends, so
// both are rejected here too, not only by noc's spec checks.
func TestConfigValidation(t *testing.T) {
	rt := quarcRouter(t, 16)
	w := poissonWorkload(t, rt, 0.001, 0, routing.MulticastSet{}, 1)
	nw, err := New(rt.Graph(), w, Config{MsgLen: 8, Measure: 10})
	if err != nil {
		t.Fatal(err)
	}
	nan, inf := math.NaN(), math.Inf(1)
	for _, c := range []struct {
		name string
		cfg  Config
	}{
		{"msgLen 1", Config{MsgLen: 1, Warmup: 0, Measure: 10}},
		{"negative warmup", Config{MsgLen: 8, Warmup: -1, Measure: 10}},
		{"zero measure window", Config{MsgLen: 8, Warmup: 0, Measure: 0}},
		{"NaN warmup", Config{MsgLen: 8, Warmup: nan, Measure: 10}},
		{"NaN measure", Config{MsgLen: 8, Warmup: 0, Measure: nan}},
		{"+Inf warmup", Config{MsgLen: 8, Warmup: inf, Measure: 10}},
		{"+Inf measure", Config{MsgLen: 8, Warmup: 0, Measure: inf}},
		{"-Inf warmup", Config{MsgLen: 8, Warmup: -inf, Measure: 10}},
		{"-Inf measure", Config{MsgLen: 8, Warmup: 0, Measure: -inf}},
	} {
		if _, err := New(rt.Graph(), w, c.cfg); err == nil {
			t.Errorf("New accepted %s", c.name)
		}
		if err := nw.Reset(w, c.cfg); err == nil {
			t.Errorf("Reset accepted %s", c.name)
		}
	}
}

func TestUtilizationReported(t *testing.T) {
	rt := quarcRouter(t, 16)
	w := poissonWorkload(t, rt, 0.003, 0, routing.MulticastSet{}, 3)
	nw, err := New(rt.Graph(), w, Config{MsgLen: 16, Warmup: 1000, Measure: 20000})
	if err != nil {
		t.Fatal(err)
	}
	res := nw.Run()
	if !(res.MaxUtil > 0 && res.MaxUtil < 1) {
		t.Fatalf("MaxUtil = %v, want in (0,1)", res.MaxUtil)
	}
	if res.Events == 0 || res.Time <= 0 {
		t.Fatalf("bookkeeping missing: events=%d time=%v", res.Events, res.Time)
	}
}
