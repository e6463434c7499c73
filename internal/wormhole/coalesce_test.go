package wormhole

import (
	"math"
	"testing"

	"quarc/internal/routing"
	"quarc/internal/topology"
	"quarc/internal/traffic"
)

// runPair runs the same workload with coalescing on and off and returns
// both results.
func runPair(t *testing.T, rt routing.Router, spec traffic.Spec, seed uint64, cfg Config) (coalesced, fine Result) {
	t.Helper()
	run := func(noCoalesce bool) Result {
		w, err := traffic.NewWorkload(rt, spec, seed)
		if err != nil {
			t.Fatal(err)
		}
		c := cfg
		c.NoCoalesce = noCoalesce
		nw, err := New(rt.Graph(), w, c)
		if err != nil {
			t.Fatal(err)
		}
		res := nw.Run()
		if cfg.Drain {
			// A drained run can be leak-checked once the engine empties;
			// without Drain, generation events reschedule forever.
			nw.eng.RunAll()
			if err := nw.LeakCheck(); err != nil {
				t.Errorf("noCoalesce=%v: %v", noCoalesce, err)
			}
		}
		return res
	}
	return run(false), run(true)
}

// TestCoalescingMatchesFineGrained is the differential test of the
// worm-level coalescing: span drains, fused advances and lazily applied
// releases must reproduce the fine-grained (one event per flit-step)
// simulator bitwise — latencies, message counts, utilization, and the
// flit-level-equivalent event count.
func TestCoalescingMatchesFineGrained(t *testing.T) {
	type tc struct {
		name   string
		rt     routing.Router
		set    func() (routing.MulticastSet, error)
		msgLen int
		rate   float64
		alpha  float64
		detail bool
		drain  bool
	}
	q16, err := topology.NewQuarc(16)
	if err != nil {
		t.Fatal(err)
	}
	qrt := routing.NewQuarcRouter(q16)
	q32, err := topology.NewQuarc(32)
	if err != nil {
		t.Fatal(err)
	}
	qrt32 := routing.NewQuarcRouter(q32)
	m, err := topology.NewMesh(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	mrt := routing.NewMeshRouter(m)

	cases := []tc{
		{name: "quarc16-long-low", rt: qrt,
			set:    func() (routing.MulticastSet, error) { return qrt.LocalizedSet(topology.PortL, 4) },
			msgLen: 32, rate: 0.002, alpha: 0.05},
		{name: "quarc16-long-high", rt: qrt,
			set:    func() (routing.MulticastSet, error) { return qrt.LocalizedSet(topology.PortL, 4) },
			msgLen: 32, rate: 0.006, alpha: 0.05, detail: true},
		{name: "quarc32-short-worms", rt: qrt32, // msgLen < diameter: stretched worms, fused advances
			set:    func() (routing.MulticastSet, error) { return qrt32.LocalizedSet(topology.PortL, 6) },
			msgLen: 4, rate: 0.004, alpha: 0.1, drain: true},
		{name: "mesh4x4", rt: mrt,
			set:    func() (routing.MulticastSet, error) { return mrt.HighLowSet([]int{1, 3}, []int{2}) },
			msgLen: 16, rate: 0.004, alpha: 0.05, drain: true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			set, err := c.set()
			if err != nil {
				t.Fatal(err)
			}
			for _, seed := range []uint64{1, 7, 99} {
				spec := traffic.Spec{Rate: c.rate, MulticastFrac: c.alpha, Set: set}
				cfg := Config{MsgLen: c.msgLen, Warmup: 1000, Measure: 10000,
					Detail: c.detail, Drain: c.drain}
				co, fi := runPair(t, c.rt, spec, seed, cfg)
				sameResult(t, c.name+"/coalesced-vs-fine", co, fi)
				if c.detail {
					if len(co.Detail.Channels) != len(fi.Detail.Channels) {
						t.Fatalf("seed %d: channel stats length differs", seed)
					}
					for i := range co.Detail.Channels {
						a, b := co.Detail.Channels[i], fi.Detail.Channels[i]
						if a.Grants != b.Grants || a.Utilization != b.Utilization ||
							!(a.MeanHold == b.MeanHold || (math.IsNaN(a.MeanHold) && math.IsNaN(b.MeanHold))) {
							t.Errorf("seed %d: channel %d stats diverged: %+v vs %+v", seed, i, a, b)
						}
					}
				}
			}
		})
	}
}

// TestCoalescingReducesFiredEvents checks the point of the exercise: with
// coalescing on, the engine dispatches substantially fewer events for the
// same logical (flit-level-equivalent) event count.
func TestCoalescingReducesFiredEvents(t *testing.T) {
	q, err := topology.NewQuarc(16)
	if err != nil {
		t.Fatal(err)
	}
	rt := routing.NewQuarcRouter(q)
	set, err := rt.LocalizedSet(topology.PortL, 4)
	if err != nil {
		t.Fatal(err)
	}
	spec := traffic.Spec{Rate: 0.004, MulticastFrac: 0.05, Set: set}
	fired := func(noCoalesce bool) (engine uint64, logical uint64) {
		w, err := traffic.NewWorkload(rt, spec, 7)
		if err != nil {
			t.Fatal(err)
		}
		nw, err := New(rt.Graph(), w, Config{MsgLen: 32, Warmup: 1000, Measure: 20000, NoCoalesce: noCoalesce})
		if err != nil {
			t.Fatal(err)
		}
		res := nw.Run()
		return nw.eng.Fired(), res.Events
	}
	coEng, coLog := fired(false)
	fiEng, fiLog := fired(true)
	if coLog != fiLog {
		t.Fatalf("logical event counts diverged: coalesced %d vs fine %d", coLog, fiLog)
	}
	if fiEng != fiLog {
		t.Fatalf("fine-grained run reports %d logical events but fired %d", fiLog, fiEng)
	}
	if float64(coEng) > 0.7*float64(fiEng) {
		t.Errorf("coalescing fired %d engine events vs %d fine-grained (want < 70%%)", coEng, fiEng)
	}
}
