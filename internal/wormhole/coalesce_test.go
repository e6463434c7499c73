package wormhole

import (
	"cmp"
	"slices"
	"testing"

	"quarc/internal/routing"
	"quarc/internal/topology"
	"quarc/internal/traffic"
)

// runPair runs the same workload with coalescing on and off and returns
// both results and both hook streams.
func runPair(t *testing.T, rt routing.Router, spec traffic.Spec, seed uint64, cfg Config) (coalesced, fine Result, coStream, fiStream []HookCtx) {
	t.Helper()
	run := func(noCoalesce bool) (Result, []HookCtx) {
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
		var stream []HookCtx
		nw.Attach(hookFunc(func(c HookCtx) { stream = append(stream, c) }))
		res := nw.Run()
		if cfg.Drain {
			// A drained run can be leak-checked once the engine empties;
			// without Drain, generation events reschedule forever.
			nw.eng.RunAll()
			if err := nw.leakCheck(); err != nil {
				t.Errorf("noCoalesce=%v: %v", noCoalesce, err)
			}
		}
		return res, stream
	}
	coalesced, coStream = run(false)
	fine, fiStream = run(true)
	return coalesced, fine, coStream, fiStream
}

// canonicalStream puts a hook stream in the form coalescing must keep
// exactly. Every position keeps its emission order but two. Channel
// releases, which a coalesced drain applies lazily at their logical
// times, are sorted. Queue changes become one record per wait that lasts:
// Time its start and Latency its length. The fine-grained simulator can
// queue a worm and dequeue it within one instant where coalescing grants
// it at once; the grant stream pins both the same.
func canonicalStream(s []HookCtx) []HookCtx {
	type waiter struct {
		ch     topology.ChannelID
		msg    int64
		branch int
	}
	var ordered, unordered []HookCtx
	blocked := map[waiter]HookCtx{}
	queued := map[topology.ChannelID]int{}
	for _, c := range s {
		switch c.Pos {
		case HookChannelReleased:
			unordered = append(unordered, c)
		case HookQueueChanged:
			k := waiter{c.Channel, c.Msg, c.Branch}
			if c.Occupancy > queued[c.Channel] {
				c.Occupancy = 0
				blocked[k] = c
			} else {
				if b := blocked[k]; c.Time > b.Time {
					b.Latency = c.Time - b.Time
					unordered = append(unordered, b)
				}
				delete(blocked, k)
			}
			queued[c.Channel] = c.Occupancy
		default:
			ordered = append(ordered, c)
		}
	}
	for _, b := range blocked {
		unordered = append(unordered, b) // still waiting when the run ended
	}
	slices.SortFunc(unordered, func(a, b HookCtx) int {
		return cmp.Or(cmp.Compare(a.Pos, b.Pos), cmp.Compare(a.Time, b.Time),
			cmp.Compare(a.Channel, b.Channel), cmp.Compare(a.Msg, b.Msg), cmp.Compare(a.Branch, b.Branch))
	})
	return append(ordered, unordered...)
}

// TestCoalescingMatchesFineGrained is the differential test of the
// worm-level coalescing: span drains, fused advances and lazily applied
// releases must reproduce the fine-grained (one event per flit-step)
// simulator bitwise — latencies, message counts, utilization, the
// flit-level-equivalent event count, and the hook stream in its
// canonical form, which pins every grant, release and lasting wait of
// every channel.
func TestCoalescingMatchesFineGrained(t *testing.T) {
	type tc struct {
		name   string
		rt     routing.Router
		set    func() (routing.MulticastSet, error)
		msgLen int
		rate   float64
		alpha  float64
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
			msgLen: 32, rate: 0.006, alpha: 0.05},
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
				cfg := Config{MsgLen: c.msgLen, Warmup: 1000, Measure: 10000, Drain: c.drain}
				co, fi, coStream, fiStream := runPair(t, c.rt, spec, seed, cfg)
				sameResult(t, c.name+"/coalesced-vs-fine", co, fi)
				coStream, fiStream = canonicalStream(coStream), canonicalStream(fiStream)
				if len(coStream) != len(fiStream) {
					t.Fatalf("seed %d: %d canonical hook records coalesced, %d fine-grained", seed, len(coStream), len(fiStream))
				}
				for i := range coStream {
					if coStream[i] != fiStream[i] {
						t.Fatalf("seed %d: canonical hook record %d diverged: %+v vs %+v", seed, i, coStream[i], fiStream[i])
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
