package wormhole

import (
	"reflect"
	"slices"
	"testing"

	"quarc/internal/routing"
	"quarc/internal/stats"
	"quarc/internal/topology"
	"quarc/internal/traffic"
)

// sortSamples orders samples canonically: by completion time, then
// generation time, then source node. It is the end-of-run sort the
// network used before it streamed the fold, kept as the oracle of
// TestStreamingFoldMatchesCanonicalSort.
func sortSamples(s []latSample) {
	slices.SortFunc(s, func(a, b latSample) int {
		switch {
		case a.t != b.t:
			if a.t < b.t {
				return -1
			}
			return 1
		case a.gen != b.gen:
			if a.gen < b.gen {
				return -1
			}
			return 1
		default:
			return int(a.src) - int(b.src)
		}
	})
}

// sampleRecorder rebuilds every measured completion's canonical key from
// the public hook stream: HookWormInjected gives the source node and the
// generation time, HookWormEjected the completion time.
type sampleRecorder struct {
	from, to float64 // the measured generation window [from, to)
	gen      map[int64]float64
	src      map[int64]topology.NodeID
	samples  []latSample
	// straddled counts messages generated before the window that complete
	// inside it: worms in flight at the warmup boundary.
	straddled int
}

func (r *sampleRecorder) Func(c HookCtx) {
	switch c.Pos {
	case HookWormInjected:
		r.gen[c.Msg], r.src[c.Msg] = c.Time, c.Node
	case HookWormEjected:
		g := r.gen[c.Msg]
		if g < r.from && c.Time >= r.from {
			r.straddled++
		}
		if g >= r.from && g < r.to {
			r.samples = append(r.samples, latSample{t: c.Time, gen: g, src: r.src[c.Msg], multicast: c.Multicast})
		}
	}
}

// TestStreamingFoldMatchesCanonicalSort is the differential oracle of the
// streamed fold: the measured completions, rebuilt from the hook stream,
// sorted with the old end-of-run comparator and folded into fresh
// estimators, must reproduce the run's estimators bitwise — across every
// registered arrival process, coalescing on and off, Detail, Drain,
// multicast priority, a saturation stop and a warmup boundary inside a
// busy period. At least one run must fold a tie group of two or more, or
// the order under test was never exercised.
func TestStreamingFoldMatchesCanonicalSort(t *testing.T) {
	rt := quarcRouter(t, 16)
	set, err := rt.LocalizedSet(topology.PortL, 4)
	if err != nil {
		t.Fatal(err)
	}
	type tc struct {
		name string
		spec traffic.Spec
		cfg  Config
		// detail attaches the detail subscriber, which reads the fold.
		detail bool
		// check asserts what makes the case the case.
		check func(Result, *sampleRecorder) bool
	}
	base := traffic.Spec{Rate: 0.006, MulticastFrac: 0.1, Set: set}
	window := Config{MsgLen: 32, Warmup: 2000, Measure: 20000}
	var cases []tc
	for _, arrival := range traffic.Arrivals() {
		spec := base
		spec.Arrival = arrival
		if arrival == "onoff" {
			spec.BurstLen, spec.DutyCycle = 8, 0.25
		}
		for _, fine := range []bool{false, true} {
			cfg := window
			cfg.NoCoalesce = fine
			name := arrival
			if fine {
				name += "/no-coalesce"
			}
			cases = append(cases, tc{name: name, spec: spec, cfg: cfg})
		}
	}
	drain, priority := window, window
	drain.Drain = true
	priority.MulticastPriority = true
	cases = append(cases,
		tc{name: "detail", spec: base, cfg: window, detail: true},
		tc{name: "drain", spec: base, cfg: drain},
		tc{name: "multicast-priority", spec: base, cfg: priority},
		tc{name: "saturation-stop", spec: traffic.Spec{Rate: 0.03, MulticastFrac: 0.1, Set: set},
			cfg:   Config{MsgLen: 32, Warmup: 500, Measure: 20000, SatQueue: 20},
			check: func(res Result, _ *sampleRecorder) bool { return res.Saturated && res.Time < 20500 }},
		tc{name: "busy-warmup-boundary", spec: traffic.Spec{Rate: 0.008, MulticastFrac: 0.1, Set: set},
			cfg:   Config{MsgLen: 32, Warmup: 1777.5, Measure: 20000},
			check: func(_ Result, r *sampleRecorder) bool { return r.straddled > 0 }},
	)
	maxTie := 0
	for _, c := range cases {
		w, err := traffic.NewWorkload(rt, c.spec, 11)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		nw, err := New(rt.Graph(), w, c.cfg)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		rec := &sampleRecorder{from: c.cfg.Warmup, to: c.cfg.Warmup + c.cfg.Measure,
			gen: map[int64]float64{}, src: map[int64]topology.NodeID{}}
		nw.Attach(rec, HookWormInjected, HookWormEjected)
		if c.detail {
			routes, err := routing.NewTable(rt, set)
			if err != nil {
				t.Fatal(err)
			}
			ins := NewInstrumentation(routes, c.cfg)
			nw.Attach(ins, ins.Positions()...)
		}
		res := nw.Run()
		if c.check != nil && !c.check(res, rec) {
			t.Errorf("%s: the run is not the case it names (saturated %v, time %v, straddled %d)",
				c.name, res.Saturated, res.Time, rec.straddled)
		}
		if int64(len(rec.samples)) != res.Completed || res.Completed == 0 {
			t.Fatalf("%s: rebuilt %d measured completions, the run counted %d", c.name, len(rec.samples), res.Completed)
		}

		sortSamples(rec.samples)
		var uni, mc stats.Running
		uniBM, mcBM := stats.NewBatchMeans(200), stats.NewBatchMeans(50)
		run := 0
		for i, s := range rec.samples {
			if i > 0 && s.t == rec.samples[i-1].t {
				run++
			} else {
				run = 1
			}
			maxTie = max(maxTie, run)
			lat := s.t - s.gen
			if s.multicast {
				mc.Add(lat)
				mcBM.Add(lat)
			} else {
				uni.Add(lat)
				uniBM.Add(lat)
			}
		}
		if res.Unicast != uni || res.Multicast != mc {
			t.Errorf("%s: streamed estimators %v / %v, canonical sort folds %v / %v",
				c.name, res.Unicast, res.Multicast, uni, mc)
		}
		if !reflect.DeepEqual(res.UnicastBM, uniBM) || !reflect.DeepEqual(res.MulticastBM, mcBM) {
			t.Errorf("%s: streamed batch means differ from the canonical sort's", c.name)
		}
	}
	if maxTie < 2 {
		t.Errorf("no run folded a tie group of two or more completions: the canonical order was never exercised")
	}
}

// TestCompletionGoingBackwardsPanics pins the streamed fold's guard: a
// measured completion earlier than the open tie group would be folded out
// of canonical order, so it must panic instead. No run reaches it —
// completions are stamped with the engine's clock — which is why it is
// driven directly.
func TestCompletionGoingBackwardsPanics(t *testing.T) {
	nw := &Network{res: Result{UnicastBM: stats.NewBatchMeans(200), MulticastBM: stats.NewBatchMeans(50)}}
	nw.addSample(latSample{t: 10, gen: 1})
	nw.addSample(latSample{t: 10, gen: 2})
	nw.addSample(latSample{t: 12, gen: 3}) // closes the group at 10
	defer func() {
		if r := recover(); r != "wormhole: completion time went backwards" {
			t.Fatalf("recovered %v, want the backwards-completion panic", r)
		}
		if nw.res.Unicast.N() != 2 || len(nw.samples) != 1 {
			t.Errorf("folded %d and kept %d samples, want the closed group of 2 folded and 1 open", nw.res.Unicast.N(), len(nw.samples))
		}
	}()
	nw.addSample(latSample{t: 11, gen: 4})
}
