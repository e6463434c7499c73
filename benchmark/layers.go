package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"quarc/internal/experiments"
	"quarc/internal/obs"
	"quarc/internal/routing"
	"quarc/internal/sim"
	"quarc/internal/stats"
	"quarc/internal/topology"
	"quarc/internal/traffic"
	"quarc/internal/wormhole"
	"quarc/noc"
	"quarc/noc/service"
	"quarc/noc/service/fleet"
	"quarc/noc/service/store"
)

// layerSensitivity calibrates every layer probe with one exponent, the
// simulator's: the per-layer figures are ungated, so a per-probe fit
// would be precision nobody checks. rawTime switches the calibrator off,
// for figures that depend on the second vCPU or the disk rather than on
// this thread's speed.
const (
	layerSensitivity = 0.75
	rawTime          = 0
)

// layers runs the per-layer probes of the traced run. Each probe times a
// layer's public calls from here, several repetitions bracketed by the
// calibrator like an operation; each repetition is a span under one
// "layers" root. The first error stops the remaining probes.
type layers struct {
	cal  *calibrator
	tr   *tracer
	root int
	out  map[string]metric
	err  error
}

// probe is one timed call; prime, if set, runs untimed just before it.
type probe struct {
	span  string
	prime func() error
	fn    func() error
}

// interleave runs the probes round-robin reps times and returns each
// probe's calibrated durations in ns. Probes whose figures are compared
// with each other go into one call, so that both sides see the same
// machine; the comparison is then the median of the per-round ratios or
// differences.
func (l *layers) interleave(reps int, sensitivity float64, ps ...probe) [][]float64 {
	out := make([][]float64, len(ps))
	for i := range out {
		out[i] = make([]float64, reps) // zeros if a probe fails: l.err says so
	}
	if l.err != nil {
		return out
	}
	before := l.cal.measure()
	for r := 0; r < reps; r++ {
		for i, p := range ps {
			if p.prime != nil {
				if l.err = p.prime(); l.err != nil {
					return out
				}
				before = l.cal.measure()
			}
			id := l.tr.begin(p.span, l.root, r)
			t0 := time.Now()
			err := p.fn()
			raw := float64(time.Since(t0).Nanoseconds())
			l.tr.end(id)
			if err != nil {
				l.err = fmt.Errorf("layer probe %s: %w", p.span, err)
				return out
			}
			after := l.cal.measure()
			out[i][r] = calibrated(raw, before, after, sensitivity)
			before = after
		}
	}
	return out
}

// timed is the median calibrated duration of fn, in ns, over 5 calls.
func (l *layers) timed(span string, fn func() error) float64 {
	return median(l.interleave(5, layerSensitivity, probe{span: span, fn: fn})[0])
}

// ratios and diffs pair two probes' samples round by round.
func ratios(a, b []float64) []float64 {
	out := make([]float64, len(a))
	for i := range a {
		out[i] = a[i] / b[i]
	}
	return out
}

func diffs(a, b []float64) []float64 {
	out := make([]float64, len(a))
	for i := range a {
		out[i] = a[i] - b[i]
	}
	return out
}

func (l *layers) set(name string, value float64, unit string) {
	l.out[name] = metric{value, unit}
}

func (l *layers) get(name string) float64 { return l.out[name].Value }

// mallocs counts the heap objects fn allocates.
func mallocs(fn func()) float64 {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	fn()
	runtime.ReadMemStats(&m1)
	return float64(m1.Mallocs - m0.Mallocs)
}

// measureLayers runs every probe and returns the per-layer metrics. The
// probes use fixed seeds and sizes: they describe the code, not the
// run's --seed.
func measureLayers(scratch string, tr *tracer) (map[string]metric, error) {
	l := &layers{cal: newCalibrator(), tr: tr, out: make(map[string]metric)}
	l.root = tr.begin("layers", -1, -1)
	for _, group := range []func() error{l.engine, l.simulator, l.statistics, l.routing, l.specCodec, l.sweeps,
		func() error { return l.serving(scratch) }} {
		if l.err == nil {
			if err := group(); err != nil {
				l.err = err
			}
		}
	}
	tr.end(l.root)
	return l.out, l.err
}

// tickHandler perpetuates every event one cycle later: the minimal
// self-sustaining event loop, so the span is pure scheduler cost.
type tickHandler struct{}

func (tickHandler) Handle(e *sim.Engine, ev sim.Event) { e.Schedule(e.Now()+1, ev) }

func (l *layers) engine() error {
	const chains, events = 64, 1 << 20
	eng := sim.New()
	eng.SetHandler(tickHandler{})
	for i := 0; i < chains; i++ {
		eng.Schedule(1, sim.Event{Kind: 1, Arg: int32(i)})
	}
	eng.Run(events / chains) // warm the calendar
	ns := l.timed("sim.engine", func() error {
		eng.Run(eng.Now() + events/chains)
		return nil
	})
	l.set("sim.ns_per_event", ns/events, "ns")
	return nil
}

// noopHook subscribes everywhere and does nothing: hook dispatch alone.
type noopHook struct{}

func (noopHook) Func(wormhole.HookCtx) {}

// simulator probes traffic generation and the wormhole network on the
// sim-mid and sim-knee scenarios themselves, so that the figures add up
// against those workloads' operations.
func (l *layers) simulator() error {
	q, err := topology.NewQuarc(64)
	if err != nil {
		return err
	}
	rt := routing.NewQuarcRouter(q)
	set, err := rt.LocalizedSet(topology.PortL, 8)
	if err != nil {
		return err
	}
	sat, err := experiments.FindSaturationRate(rt, 32, 0.05, set, 1e-3)
	if err != nil {
		return err
	}
	mid := traffic.Spec{Rate: midFrac * sat, MulticastFrac: 0.05, Set: set}
	knee := traffic.Spec{Rate: kneeFrac * sat, MulticastFrac: 0.05, Set: set}
	midCfg := wormhole.Config{MsgLen: 32, Warmup: simWarmup, Measure: midMeasure}
	kneeCfg := wormhole.Config{MsgLen: 32, Warmup: simWarmup, Measure: kneeMeasure}
	const seed = 7

	wl, err := traffic.NewWorkload(rt, mid, seed)
	if err != nil {
		return err
	}
	const msgs = 1 << 20
	ns := l.timed("traffic.draw", func() error {
		for n := 0; n < msgs; n++ {
			node := topology.NodeID(n & 63)
			wl.Interarrival(node)
			wl.Next(node)
		}
		return nil
	})
	l.set("traffic.ns_per_msg", ns/msgs, "ns")
	ns = l.timed("traffic.reset", func() error {
		for n := 0; n < 100; n++ {
			if err := wl.Reset(mid, seed); err != nil {
				return err
			}
		}
		return nil
	})
	l.set("traffic.reset_us", ns/100/1e3, "us")

	var nw *wormhole.Network
	ns = l.timed("wormhole.new", func() (err error) {
		for n := 0; n < 10 && err == nil; n++ {
			nw, err = wormhole.New(rt.Graph(), wl, midCfg)
		}
		return err
	})
	l.set("wormhole.new_us", ns/10/1e3, "us")
	if l.err != nil {
		return l.err
	}
	reset := func(spec traffic.Spec, cfg wormhole.Config) error {
		if err := wl.Reset(spec, seed); err != nil {
			return err
		}
		return nw.Reset(wl, cfg)
	}
	ns = l.timed("wormhole.reset", func() error {
		for n := 0; n < 20; n++ {
			if err := reset(mid, midCfg); err != nil {
				return err
			}
		}
		return nil
	})
	l.set("wormhole.reset_us", ns/20/1e3, "us")

	// Network.Run alone, primed by an untimed reset.
	var res wormhole.Result
	run := func() error { res = nw.Run(); return nil }
	v := l.interleave(5, layerSensitivity, probe{"wormhole.run_mid", func() error { return reset(mid, midCfg) }, run})
	l.set("wormhole.mid_events_per_s", float64(res.Events)/median(v[0])*1e9, "1/s")
	l.set("wormhole.mid_events_per_run", float64(res.Events), "count")
	l.set("wormhole.mid_msgs_per_run", float64(res.Generated), "count")
	v = l.interleave(5, layerSensitivity, probe{"wormhole.run_knee", func() error { return reset(knee, kneeCfg) }, run})
	l.set("wormhole.knee_events_per_s", float64(res.Events)/median(v[0])*1e9, "1/s")
	l.set("wormhole.knee_events_per_run", float64(res.Events), "count")
	if l.err != nil {
		return l.err
	}
	l.set("wormhole.allocs_per_run", mallocs(func() {
		_ = reset(mid, midCfg)
		nw.Run()
	}), "count")

	// The same mid run over a pre-recorded trace: no RNG draws.
	rec := traffic.NewRecorder(wl)
	if err := wl.Reset(mid, seed); err != nil {
		return err
	}
	if err := nw.Reset(rec, midCfg); err != nil {
		return err
	}
	nw.Attach(wormhole.ObserverHook(rec), wormhole.HookWormInjected)
	nw.Run()
	v = l.interleave(5, layerSensitivity, probe{"wormhole.run_replay", func() error {
		rp, err := traffic.NewReplayer(rt, set, rec.Trace())
		if err != nil {
			return err
		}
		return nw.Reset(rp, midCfg)
	}, run})
	l.set("wormhole.replay_events_per_s", float64(res.Events)/median(v[0])*1e9, "1/s")

	// Hook cost on a shorter window, against the same run unhooked.
	obsCfg := midCfg
	obsCfg.Measure = 100000
	sink := obs.NewMemorySink()
	v = l.interleave(5, layerSensitivity,
		probe{"obs.run_plain", func() error { return reset(mid, obsCfg) }, run},
		probe{"obs.run_noop_hook", func() error {
			err := reset(mid, obsCfg)
			nw.Attach(noopHook{})
			return err
		}, run},
		probe{"obs.run_recorded", func() error {
			err := reset(mid, obsCfg)
			sink = obs.NewMemorySink()
			nw.Attach(obs.NewCollector(sink, 0))
			return err
		}, run})
	l.set("obs.noop_hook_pct", 100*(median(ratios(v[1], v[0]))-1), "%")
	l.set("obs.record_pct", 100*(median(ratios(v[2], v[0]))-1), "%")
	ns = l.timed("obs.aggregate", func() error {
		obs.Aggregate(sink.Records(), rt.Graph().NumChannels(), noc.DefaultMetricsBuckets, res.Time)
		return nil
	})
	l.set("obs.aggregate_us", ns/1e3, "us")

	// The parallel engine against the serial one on its own benchmark
	// point (mesh-8x8, as in noc/bench), with both vCPUs for this span.
	m, err := topology.NewMesh(8, 8)
	if err != nil {
		return err
	}
	mrt := routing.NewMeshRouter(m)
	mspec, mcfg := traffic.Spec{Rate: 0.0015}, wormhole.Config{MsgLen: 8, Warmup: 1000, Measure: 10000}
	mwl, err := traffic.NewWorkload(mrt, mspec, 1)
	if err != nil {
		return err
	}
	mnw, err := wormhole.New(mrt.Graph(), mwl, mcfg)
	if err != nil {
		return err
	}
	mreset := func() error {
		if err := mwl.Reset(mspec, 1); err != nil {
			return err
		}
		return mnw.Reset(mwl, mcfg)
	}
	runtime.GOMAXPROCS(2)
	v = l.interleave(3, rawTime,
		probe{"wormhole.mesh8_serial", mreset, func() error { mnw.Run(); return nil }},
		probe{"wormhole.mesh8_par2", mreset, func() error {
			if _, ok := mnw.RunParallel(2); !ok {
				return fmt.Errorf("parallel run aborted on an unsaturated workload")
			}
			return nil
		}})
	runtime.GOMAXPROCS(1)
	l.set("wormhole.par2_speedup", median(ratios(v[0], v[1])), "x")
	return nil
}

func (l *layers) statistics() error {
	buf := make([]float64, 4096)
	x := uint64(calibSeed)
	for i := range buf {
		x = splitmix64(x)
		buf[i] = 40 + float64(x>>40)/(1<<24)*200
	}
	const passes = 64
	ns := l.timed("stats.add", func() error {
		var run stats.Running
		hist := stats.NewHistogram(0, 400, 200)
		bm := stats.NewBatchMeans(256)
		for p := 0; p < passes; p++ {
			for _, v := range buf {
				run.Add(v)
				hist.Add(v)
				bm.Add(v)
			}
		}
		return nil
	})
	l.set("stats.add_ns", ns/float64(passes*len(buf)), "ns")
	return nil
}

// routing times a routed topology from nothing: graph, router, multicast
// set and the route tables traffic.NewWorkload derives from them.
func (l *layers) routing() error {
	ns := l.timed("routing.quarc64", func() error {
		q, err := topology.NewQuarc(64)
		if err != nil {
			return err
		}
		rt := routing.NewQuarcRouter(q)
		set, err := rt.LocalizedSet(topology.PortL, 8)
		if err != nil {
			return err
		}
		_, err = traffic.NewWorkload(rt, traffic.Spec{Rate: 0.001, MulticastFrac: 0.05, Set: set}, 1)
		return err
	})
	l.set("routing.quarc64_build_ms", ns/1e6, "ms")
	ns = l.timed("routing.mesh8", func() error {
		m, err := topology.NewMesh(8, 8)
		if err != nil {
			return err
		}
		_, err = traffic.NewWorkload(routing.NewMeshRouter(m), traffic.Spec{Rate: 0.001}, 1)
		return err
	})
	l.set("routing.mesh8_build_ms", ns/1e6, "ms")
	return nil
}

// coldDocs is one serve-cold operation's documents, parsed, each with its
// shape's base scenario.
type coldDocs struct {
	docs  [coldRequests][]byte
	specs [coldRequests]noc.Spec
	bases [coldRequests]*noc.Scenario
}

// newColdDocs parses the documents; byShape plays the service's
// base-scenario cache, compiling each shape once and keeping its routed
// topology (and with it the route tables) for later calls.
func newColdDocs(docs [coldRequests][]byte, byShape map[uint64]*noc.Scenario) (*coldDocs, error) {
	c := &coldDocs{docs: docs}
	for k, doc := range docs {
		sp, err := noc.ParseSpec(doc)
		if err != nil {
			return nil, err
		}
		c.specs[k] = sp
		fp := sp.Structural().Fingerprint()
		if byShape[fp] == nil {
			if byShape[fp], err = sp.Structural().Scenario(); err != nil {
				return nil, err
			}
		}
		c.bases[k] = byShape[fp]
	}
	return c, nil
}

// simulate does the evaluator's share of a cold request for every
// document: compile against the cached base, then one pooled evaluation.
// As in a service worker, a change of shape between consecutive documents
// rebuilds the pooled network.
func (c *coldDocs) simulate(pooled noc.Evaluator, results *[coldRequests]noc.Result) error {
	for k, sp := range c.specs {
		s, err := sp.ScenarioWith(c.bases[k])
		if err != nil {
			return err
		}
		if results[k], err = pooled.Evaluate(s); err != nil {
			return err
		}
	}
	return nil
}

// specCodec times the noc-level steps of a request, each averaged over
// the 32 documents of one serve-cold operation (all eight shapes), so
// that they subtract cleanly from the service probes below.
func (l *layers) specCodec() error {
	var docs [coldRequests][]byte
	for k := range docs {
		docs[k] = appendSpec(nil, defaultSeed, 0, k, coldMeasure)
	}
	c, err := newColdDocs(docs, make(map[uint64]*noc.Scenario))
	if err != nil {
		return err
	}
	// each times fn over all 32 documents, inner times per call, and
	// returns us per document.
	each := func(span string, inner int, fn func(k int) error) float64 {
		ns := l.timed(span, func() error {
			for n := 0; n < inner; n++ {
				for k := range docs {
					if err := fn(k); err != nil {
						return err
					}
				}
			}
			return nil
		})
		return ns / float64(inner*len(docs)) / 1e3
	}
	l.set("noc.parse_us", each("noc.parse", 20, func(k int) error {
		_, err := noc.ParseSpec(docs[k])
		return err
	}), "us")
	l.set("noc.canonical_us", each("noc.canonical", 20, func(k int) error {
		if err := c.specs[k].Validate(); err != nil {
			return err
		}
		_, err := c.specs[k].CanonicalJSON()
		return err
	}), "us")
	l.set("noc.fingerprint_us", each("noc.fingerprint", 20, func(k int) error {
		c.specs[k].Fingerprint()
		return nil
	}), "us")
	l.set("noc.compile_us", each("noc.compile", 1, func(k int) error {
		_, err := c.specs[k].Scenario()
		return err
	}), "us")
	l.set("noc.with_us", each("noc.with", 20, func(k int) error {
		_, err := c.specs[k].ScenarioWith(c.bases[k])
		return err
	}), "us")
	pooled := noc.NewPooledSimulator()
	var results [coldRequests]noc.Result
	ns := l.timed("noc.simulate", func() error { return c.simulate(pooled, &results) })
	l.set("noc.simulate_us", ns/coldRequests/1e3-l.get("noc.with_us"), "us")
	var buf bytes.Buffer
	var encoded [coldRequests][]byte
	l.set("noc.encode_us", each("noc.encode", 20, func(k int) error {
		buf.Reset()
		enc := json.NewEncoder(&buf)
		enc.SetEscapeHTML(false)
		err := enc.Encode(results[k])
		encoded[k] = append(encoded[k][:0], buf.Bytes()...)
		return err
	}), "us")
	l.set("noc.decode_us", each("noc.decode", 20, func(k int) error {
		var r noc.Result
		return json.Unmarshal(encoded[k], &r)
	}), "us")

	// The model on the sim-mid scenario.
	w := &simWorkload{measure: midMeasure}
	base, err := noc.NewScenario(w.simOptions()...)
	if err != nil {
		return err
	}
	sat, err := noc.SaturationRate(base)
	if err != nil {
		return err
	}
	s, err := base.With(noc.Rate(midFrac * sat))
	if err != nil {
		return err
	}
	ns = l.timed("core.solve", func() error {
		for n := 0; n < 10; n++ {
			if _, err := (noc.Model{}).Evaluate(s); err != nil {
				return err
			}
		}
		return nil
	})
	l.set("core.solve_us", ns/10/1e3, "us")
	return nil
}

// sweeps probes noc.Sweep's orchestration against its points evaluated
// singly, its two-worker speed-up, and the accuracy figure to state
// beside any speed-up: the sweep-fig panels' core-region error.
func (l *layers) sweeps() error {
	s, err := noc.NewScenario(noc.Quarc(16), noc.MsgLen(16), noc.Alpha(0.05), noc.LocalizedDests(noc.PortL, 4),
		noc.Warmup(1000), noc.Measure(20000), noc.Seed(3))
	if err != nil {
		return err
	}
	rates := []float64{0.001, 0.002, 0.003, 0.004, 0.005, 0.006, 0.007, 0.008}
	sims := []noc.Evaluator{noc.Simulator{}}
	sweep := func(workers int) func() error {
		return func() error {
			_, err := noc.Sweep(s, noc.SweepOptions{Rates: rates, Workers: workers, Evaluators: sims})
			return err
		}
	}
	pooled := noc.NewPooledSimulator()
	v := l.interleave(5, layerSensitivity,
		probe{span: "noc.sweep", fn: sweep(1)},
		probe{span: "noc.sweep_points", fn: func() error {
			for _, r := range rates {
				p, err := s.With(noc.Rate(r))
				if err != nil {
					return err
				}
				if _, err := pooled.Evaluate(p); err != nil {
					return err
				}
			}
			return nil
		}})
	l.set("noc.sweep_overhead_pct", 100*(median(ratios(v[0], v[1]))-1), "%")
	runtime.GOMAXPROCS(2)
	v = l.interleave(5, rawTime, probe{span: "noc.sweep_workers1", fn: sweep(1)}, probe{span: "noc.sweep_workers2", fn: sweep(2)})
	runtime.GOMAXPROCS(1)
	l.set("noc.sweep_par2_speedup", median(ratios(v[0], v[1])), "x")
	if l.err != nil {
		return l.err
	}

	fig := &sweepWorkload{}
	if err := fig.inputs(defaultSeed); err != nil {
		return err
	}
	if err := fig.setup(); err != nil {
		return err
	}
	if err := fig.op(0, l.tr, l.root); err != nil {
		return err
	}
	_, ag, err := figureErrors(fig.results[0])
	if err != nil {
		return err
	}
	var uni, mc float64
	for _, a := range ag {
		uni += 100 * a.Core.MeanUnicastErr / float64(len(ag))
		mc += 100 * a.Core.MeanMulticastErr / float64(len(ag))
	}
	l.set("noc.fig_err_uni_pct", uni, "%")
	l.set("noc.fig_err_mc_pct", mc, "%")
	return nil
}

// inProcess is an http.RoundTripper that serves requests from a handler
// without a socket: the fleet probe's peer.
type inProcess struct{ h http.Handler }

func (p inProcess) RoundTrip(r *http.Request) (*http.Response, error) {
	rec := httptest.NewRecorder()
	p.h.ServeHTTP(rec, r)
	return rec.Result(), nil
}

// serving probes the evaluator and its handler on the serve-* request
// mix, then the two layers no workload times by design: the fsync-bound
// store and the fleet hop.
func (l *layers) serving(scratch string) error {
	ctx := context.Background()
	ev := service.New(service.Config{Workers: 1, CacheEntries: coldCacheSlots})
	defer ev.Close()
	c, err := newClient(service.NewHandler(ev))
	if err != nil {
		return err
	}

	// A cold operation through the handler, then the very same documents
	// compiled and simulated outside any service: the difference, less
	// the codec steps, is what the service adds (queue hand-off,
	// singleflight, base-scenario lookup, LRU write and eviction). It is
	// a few per cent of either side, hence the extra rounds.
	cold := &serveCold{seed: defaultSeed, ev: ev, c: c}
	op := -(1 << 20) // document streams no workload run uses
	var before service.Stats
	var docs *coldDocs
	pooled := noc.NewPooledSimulator()
	byShape := make(map[uint64]*noc.Scenario)
	var results [coldRequests]noc.Result
	v := l.interleave(15, layerSensitivity,
		probe{"service.cold", func() error {
			op--
			cold.prepare(op)
			before = ev.Stats()
			return nil
		}, func() error { return cold.op(op, l.tr, l.root) }},
		probe{"service.cold_direct", func() (err error) {
			docs, err = newColdDocs(cold.docs, byShape)
			return err
		}, func() error { return docs.simulate(pooled, &results) }})
	l.set("service.cold_us", median(v[0])/coldRequests/1e3, "us")
	l.set("service.evictions_per_op", float64(ev.Stats().Evictions-before.Evictions), "count")
	l.set("service.flight_us", median(diffs(v[0], v[1]))/coldRequests/1e3-
		l.get("noc.parse_us")-l.get("noc.canonical_us")-l.get("noc.encode_us"), "us")
	if l.err != nil {
		return l.err
	}

	// The documents of the last cold operation are cached now.
	const inner = 20
	hit := func() error {
		for n := 0; n < inner; n++ {
			for _, sp := range docs.specs {
				if _, src, err := ev.Evaluate(ctx, sp); err != nil || src != service.SourceCache {
					return fmt.Errorf("source %q: %v", src, err)
				}
			}
		}
		return nil
	}
	l.set("service.hit_us", l.timed("service.hit", hit)/inner/coldRequests/1e3, "us")
	l.set("service.hit_allocs", mallocs(func() { _ = hit() })/inner/coldRequests, "count")
	httpHit := l.timed("service.http_hit", func() error {
		for n := 0; n < inner; n++ {
			for _, doc := range docs.docs {
				if err := c.post(doc, service.SourceCache); err != nil {
					return err
				}
			}
		}
		return nil
	}) / inner / coldRequests / 1e3
	l.set("service.http_hit_us", httpHit, "us")
	l.set("service.http_self_us", httpHit-l.get("noc.parse_us")-l.get("service.hit_us")-l.get("noc.encode_us"), "us")

	// The store, on disk inside the checkout.
	dir := filepath.Join(scratch, fmt.Sprintf("store-%d", os.Getpid()))
	defer os.RemoveAll(dir)
	st, err := store.Open(store.Config{Dir: dir})
	if err != nil {
		return err
	}
	puts := 0
	v = l.interleave(5, rawTime,
		probe{span: "store.put", fn: func() error {
			puts++
			return st.Put(fmt.Sprintf("probe-%d", puts), results[0])
		}},
		probe{span: "store.get", fn: func() error {
			if _, ok := st.Get(fmt.Sprintf("probe-%d", puts)); !ok {
				return fmt.Errorf("stored entry %d not found", puts)
			}
			return nil
		}})
	l.set("store.put_us", median(v[0])/1e3, "us")
	l.set("store.get_us", median(v[1])/1e3, "us")

	// One fleet hop to an in-process peer that has the result cached.
	local := service.New(service.Config{Workers: 1})
	defer local.Close()
	d, err := fleet.New(fleet.Config{
		Peers:  []string{"http://peer"},
		Local:  local,
		Client: &http.Client{Transport: inProcess{service.NewHandler(ev)}},
	})
	if err != nil {
		return err
	}
	v = l.interleave(5, rawTime, probe{span: "fleet.hop", fn: func() error {
		for _, sp := range docs.specs {
			if _, src, err := d.Evaluate(ctx, sp); err != nil || src != service.SourceFleet {
				return fmt.Errorf("source %q: %v", src, err)
			}
		}
		return nil
	}})
	l.set("fleet.hop_us", median(v[0])/coldRequests/1e3-l.get("service.hit_us"), "us")
	return nil
}
