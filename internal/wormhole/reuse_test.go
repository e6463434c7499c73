package wormhole

import (
	"math"
	"runtime"
	"testing"

	"quarc/internal/routing"
	"quarc/internal/topology"
	"quarc/internal/traffic"
)

// oneAt injects exactly one unicast at a chosen absolute time.
type oneAt struct {
	node     topology.NodeID
	at       float64
	branches []routing.Branch
	fired    bool
}

func (s *oneAt) Interarrival(node topology.NodeID) float64 {
	if node == s.node && !s.fired {
		return s.at
	}
	return math.Inf(1)
}

func (s *oneAt) Next(node topology.NodeID) ([]routing.Branch, bool) {
	s.fired = true
	return s.branches, false
}

// TestWindowBoundaryGrantExcluded pins the half-open measurement window
// [measureStart, windowEnd): generation accounting and busySpan share one
// boundary convention, so a message generated exactly at windowEnd counts
// nowhere and a grant at windowEnd adds no occupancy.
func TestWindowBoundaryGrantExcluded(t *testing.T) {
	rt := quarcRouter(t, 16)
	path, err := rt.AppendUnicastPath(nil, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{MsgLen: 8, Warmup: 10, Measure: 90} // windowEnd = 100

	run := func(at float64) Result {
		src := &oneAt{node: 0, at: at,
			branches: []routing.Branch{{Path: path, Targets: []topology.NodeID{2}}}}
		nw, err := New(rt.Graph(), src, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return nw.Run()
	}

	// Generated exactly at windowEnd: outside the half-open window. The
	// injection grant at t=100 adds no occupancy.
	out := run(100)
	if out.Generated != 0 {
		t.Errorf("message generated at windowEnd counted: Generated = %d, want 0", out.Generated)
	}
	if out.MaxUtil != 0 {
		t.Errorf("a grant at t=windowEnd adds occupancy: MaxUtil = %v, want 0", out.MaxUtil)
	}

	// Generated one cycle earlier: inside the window. The injection
	// channel, granted at t=99, is held for the one remaining cycle of the
	// 90-cycle window; the next hop's grant at t=100 adds nothing.
	in := run(99)
	if in.Generated != 1 {
		t.Errorf("message generated inside the window: Generated = %d, want 1", in.Generated)
	}
	if want := 1.0 / 90; in.MaxUtil != want {
		t.Errorf("MaxUtil = %v, want exactly %v (occupancy clipped at windowEnd)", in.MaxUtil, want)
	}
}

// TestWindowBoundaryGenerationAtWarmupIncluded pins the opening edge of
// the half-open window: a message generated exactly at t=Warmup belongs
// to [Warmup, Warmup+Measure) and must be measured.
func TestWindowBoundaryGenerationAtWarmupIncluded(t *testing.T) {
	rt := quarcRouter(t, 16)
	path, err := rt.AppendUnicastPath(nil, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	src := &oneAt{node: 0, at: 10, // exactly the warmup horizon
		branches: []routing.Branch{{Path: path, Targets: []topology.NodeID{2}}}}
	nw, err := New(rt.Graph(), src, Config{MsgLen: 8, Warmup: 10, Measure: 90})
	if err != nil {
		t.Fatal(err)
	}
	res := nw.Run()
	if res.Generated != 1 || res.Completed != 1 {
		t.Errorf("message generated exactly at Warmup: generated/completed = %d/%d, want 1/1",
			res.Generated, res.Completed)
	}
}

// TestMeasurementWindowStartsAtWarmup is the wormhole-level regression for
// the engine horizon bug: with sparse traffic whose events all lie beyond
// the warmup horizon, measurement used to start at the last warmup-phase
// event (or at 0) instead of at Warmup, silently stretching the window.
func TestMeasurementWindowStartsAtWarmup(t *testing.T) {
	rt := quarcRouter(t, 16)
	path, err := rt.AppendUnicastPath(nil, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	// One message at t=2000, far beyond Warmup=1000: no event fires inside
	// the warmup phase at all.
	src := &oneAt{node: 0, at: 2000,
		branches: []routing.Branch{{Path: path, Targets: []topology.NodeID{2}}}}
	nw, err := New(rt.Graph(), src, Config{MsgLen: 8, Warmup: 1000, Measure: 2000})
	if err != nil {
		t.Fatal(err)
	}
	res := nw.Run()
	if res.Completed != 1 {
		t.Fatalf("Completed = %d, want 1", res.Completed)
	}
	// The injection channel is held for exactly msgLen = 8 cycles (granted
	// at t, released at te+msgLen-(len-1) = t+msgLen). With the window
	// starting exactly at Warmup its length is exactly Measure and the
	// utilization exactly 8/2000; with the old bug the window was [0,
	// 3000) and the figure came out 8/3000.
	if want := 8.0 / 2000.0; res.MaxUtil != want {
		t.Errorf("peak channel utilization = %v, want exactly %v (window must be [Warmup, Warmup+Measure))", res.MaxUtil, want)
	}
}

func freshRun(t *testing.T, rt routing.Router, spec traffic.Spec, seed uint64, cfg Config) Result {
	t.Helper()
	w, err := traffic.NewWorkload(rt, spec, seed)
	if err != nil {
		t.Fatal(err)
	}
	nw, err := New(rt.Graph(), w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return nw.Run()
}

func sameResult(t *testing.T, label string, got, want Result) {
	t.Helper()
	if got.Unicast != want.Unicast {
		t.Errorf("%s: unicast stats %+v != %+v", label, got.Unicast, want.Unicast)
	}
	if got.Multicast != want.Multicast {
		t.Errorf("%s: multicast stats %+v != %+v", label, got.Multicast, want.Multicast)
	}
	ciG, ciW := got.UnicastBM.HalfWidth(1.96), want.UnicastBM.HalfWidth(1.96)
	if ciG != ciW && !(math.IsNaN(ciG) && math.IsNaN(ciW)) {
		t.Errorf("%s: unicast CI %v != %v", label, ciG, ciW)
	}
	if got.Generated != want.Generated || got.Completed != want.Completed {
		t.Errorf("%s: messages %d/%d != %d/%d", label,
			got.Completed, got.Generated, want.Completed, want.Generated)
	}
	if got.Events != want.Events {
		t.Errorf("%s: events %d != %d", label, got.Events, want.Events)
	}
	if got.Time != want.Time {
		t.Errorf("%s: end time %v != %v", label, got.Time, want.Time)
	}
	if got.MaxUtil != want.MaxUtil {
		t.Errorf("%s: max utilization %v != %v", label, got.MaxUtil, want.MaxUtil)
	}
	if got.Saturated != want.Saturated {
		t.Errorf("%s: saturated %v != %v", label, got.Saturated, want.Saturated)
	}
}

// TestResetReproducesFreshRun is the reuse property test: one Network
// driven through Reset across several workloads and configs must
// reproduce, bitwise, what a freshly constructed Network produces — on
// the paper's Quarc topology and on the mesh extension, and through
// ResetOn from one topology to the next.
func TestResetReproducesFreshRun(t *testing.T) {
	type point struct {
		seed   uint64
		rate   float64
		msgLen int
		drain  bool
	}
	points := []point{
		{seed: 1, rate: 0.002, msgLen: 32},
		{seed: 99, rate: 0.004, msgLen: 16},
		{seed: 7, rate: 0.003, msgLen: 32, drain: true},
		{seed: 1, rate: 0.002, msgLen: 32}, // exact repeat of the first point
	}

	t.Run("quarc-16", func(t *testing.T) {
		rt := quarcRouter(t, 16)
		set, err := rt.LocalizedSet(topology.PortL, 4)
		if err != nil {
			t.Fatal(err)
		}
		var reused *Network
		for i, p := range points {
			spec := traffic.Spec{Rate: p.rate, MulticastFrac: 0.05, Set: set}
			cfg := Config{MsgLen: p.msgLen, Warmup: 1000, Measure: 10000, Drain: p.drain}
			want := freshRun(t, rt, spec, p.seed, cfg)
			w, err := traffic.NewWorkload(rt, spec, p.seed)
			if err != nil {
				t.Fatal(err)
			}
			if reused == nil {
				reused, err = New(rt.Graph(), w, cfg)
			} else {
				err = reused.Reset(w, cfg)
			}
			if err != nil {
				t.Fatal(err)
			}
			sameResult(t, fmtPoint("quarc", i, p.seed), reused.Run(), want)
		}
	})

	t.Run("mesh-4x4", func(t *testing.T) {
		m, err := topology.NewMesh(4, 4)
		if err != nil {
			t.Fatal(err)
		}
		rt := routing.NewMeshRouter(m)
		set, err := rt.HighLowSet([]int{1, 3}, []int{2})
		if err != nil {
			t.Fatal(err)
		}
		var reused *Network
		for i, p := range points {
			spec := traffic.Spec{Rate: p.rate, MulticastFrac: 0.05, Set: set}
			cfg := Config{MsgLen: p.msgLen, Warmup: 1000, Measure: 10000, Drain: p.drain}
			want := freshRun(t, rt, spec, p.seed, cfg)
			w, err := traffic.NewWorkload(rt, spec, p.seed)
			if err != nil {
				t.Fatal(err)
			}
			if reused == nil {
				reused, err = New(rt.Graph(), w, cfg)
			} else {
				err = reused.Reset(w, cfg)
			}
			if err != nil {
				t.Fatal(err)
			}
			sameResult(t, fmtPoint("mesh", i, p.seed), reused.Run(), want)
		}
	})

	t.Run("across-graphs", resetOnReproducesFreshRun)
}

// resetOnReproducesFreshRun is TestResetReproducesFreshRun's cross-graph
// half: one Network and one Workload rebound with ResetOn through
// quarc-16, mesh-4x4, quarc-32 and quarc-16 again — changing topology at
// the same node count, growing and shrinking — and back up to quarc-32,
// reproduce a fresh network's Result at every step, with drain,
// NoCoalesce, multicast priority and a saturated run among the
// configurations.
func resetOnReproducesFreshRun(t *testing.T) {
	m, err := topology.NewMesh(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	mrt := routing.NewMeshRouter(m)
	mset, err := mrt.HighLowSet([]int{1, 3}, []int{2})
	if err != nil {
		t.Fatal(err)
	}
	q16, q32 := quarcRouter(t, 16), quarcRouter(t, 32)
	set16, err := q16.LocalizedSet(topology.PortL, 4)
	if err != nil {
		t.Fatal(err)
	}
	set32, err := q32.LocalizedSet(topology.PortR, 6)
	if err != nil {
		t.Fatal(err)
	}
	steps := []struct {
		name string
		rt   routing.Router
		spec traffic.Spec
		seed uint64
		cfg  Config
	}{
		{"quarc-16", q16, traffic.Spec{Rate: 0.004, MulticastFrac: 0.05, Set: set16}, 1,
			Config{MsgLen: 32, Warmup: 1000, Measure: 10000}},
		{"mesh-4x4 drain", mrt, traffic.Spec{Rate: 0.006, MulticastFrac: 0.1, Set: mset}, 2,
			Config{MsgLen: 8, Warmup: 1000, Measure: 10000, Drain: true}},
		{"quarc-32 fine-grained", q32, traffic.Spec{Rate: 0.003, MulticastFrac: 0.1, Set: set32, Arrival: "bernoulli"}, 3,
			Config{MsgLen: 16, Warmup: 1000, Measure: 10000, NoCoalesce: true}},
		{"quarc-16 priority", q16, traffic.Spec{Rate: 0.005, MulticastFrac: 0.2, Set: set16}, 4,
			Config{MsgLen: 16, Warmup: 1000, Measure: 10000, MulticastPriority: true}},
		{"quarc-16 saturated", q16, traffic.Spec{Rate: 0.05, MulticastFrac: 0.05, Set: set16}, 5,
			Config{MsgLen: 32, Warmup: 1000, Measure: 10000, SatQueue: 200}},
		{"mesh-4x4 after saturation", mrt, traffic.Spec{Rate: 0.006, MulticastFrac: 0.1, Set: mset}, 2,
			Config{MsgLen: 8, Warmup: 1000, Measure: 10000, Drain: true}},
		{"quarc-32 regrown", q32, traffic.Spec{Rate: 0.003, MulticastFrac: 0.1, Set: set32}, 6,
			Config{MsgLen: 16, Warmup: 1000, Measure: 10000}},
	}
	var nw *Network
	var w *traffic.Workload
	for _, st := range steps {
		want := freshRun(t, st.rt, st.spec, st.seed, st.cfg)
		if want.Completed == 0 || want.Saturated != (st.cfg.SatQueue != 0) {
			t.Fatalf("%s: the fresh run completed %d messages, saturated %v: not the intended point", st.name, want.Completed, want.Saturated)
		}
		if nw == nil {
			if w, err = traffic.NewWorkload(st.rt, st.spec, st.seed); err != nil {
				t.Fatal(err)
			}
			nw, err = New(st.rt.Graph(), w, st.cfg)
		} else {
			if err := w.ResetOn(st.rt, st.spec, st.seed); err != nil {
				t.Fatal(err)
			}
			err = nw.ResetOn(st.rt.Graph(), w, st.cfg)
		}
		if err != nil {
			t.Fatal(err)
		}
		sameResult(t, st.name, nw.Run(), want)
	}
}

// flood injects one message per cycle at node 0 over a fixed path, far
// beyond what the path can carry: its injection queue grows until the
// run is declared saturated.
type flood struct{ branches []routing.Branch }

func (f *flood) Interarrival(node topology.NodeID) float64 {
	if node == 0 {
		return 1
	}
	return math.Inf(1)
}

func (f *flood) Next(topology.NodeID) ([]routing.Branch, bool) { return f.branches, false }

// ring is a synthetic unidirectional ring of n nodes: one injection, one
// ejection and one link per node, 3n channels.
func ring(n int) *topology.Graph {
	g := topology.NewGraph("ring", n, 1)
	for i := 0; i < n; i++ {
		g.AddInjection(topology.NodeID(i), 0)
		g.AddEjection(topology.NodeID(i), 0)
		g.AddLink(topology.NodeID(i), topology.NodeID((i+1)%n), 0, 0)
	}
	return g
}

// TestResetOnBoundsRetention pins the retention caps a rebound network
// applies on synthetic rings: a channel array beyond maxRetainedChannels
// is released when the next graph needs less, one within it is kept, and
// a wait queue a saturated run grew beyond maxRetainedQueue is released,
// while the rebound network still reproduces a fresh one.
func TestResetOnBoundsRetention(t *testing.T) {
	silent := &oneAt{node: 0, at: math.Inf(1)}
	cfg := Config{MsgLen: 32, Warmup: 0, Measure: 5000}
	small := ring(4)
	path := routing.Path{small.Injection(0, 0), small.LinkFrom(0, 0, 0), small.Ejection(1, 0)}
	src := &flood{branches: []routing.Branch{{Path: path, Targets: []topology.NodeID{1}}}}

	wide := ring(maxRetainedChannels) // 3 * maxRetainedChannels channels
	nw, err := New(wide, silent, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := nw.ResetOn(small, src, cfg); err != nil {
		t.Fatal(err)
	}
	if c := cap(nw.channels); c > maxRetainedChannels {
		t.Errorf("rebound from %d channels onto %d, the network keeps %d: want at most %d",
			wide.NumChannels(), small.NumChannels(), c, maxRetainedChannels)
	}

	within := ring(maxRetainedChannels / 3)
	if err := nw.ResetOn(within, silent, cfg); err != nil {
		t.Fatal(err)
	}
	kept := &nw.channels[0]
	if err := nw.ResetOn(small, src, cfg); err != nil {
		t.Fatal(err)
	}
	if &nw.channels[0] != kept {
		t.Errorf("rebound from %d channels onto %d, the network reallocated an array within the %d-channel cap",
			within.NumChannels(), small.NumChannels(), maxRetainedChannels)
	}

	fresh, err := New(small, &flood{branches: src.branches}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := fresh.Run()
	got := nw.Run()
	if !got.Saturated {
		t.Fatal("the flood did not saturate")
	}
	sameResult(t, "flood after rebinding", got, want)
	inj := small.Injection(0, 0)
	if q := cap(nw.channels[inj].queue); q <= maxRetainedQueue {
		t.Fatalf("the saturated run grew the injection queue to %d, want more than %d", q, maxRetainedQueue)
	}
	if err := nw.ResetOn(small, src, cfg); err != nil {
		t.Fatal(err)
	}
	for i := range nw.channels {
		if q := cap(nw.channels[i].queue); q > maxRetainedQueue {
			t.Errorf("channel %d keeps a %d-worm queue across ResetOn, want at most %d", i, q, maxRetainedQueue)
		}
	}
	sameResult(t, "flood after the queue was released", nw.Run(), want)
}

func fmtPoint(topo string, i int, seed uint64) string {
	return topo + " point " + string(rune('0'+i)) + " seed " + string(rune('0'+seed%10))
}

// TestSteadyStateEventLoopAllocFree pins the tentpole: once the pools,
// wait queues and the event heap are warm, the event loop (generation,
// routing, arbitration, release, completion) runs without allocating.
func TestSteadyStateEventLoopAllocFree(t *testing.T) {
	rt := quarcRouter(t, 16)
	set, err := rt.LocalizedSet(topology.PortL, 4)
	if err != nil {
		t.Fatal(err)
	}
	w, err := traffic.NewWorkload(rt, traffic.Spec{Rate: 0.004, MulticastFrac: 0.05, Set: set}, 7)
	if err != nil {
		t.Fatal(err)
	}
	// A huge warmup keeps the run in the pre-measurement phase: the loop
	// under test is the pure event machinery, not the (rarely allocating)
	// batch-means statistics.
	nw, err := New(rt.Graph(), w, Config{MsgLen: 32, Warmup: 1e9, Measure: 1})
	if err != nil {
		t.Fatal(err)
	}
	for node := 0; node < rt.Graph().Nodes(); node++ {
		nw.scheduleGeneration(topology.NodeID(node), 0)
	}
	nw.eng.Run(5000) // warm the pools, the wait queues and the event heap
	now := nw.eng.Now()
	avg := testing.AllocsPerRun(50, func() {
		now += 100
		nw.eng.Run(now)
	})
	if avg != 0 {
		t.Fatalf("steady-state event loop allocates %v allocs per 100 simulated cycles, want 0", avg)
	}
	if nw.eng.Fired() == 0 {
		t.Fatal("no events fired — the alloc measurement was vacuous")
	}
}

// TestSteadyStateAllocFreeAllArrivals extends the alloc-free pin across
// the arrival-process registry: whichever process paces injection
// (bursty, periodic, discrete), the warm event loop must not allocate.
func TestSteadyStateAllocFreeAllArrivals(t *testing.T) {
	rt := quarcRouter(t, 16)
	set, err := rt.LocalizedSet(topology.PortL, 4)
	if err != nil {
		t.Fatal(err)
	}
	specs := []traffic.Spec{
		{Rate: 0.004, MulticastFrac: 0.05, Set: set, Arrival: "bernoulli"},
		{Rate: 0.004, MulticastFrac: 0.05, Set: set, Arrival: "onoff", BurstLen: 8, DutyCycle: 0.25},
		{Rate: 0.004, MulticastFrac: 0.05, Set: set, Arrival: "periodic"},
	}
	for _, spec := range specs {
		w, err := traffic.NewWorkload(rt, spec, 7)
		if err != nil {
			t.Fatalf("%s: %v", spec.Arrival, err)
		}
		nw, err := New(rt.Graph(), w, Config{MsgLen: 32, Warmup: 1e9, Measure: 1})
		if err != nil {
			t.Fatal(err)
		}
		for node := 0; node < rt.Graph().Nodes(); node++ {
			nw.scheduleGeneration(topology.NodeID(node), 0)
		}
		nw.eng.Run(5000) // warm the pools, the wait queues and the event heap
		now := nw.eng.Now()
		avg := testing.AllocsPerRun(50, func() {
			now += 100
			nw.eng.Run(now)
		})
		if avg != 0 {
			t.Errorf("%s: steady-state event loop allocates %v allocs per 100 cycles, want 0", spec.Arrival, avg)
		}
		if nw.eng.Fired() == 0 {
			t.Errorf("%s: no events fired — the alloc measurement was vacuous", spec.Arrival)
		}
	}
}

// TestPooledReuseAllocBound pins the path a pooled simulator takes per
// point — Workload.Reset, Network.Reset, Run — on the mid-load quarc-16
// configuration: 5 allocations at the time of writing (the run's result
// and statistics; 9 before Reset reclaimed the worms and messages in
// flight at the previous run's horizon), against 159 for a fresh network.
// The ceiling leaves the reuse path a little room, not a rebuild.
func TestPooledReuseAllocBound(t *testing.T) {
	rt := quarcRouter(t, 16)
	set, err := rt.LocalizedSet(topology.PortL, 4)
	if err != nil {
		t.Fatal(err)
	}
	spec := traffic.Spec{Rate: 0.004, MulticastFrac: 0.05, Set: set}
	cfg := Config{MsgLen: 32, Warmup: 1000, Measure: 10000}
	w, err := traffic.NewWorkload(rt, spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	nw, err := New(rt.Graph(), w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	nw.Run() // warm the pools, the wait queues and the event heap
	var completed int64
	avg := testing.AllocsPerRun(20, func() {
		if err := w.Reset(spec, 1); err != nil {
			t.Fatal(err)
		}
		if err := nw.Reset(w, cfg); err != nil {
			t.Fatal(err)
		}
		completed += nw.Run().Completed
	})
	if avg > 8 {
		t.Errorf("a pooled reset + run allocates %v times, want at most 8", avg)
	}
	if completed == 0 {
		t.Fatal("nothing completed — the alloc measurement was vacuous")
	}
}

// TestPooledGeometryForgetsPriming pins ROADMAP 3(a) at the network: the
// benchmark's sim-mid scenario (quarc-64, 40 % of saturation) run through
// Reset on networks primed four different ways — another seed, a light
// load, the knee, a saturated run with another message length — ends on
// the scheduler state a fresh network ends on, so a pooled simulator's
// speed is a function of the scenario it runs and not of its history.
// The state is the fixed-delay lanes and the timer slots: the lanes'
// delays, the slot count and the events each served. The 16-flit
// priming must leave the 32-flit run draining through a 32-cycle lane —
// a stale 16-cycle one would be correct but slow, so nothing else would
// notice.
func TestPooledGeometryForgetsPriming(t *testing.T) {
	rt := quarcRouter(t, 64)
	set, err := rt.LocalizedSet(topology.PortL, 8)
	if err != nil {
		t.Fatal(err)
	}
	mid := traffic.Spec{Rate: 0.00068, MulticastFrac: 0.05, Set: set}
	cfg := Config{MsgLen: 32, Warmup: 2000, Measure: 200000}
	type geometry struct {
		delays [2]float64
		served [2]uint64
		slots  int
		timed  uint64
	}
	read := func(nw *Network) geometry {
		d, s := nw.eng.Lanes()
		n, timed := nw.eng.Timers()
		return geometry{d, s, n, timed}
	}
	w, err := traffic.NewWorkload(rt, mid, 9)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := New(rt.Graph(), w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	start := read(fresh) // the declared lanes: a function of the message length
	fresh.Run()
	want := read(fresh)
	if want.delays != [2]float64{1, 32} || want.served[1] == 0 || want.slots != 64 || want.timed == 0 {
		t.Fatalf("the reference run has lanes %v serving %v and %d slots serving %d: want 1 and 32, the drain lane in use, and a slot per node in use",
			want.delays, want.served, want.slots, want.timed)
	}

	for i, prime := range []struct {
		rate   float64
		msgLen int
	}{{0.00068, 32}, {0.0001, 32}, {0.00145, 32}, {0.02, 16}} {
		pw, err := traffic.NewWorkload(rt, traffic.Spec{Rate: prime.rate, MulticastFrac: 0.05, Set: set}, uint64(i+1))
		if err != nil {
			t.Fatal(err)
		}
		nw, err := New(rt.Graph(), pw, Config{MsgLen: prime.msgLen, Warmup: 2000, Measure: 60000})
		if err != nil {
			t.Fatal(err)
		}
		nw.Run()
		primed := read(nw)
		if err := w.Reset(mid, 9); err != nil {
			t.Fatal(err)
		}
		if err := nw.Reset(w, cfg); err != nil {
			t.Fatal(err)
		}
		if got := read(nw); got != start {
			t.Errorf("priming %d: Reset leaves %+v, a fresh network starts at %+v (the lanes or slots were not re-declared)", i, got, start)
		}
		nw.Run()
		if got := read(nw); got != want {
			t.Errorf("priming %d (rate %v, %d flits, left at %+v): %+v after Reset and the sim-mid run, a fresh network ends at %+v",
				i, prime.rate, prime.msgLen, primed, got, want)
		}
	}
}

// TestResetReclaimsInFlight pins the leak fix: worms and messages that
// were in flight when a run stopped — held only by events and wait queues
// that Reset discards — return to the pools, so a pooled network neither
// re-allocates them nor grows its tables, and still reproduces a fresh
// network bitwise. Each cycle stops a saturating run mid-flight with far
// more than one slab of worms queued, then runs the mid-load point.
func TestResetReclaimsInFlight(t *testing.T) {
	rt := quarcRouter(t, 16)
	set, err := rt.LocalizedSet(topology.PortL, 4)
	if err != nil {
		t.Fatal(err)
	}
	mid := traffic.Spec{Rate: 0.004, MulticastFrac: 0.05, Set: set}
	sat := traffic.Spec{Rate: 0.05, MulticastFrac: 0.05, Set: set}
	cfg := Config{MsgLen: 32, Warmup: 1000, Measure: 10000, SatQueue: 200}
	want := freshRun(t, rt, mid, 1, cfg)

	w, err := traffic.NewWorkload(rt, sat, 2)
	if err != nil {
		t.Fatal(err)
	}
	nw, err := New(rt.Graph(), w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var worms, msgs int
	for cycle := 0; cycle < 10; cycle++ {
		if !nw.Run().Saturated {
			t.Fatal("the priming run did not saturate")
		}
		if inFlight := len(nw.worms) - len(nw.wormPool); inFlight <= slabSize {
			t.Fatalf("cycle %d: only %d worms in flight at the stop, want more than a slab", cycle, inFlight)
		}
		if cycle == 0 {
			worms, msgs = len(nw.worms), len(nw.msgs)
		} else if len(nw.worms) != worms || len(nw.msgs) != msgs {
			t.Fatalf("cycle %d: tables grew to %d worms and %d messages from %d and %d: Reset leaked the in-flight ones",
				cycle, len(nw.worms), len(nw.msgs), worms, msgs)
		}

		if err := w.Reset(mid, 1); err != nil {
			t.Fatal(err)
		}
		if err := nw.Reset(w, cfg); err != nil {
			t.Fatal(err)
		}
		if len(nw.wormPool) != len(nw.worms) || len(nw.msgPool) != len(nw.msgs) {
			t.Fatalf("cycle %d: Reset pooled %d of %d worms and %d of %d messages", cycle,
				len(nw.wormPool), len(nw.worms), len(nw.msgPool), len(nw.msgs))
		}
		for _, wm := range nw.worms {
			if wm.msg != nil || wm.path != nil {
				t.Fatalf("cycle %d: pooled worm %d still references its message or path", cycle, wm.id)
			}
		}
		sameResult(t, fmtPoint("reclaimed", cycle, 1), nw.Run(), want)

		if err := w.Reset(sat, 2); err != nil {
			t.Fatal(err)
		}
		if err := nw.Reset(w, cfg); err != nil {
			t.Fatal(err)
		}
	}

	// A run that saturates with the default backlog limit leaves more
	// objects than a network may retain: Reset lets them go, and the next
	// run still matches a fresh network.
	deep := cfg
	deep.SatQueue, deep.Measure = 0, 60000
	if err := nw.Reset(w, deep); err != nil {
		t.Fatal(err)
	}
	nw.Run()
	if len(nw.worms) <= maxRetainedObjects {
		t.Fatalf("the deep saturating run allocated %d worms, want more than %d", len(nw.worms), maxRetainedObjects)
	}
	if err := w.Reset(mid, 1); err != nil {
		t.Fatal(err)
	}
	if err := nw.Reset(w, cfg); err != nil {
		t.Fatal(err)
	}
	if len(nw.worms) != 0 || len(nw.wormPool) != 0 || len(nw.msgs) != 0 || len(nw.msgPool) != 0 {
		t.Fatalf("Reset retained %d worms and %d messages beyond the cap", len(nw.worms), len(nw.msgs))
	}
	sameResult(t, "after the cap released the tables", nw.Run(), want)
}

// TestLongWindowHoldsNoSamples pins the streamed canonical fold: a long
// measurement window (about 80 000 completions) leaves the tie-group
// buffer at the size of the largest group of completions sharing one
// instant, and a run ten times longer allocates no more than the
// batch-means estimators' growth. A reset network still reproduces a
// fresh one afterwards.
func TestLongWindowHoldsNoSamples(t *testing.T) {
	rt := quarcRouter(t, 16)
	set, err := rt.LocalizedSet(topology.PortL, 4)
	if err != nil {
		t.Fatal(err)
	}
	long := traffic.Spec{Rate: 0.005, MulticastFrac: 0.05, Set: set}
	cfg := func(measure float64) Config { return Config{MsgLen: 16, Warmup: 1000, Measure: measure} }
	w, err := traffic.NewWorkload(rt, long, 3)
	if err != nil {
		t.Fatal(err)
	}
	nw, err := New(rt.Graph(), w, cfg(1e6))
	if err != nil {
		t.Fatal(err)
	}
	if res := nw.Run(); res.Saturated || res.Completed < 50000 {
		t.Fatalf("the long run measured %d completions (saturated %v), want at least 50000 unsaturated",
			res.Completed, res.Saturated)
	}
	if c := cap(nw.samples); c > 16 {
		t.Errorf("a long run left a %d-sample buffer, want at most 16 (one tie group)", c)
	}

	// Pools, queues and the event storage are warm now: what a rerun
	// allocates is its Result and estimators, and only the batch-means
	// slices grow with the window.
	allocated := func(measure float64) uint64 {
		if err := w.Reset(long, 3); err != nil {
			t.Fatal(err)
		}
		if err := nw.Reset(w, cfg(measure)); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		nw.Run()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	short, full := allocated(1e5), allocated(1e6)
	if full > short && full-short >= 64<<10 {
		t.Errorf("a 1e6-cycle run allocates %d B against a 1e5-cycle run's %d B, want less than 64 KiB more", full, short)
	}

	mid := traffic.Spec{Rate: 0.004, MulticastFrac: 0.05, Set: set}
	midCfg := Config{MsgLen: 32, Warmup: 1000, Measure: 10000}
	if err := w.Reset(mid, 1); err != nil {
		t.Fatal(err)
	}
	if err := nw.Reset(w, midCfg); err != nil {
		t.Fatal(err)
	}
	sameResult(t, "after a long run", nw.Run(), freshRun(t, rt, mid, 1, midCfg))
}
