// Package wormhole is a discrete-event simulator of wormhole-switched
// direct networks. It replaces the OMNET++ flit-level simulator the paper
// used for validation.
//
// # Fidelity
//
// The simulator works at worm granularity but is event-equivalent to a
// flit-level simulation of wormhole switching with single-flit channel
// buffers and non-preemptive FIFO arbitration:
//
//   - A worm's header acquires the channels of its path one by one; a busy
//     channel queues the worm FIFO, exactly like the paper's router that
//     records blocked messages and serves them in FIFO order when the
//     resource is released.
//   - All flits of a worm advance in lock-step with the header, so the
//     tail vacates the channel at path index j-msgLen+1 in the same cycle
//     the header is granted index j (worms stretched over short messages),
//     and once the header is granted the ejection channel at time te the
//     remaining flits drain at one per cycle: the channel k positions
//     before the ejection is released at te + msgLen − k. Because the
//     whole message is buffered at the source, these release times are
//     exact for any message length (see Network.grant).
//
// Multicast streams follow the Quarc absorb-and-forward semantics: one
// independent worm per branch (no synchronization between branches),
// intermediate targets clone the flits at the ingress multiplexer without
// extra arbitration, and the branch terminates at its last target. The
// multicast message latency is the absorption time of the last flit at the
// last destination over all branches, matching the paper's definition.
//
// The network computes a Result and nothing else: every other observation
// (traces, latency breakdowns, metrics, workload recording) is a Hook
// subscriber attached with Network.Attach.
package wormhole

import (
	"fmt"
	"math"
	"slices"

	"quarc/internal/routing"
	"quarc/internal/sim"
	"quarc/internal/stats"
	"quarc/internal/topology"
)

// Traffic supplies the workload: interarrival gaps and message routes.
// Implementations own their RNG so runs are reproducible for a fixed seed.
type Traffic interface {
	// Interarrival returns the gap (in cycles) until node generates its
	// next message. Returning +Inf disables generation at the node.
	Interarrival(node topology.NodeID) float64
	// Next returns the branches of the next message generated at node and
	// whether the message is a multicast. A unicast is a single branch
	// whose only target is its destination.
	Next(node topology.NodeID) ([]routing.Branch, bool)
}

// Observer is the legacy injection-observation interface: Injected is
// called once per message the network actually injects, with the
// simulated injection time. Draws that never materialize (the horizon
// or a saturation stop intervened) get no call, so observers see ground
// truth rather than the RNG stream — the workload trace recorder uses
// this to stamp absolute injection times into its records. It is now a
// thin adapter over the hook API: wrap with ObserverHook and register
// with Network.Attach at HookWormInjected. (The network no longer
// resolves it implicitly out of the traffic source.)
type Observer interface {
	Injected(node topology.NodeID, t float64, multicast bool)
}

// Config controls a simulation run.
type Config struct {
	// MsgLen is the message length in flits (at least 2). The paper
	// assumes messages longer than the network diameter; the simulator
	// also handles shorter worms exactly.
	MsgLen int
	// Warmup is the number of cycles simulated before statistics are
	// collected.
	Warmup float64
	// Measure is the number of cycles in the measurement window.
	Measure float64
	// SatQueue is the per-injection-channel backlog at which the run is
	// declared saturated and stopped early (default 1000).
	SatQueue int
	// Drain lets messages generated inside the measurement window finish
	// after the window closes (generation stops, the network empties, up
	// to one extra window of simulated time). This removes the censoring
	// bias against long-latency messages near the window end.
	Drain bool
	// MulticastPriority changes channel arbitration from pure FIFO to
	// multicast-first: when a channel is released, waiting multicast
	// worms are granted before unicast worms (FIFO within each class).
	// This reproduces the priority-on-arbitration idea of
	// connection-oriented NoC multicast (the paper's reference [4]); the
	// paper's own validation uses pure FIFO, the default.
	MulticastPriority bool
	// NoCoalesce disables worm-level event coalescing (span drains, fused
	// advances and header flights), forcing one event per flit-step as in
	// the pre-coalescing simulator. Coalescing is semantically exact (see
	// DESIGN.md §10), so this knob exists for differential tests and
	// performance comparisons, not for fidelity.
	NoCoalesce bool
}

// Result summarizes a run.
type Result struct {
	// Unicast and Multicast hold the latency estimators over messages
	// that completed inside the measurement window.
	Unicast   stats.Running
	Multicast stats.Running
	// UnicastBM and MulticastBM provide batch-means confidence intervals.
	UnicastBM   *stats.BatchMeans
	MulticastBM *stats.BatchMeans
	// Generated and Completed count messages in the measurement window.
	Generated int64
	Completed int64
	// Saturated is set when an injection backlog exceeded Config.SatQueue
	// or fewer than 90% of generated messages completed.
	Saturated bool
	// Time is the simulated time at the end of the run.
	Time float64
	// Events is the number of flit-level-equivalent discrete events: a
	// coalesced span event (see DESIGN.md §10) counts once per micro-event
	// it absorbs, so the figure is identical with coalescing on or off
	// and stays comparable across the EXPERIMENTS.md tables.
	Events uint64
	// MaxUtil is the highest channel utilization observed during the
	// measurement window.
	MaxUtil float64
}

type channel struct {
	holder    *worm
	queue     []*worm
	grantTime float64
	busy      float64
	// spanRelease and spanSeq are the precomputed logical release time of
	// the channel and the reserved event sequence number of that release
	// while the holder is in span (coalesced-drain) mode; meaningful only
	// when holder != nil && holder.spanning.
	spanRelease float64
	spanSeq     uint64
}

type message struct {
	// id is the observable message number hooks report (the nextMsgID
	// count of the run); idx is the message's fixed position in
	// Network.msgs, which events address it by.
	id        int64
	idx       int32
	gen       float64
	multicast bool
	pending   int32
	lastDone  float64
	measured  bool
	// src is the injecting node, kept for the canonical sample fold's
	// tie-break key (see addSample).
	src topology.NodeID
}

// latSample is one measured message completion. Latency estimators are
// folded in the canonical (completion, generation, source) order rather
// than in event order: the two differ only where completion times tie
// exactly — which blocking makes routine, since a worm granted at its
// blocker's release inherits the blocker's time base — and the canonical
// order is the pinned order of every golden: folding in event order
// instead would move the low bits of every recorded estimate.
type latSample struct {
	t, gen    float64
	msg       int64 // the message id HookSampleFolded reports
	src       topology.NodeID
	multicast bool
}

type worm struct {
	// id is the worm's fixed position in Network.worms: events carry it in
	// sim.Event.Ref instead of a pointer. It survives re-initialisation.
	id     int32
	msg    *message
	branch int
	path   routing.Path
	hop    int // index of the next channel to acquire
	// held counts the channels the worm currently occupies and done marks
	// that its ejection grant happened; when done && held == 0 no event or
	// queue references the worm and it returns to the pool.
	held int
	done bool
	// spanning marks a worm draining in coalesced span mode: its remaining
	// channel releases are deferred to their precomputed times (each
	// channel's spanRelease) and applied lazily, by one evSpanDone event,
	// or by a materialized evRelease when contention de-coalesces a
	// channel. A spanning worm is referenced by its pending evSpanDone and
	// must not return to the pool before that event fires.
	spanning bool
	// fresh marks a worm whose header runs on its own message's time base:
	// the message has one branch, arrivals are continuous, no hook is
	// attached and the worm was never granted from a queue. Only a fresh
	// worm flies (see fly).
	fresh bool
	// flight numbers the worm's latest header flight and flightEnd is the
	// time of that flight's evFlight event, which carries the number: a cut
	// replaces the pending event by a new one, and the replaced one is
	// recognised by its stale number when it fires.
	flight    int32
	flightEnd float64
}

// Typed event kinds dispatched by Network.Handle. Keeping the hot path on
// typed events (instead of one closure per event) is what makes the
// steady-state event loop allocation-free.
const (
	evGenerate sim.Kind = iota + 1 // Arg = generating node
	evRequest                      // Ref = worm requesting its next channel
	evRelease                      // Arg = channel to release
	evComplete                     // Ref = message, Arg = completing branch
	evAdvance                      // Ref = worm: fused tail-release + header-request
	evSpanDone                     // Ref = worm finishing a coalesced drain
	evFlight                       // Ref = worm ending a header flight, Arg = its flight number
)

// slabSize is how many worms or messages one pool miss allocates: a fresh
// network pays one allocation per slab instead of one per object.
const slabSize = 64

// maxRetainedObjects caps the worms and messages a network keeps across
// Reset. A saturated run leaves tens of thousands queued, and keeping them
// all would pin that memory for every later point of a sweep (the engine
// caps its event storage for the same reason).
const maxRetainedObjects = 1 << 14

// maxRetainedChannels caps the channel array a network keeps across
// ResetOn onto a smaller graph, and maxRetainedQueue each channel's wait
// queue. A worker that once ran a large network must not pin its channels
// for every small one after it, nor a saturated run's backlog (up to
// Config.SatQueue worms at an injection channel) for every run after that;
// a run below saturation queues a few worms per channel.
const (
	maxRetainedChannels = 1 << 12
	maxRetainedQueue    = 64
)

// Network is one simulation instance. Create with New, run with Run, and
// reuse across runs with Reset, or with ResetOn across topologies.
type Network struct {
	g       *topology.Graph
	traffic Traffic
	// hooks holds the attached hooks per position (flat slices, fired in
	// attach order) and hookMask caches which positions have any — the
	// hot path pays one uint8 test per site when nothing is attached.
	hooks           [numHookPos][]Hook
	hookMask        uint8
	cfg             Config
	eng             *sim.Engine
	channels        []channel
	res             Result
	measuring       bool
	measureStart    float64
	windowEnd       float64
	stopped         bool
	draining        bool
	pendingMeasured int64
	nextMsgID       int64
	// coalesced counts micro-events absorbed into coalesced events (span
	// drains, fused advances, lazily applied releases), so Result.Events
	// can report flit-level-equivalent event counts. A header flight adds
	// each claim as it makes it and a cut takes back the claims it gives
	// up; skipped counts the replaced evFlight events that fired, which
	// finish takes out of the engine's count (see fly and cut).
	coalesced uint64
	skipped   uint64
	// canFly enables header flights: coalescing is on and the traffic
	// source's arrivals are continuous. flights counts the flights launched
	// and ties the requests that met a claim at its claim time, which
	// continuous arrivals make impossible (the tests pin both).
	canFly  bool
	flights uint64
	ties    uint64
	// samples is the open tie group: the measured completions sharing one
	// completion time, in canonical order until folded (see addSample).
	samples []latSample
	// worms and msgs list every worm and message the network ever
	// allocated, each at the index it carries (worm.id, message.idx):
	// events name their worm or message by that index (the serial path's
	// scheduler items hold no pointers), and Reset finds the objects a
	// discarded event was the last reference to. Objects are allocated in
	// slabs of slabSize and never move.
	worms []*worm
	msgs  []*message
	// wormPool and msgPool recycle them; both only ever hold fully dead
	// objects (no event or queue references them).
	wormPool []*worm
	msgPool  []*message
}

// Handle dispatches the network's typed events; it implements sim.Handler
// and is invoked by the engine, never directly.
//
//quarc:hotpath
func (nw *Network) Handle(e *sim.Engine, ev sim.Event) {
	t := e.Now()
	switch ev.Kind {
	case evGenerate:
		if nw.draining {
			return
		}
		node := topology.NodeID(ev.Arg)
		nw.generate(node, t)
		nw.scheduleGeneration(node, t)
	case evRequest:
		nw.request(nw.worms[ev.Ref], t)
	case evRelease:
		nw.release(topology.ChannelID(ev.Arg), t)
	case evComplete:
		nw.complete(nw.msgs[ev.Ref], int(ev.Arg), t)
	case evAdvance:
		// Fused micro-events of a stretched worm: the tail vacated the
		// channel msgLen positions behind the header in the previous
		// cycle; free it, then request the header's next channel. The two
		// were scheduled back to back in the fine-grained simulator, so
		// fusing them preserves the exact event order.
		w := nw.worms[ev.Ref]
		nw.release(w.path[w.hop-nw.cfg.MsgLen], t)
		nw.coalesced++
		nw.request(w, t)
	case evSpanDone:
		nw.spanDone(nw.worms[ev.Ref], t)
	case evFlight:
		w := nw.worms[ev.Ref]
		if ev.Arg != w.flight {
			nw.skipped++ // replaced by a cut
			return
		}
		nw.request(w, t)
	default:
		panic(fmt.Sprintf("wormhole: unknown event kind %d", ev.Kind))
	}
}

//quarc:hotpath
func (nw *Network) getWorm(msg *message, branch int, path routing.Path) *worm {
	if len(nw.wormPool) == 0 {
		nw.growWorms()
	}
	n := len(nw.wormPool) - 1
	w := nw.wormPool[n]
	nw.wormPool = nw.wormPool[:n]
	*w = worm{id: w.id, msg: msg, branch: branch, path: path}
	return w
}

//quarc:hotpath
func (nw *Network) putWorm(w *worm) {
	w.msg = nil
	w.path = nil
	nw.wormPool = append(nw.wormPool, w)
}

//quarc:hotpath
func (nw *Network) getMessage() *message {
	if len(nw.msgPool) == 0 {
		nw.growMessages()
	}
	n := len(nw.msgPool) - 1
	m := nw.msgPool[n]
	nw.msgPool = nw.msgPool[:n]
	*m = message{idx: m.idx}
	return m
}

//quarc:hotpath
func (nw *Network) putMessage(m *message) {
	nw.msgPool = append(nw.msgPool, m)
}

// growWorms is the pool-miss path: it allocates one slab of worms, enters
// them in the index table and hands them to the pool. It runs once per
// slabSize of the pool's high-water mark, not per operation.
func (nw *Network) growWorms() {
	slab := make([]worm, slabSize)
	nw.worms = slices.Grow(nw.worms, slabSize)
	nw.wormPool = slices.Grow(nw.wormPool, slabSize)
	for i := range slab {
		w := &slab[i]
		w.id = int32(len(nw.worms))
		nw.worms = append(nw.worms, w)
		nw.wormPool = append(nw.wormPool, w)
	}
}

// growMessages is growWorms for messages.
func (nw *Network) growMessages() {
	slab := make([]message, slabSize)
	nw.msgs = slices.Grow(nw.msgs, slabSize)
	nw.msgPool = slices.Grow(nw.msgPool, slabSize)
	for i := range slab {
		m := &slab[i]
		m.idx = int32(len(nw.msgs))
		nw.msgs = append(nw.msgs, m)
		nw.msgPool = append(nw.msgPool, m)
	}
}

// checkConfig validates cfg and fills in its defaults.
func checkConfig(cfg *Config) error {
	if cfg.MsgLen < 2 {
		return fmt.Errorf("wormhole: message length %d too short", cfg.MsgLen)
	}
	// Written so NaN fails the range test; an infinite horizon never ends.
	if !(cfg.Warmup >= 0 && cfg.Measure > 0) || math.IsInf(cfg.Warmup+cfg.Measure, 0) {
		return fmt.Errorf("wormhole: invalid warmup/measure %v/%v", cfg.Warmup, cfg.Measure)
	}
	if cfg.SatQueue <= 0 {
		cfg.SatQueue = 1000
	}
	return nil
}

// continuousArrivals reports whether traffic declares continuous arrival
// times (see traffic.Workload.ContinuousArrivals); a source that does not
// say is assumed to put injections on a lattice.
func continuousArrivals(traffic Traffic) bool {
	c, ok := traffic.(interface{ ContinuousArrivals() bool })
	return ok && c.ContinuousArrivals()
}

// New creates a simulator over the given channel graph and traffic source:
// a zero network with a fresh engine, bound by ResetOn.
func New(g *topology.Graph, traffic Traffic, cfg Config) (*Network, error) {
	nw := &Network{eng: sim.New()}
	nw.eng.SetHandler(nw)
	if err := nw.ResetOn(g, traffic, cfg); err != nil {
		return nil, err
	}
	return nw, nil
}

// Reset is ResetOn over the network's own channel graph: a new traffic
// source and configuration on the same topology, as across the points of
// a sweep.
func (nw *Network) Reset(traffic Traffic, cfg Config) error {
	return nw.ResetOn(nw.g, traffic, cfg)
}

// ResetOn binds the network to a channel graph, a traffic source and a
// configuration and returns it to its pre-Run state. It is the one
// construction path: New binds a zero network, and a used one keeps the
// engine's event storage, the channel array, the per-channel wait queues,
// the tie-group buffer and every worm and message it ever allocated —
// those in flight when the last run stopped included — whatever graph it
// ran before. Storage a past run grossly over-grew is released instead:
// worms and messages beyond maxRetainedObjects, a channel array beyond
// maxRetainedChannels that g does not need, a wait queue beyond
// maxRetainedQueue. A rebound network runs bitwise-identically to a
// freshly constructed one (pool order, ring sizes and slab identity never
// reach a Result), so one Network can serve every scenario a worker runs
// without reallocating its hot-path state. Like a fresh network it starts
// with no hooks attached — re-Attach after ResetOn to keep observing.
func (nw *Network) ResetOn(g *topology.Graph, traffic Traffic, cfg Config) error {
	if err := checkConfig(&cfg); err != nil {
		return err
	}
	nw.detachHooks()
	nw.eng.Reset()
	// With the generation timers in their slots, the heap holds the flight
	// ends of worms in flight and contended releases: at most 23 events in
	// quarc-16 to quarc-256 runs up to 4x saturation, and about 1.6 per
	// node with NoCoalesce, whose tail releases land there too. One per
	// node, sized up front, and a fresh network rarely regrows it.
	nw.eng.Reserve(g.Nodes())
	// Objects in flight when the last run stopped were referenced only by
	// the events and queues just discarded: rebuild both free lists from
	// the index tables so nothing leaks. (Pool order is unobservable —
	// object identity never reaches a Result.)
	if len(nw.worms) > maxRetainedObjects {
		nw.worms, nw.wormPool = nil, nil
	}
	if len(nw.msgs) > maxRetainedObjects {
		nw.msgs, nw.msgPool = nil, nil
	}
	for _, w := range nw.worms {
		w.msg = nil
		w.path = nil
	}
	// Everything else a run leaves behind starts from zero.
	*nw = Network{
		g:        g,
		traffic:  traffic,
		hooks:    nw.hooks,
		cfg:      cfg,
		eng:      nw.eng,
		channels: resetChannels(nw.channels, g.NumChannels()),
		canFly:   !cfg.NoCoalesce && continuousArrivals(traffic),
		samples:  nw.samples[:0],
		worms:    nw.worms,
		msgs:     nw.msgs,
		wormPool: append(nw.wormPool[:0], nw.worms...),
		msgPool:  append(nw.msgPool[:0], nw.msgs...),
	}
	nw.declareSchedule()
	return nil
}

// resetChannels returns chs sized for n idle channels. Every channel the
// last run used is idled first, those beyond n included, so a spare
// channel's queue pins no worm; the array's capacity is kept unless it is
// both beyond maxRetainedChannels and more than n needs, and a channel
// that stays keeps its queue storage.
func resetChannels(chs []channel, n int) []channel {
	if cap(chs) > max(n, maxRetainedChannels) {
		chs = nil
	}
	for i := range chs {
		c := &chs[i]
		q := c.queue[:cap(c.queue)]
		if len(q) > maxRetainedQueue {
			q = nil
		}
		clear(q) // a dequeue leaves its last slot's pointer behind the length
		*c = channel{queue: q[:0]}
	}
	if n > cap(chs) {
		chs = slices.Grow(chs, n-len(chs))
	}
	return chs[:n]
}

// declareSchedule gives the engine the structures the network's events
// fall into, on every ResetOn. Almost every event lands a fixed delay
// after the one that schedules it: a header step one cycle on
// (evRequest, evAdvance) or a span drain one message length on
// (evSpanDone); those two delays get the fixed-delay lanes. Each node
// keeps exactly one generation timer pending, which re-arms itself when
// it fires: evGenerate gets one timer slot per node. The heap keeps the
// rest, flight ends and contended releases.
func (nw *Network) declareSchedule() {
	nw.eng.DeclareLanes(1, float64(nw.cfg.MsgLen))
	nw.eng.DeclareTimers(evGenerate, nw.g.Nodes())
}

// Run executes the simulation: Warmup cycles without statistics, then
// Measure cycles with statistics (plus an optional drain phase), and
// returns the result.
func (nw *Network) Run() Result {
	nw.res.UnicastBM = stats.NewBatchMeans(200)
	nw.res.MulticastBM = stats.NewBatchMeans(50)
	for node := 0; node < nw.g.Nodes(); node++ {
		nw.scheduleGeneration(topology.NodeID(node), 0)
	}
	horizon := nw.cfg.Warmup + nw.cfg.Measure
	nw.windowEnd = horizon
	// The warmup horizon is exclusive so that the measurement window is
	// half-open on both sides: an event exactly at t=Warmup belongs to
	// [Warmup, Warmup+Measure) and must fire with measurement active.
	nw.eng.RunBefore(nw.cfg.Warmup)
	nw.beginMeasurement()
	if !nw.stopped {
		nw.eng.Run(horizon)
	}
	if nw.cfg.Drain && !nw.stopped {
		// Stop generating and let in-flight measured messages complete,
		// capped at one extra measurement window.
		nw.draining = true
		if nw.pendingMeasured > 0 {
			nw.eng.Run(horizon + nw.cfg.Measure)
		}
	}
	nw.finish()
	return nw.res
}

// RunParallel is Run: the intra-run parallel engine is gone.
//
// Deprecated: call Run. Kept only for the frozen benchmark probe.
func (nw *Network) RunParallel(int) (Result, bool) { return nw.Run(), true }

func (nw *Network) beginMeasurement() {
	nw.measuring = true
	nw.measureStart = nw.eng.Now()
	// Channels whose deferred span release lies before the window must not
	// be counted as occupied into it — the fine-grained release event
	// would have fired during warmup.
	nw.flushSpans(nw.measureStart)
	for i := range nw.channels {
		c := &nw.channels[i]
		c.busy = 0
		// Count only in-window occupancy; a flight's claim for a later time
		// keeps its grant time.
		if c.holder != nil && c.grantTime < nw.measureStart {
			c.grantTime = nw.measureStart
		}
	}
}

// busySpan clamps a holding interval to the measurement window. The
// clamps are open-coded: math.Max/Min pay for NaN handling on a very hot
// accounting path that never sees NaN.
//
//quarc:hotpath
func (nw *Network) busySpan(grant, release float64) float64 {
	lo := grant
	if nw.measureStart > lo {
		lo = nw.measureStart
	}
	hi := release
	if nw.windowEnd < hi {
		hi = nw.windowEnd
	}
	if hi <= lo {
		return 0
	}
	return hi - lo
}

// addSample files a measured completion into the open tie group at its
// canonical position. Completions are stamped with the engine clock, so
// they arrive nondecreasing: a later time closes and folds the group, and
// an earlier one would break the canonical order, so it panics.
//
//quarc:hotpath
func (nw *Network) addSample(s latSample) {
	if len(nw.samples) > 0 && s.t != nw.samples[0].t {
		if s.t < nw.samples[0].t {
			panic("wormhole: completion time went backwards")
		}
		nw.foldSamples()
	}
	// Within the group: by generation, then source (a node generates at
	// most one message per instant, so no two samples share both).
	i := len(nw.samples)
	nw.samples = append(nw.samples, s)
	for ; i > 0; i-- {
		p := nw.samples[i-1]
		if p.gen < s.gen || (p.gen == s.gen && p.src < s.src) {
			break
		}
		nw.samples[i] = p
	}
	nw.samples[i] = s
}

// foldSamples feeds the tie group to the latency estimators in order,
// announces each sample at HookSampleFolded, and empties the group. Order
// only matters to the rounding of the running sums and the batch-means
// boundaries, which the canonical order pins.
//
//quarc:hotpath
func (nw *Network) foldSamples() {
	for _, s := range nw.samples {
		lat := s.t - s.gen
		if s.multicast {
			nw.res.Multicast.Add(lat)
			nw.res.MulticastBM.Add(lat)
		} else {
			nw.res.Unicast.Add(lat)
			nw.res.UnicastBM.Add(lat)
		}
		if nw.hookMask&(1<<HookSampleFolded) != 0 {
			nw.fire(HookCtx{Pos: HookSampleFolded, Time: s.t, Node: -1, Channel: topology.None, Branch: -1, Msg: s.msg, Multicast: s.multicast, Latency: lat})
		}
	}
	nw.samples = nw.samples[:0]
}

func (nw *Network) finish() {
	nw.res.Time = nw.eng.Now()
	nw.foldSamples() // the last tie group
	// Deferred releases that logically happened before the end of the run
	// must be applied so the utilization accounting below sees their true
	// release times (their evSpanDone may lie beyond the horizon).
	nw.flushSpans(nw.res.Time)
	nw.res.Events = nw.eng.Fired() - nw.skipped + nw.coalesced
	window := math.Min(nw.res.Time, nw.windowEnd) - nw.measureStart
	if window <= 0 {
		window = 1
	}
	for i := range nw.channels {
		c := &nw.channels[i]
		busy := c.busy
		if c.holder != nil {
			if c.grantTime > nw.res.Time {
				// A flight's claim its header has not reached: that hop
				// lies after the run (and busySpan counts nothing for it).
				nw.res.Events--
			}
			busy += nw.busySpan(c.grantTime, nw.res.Time)
		}
		if u := busy / window; u > nw.res.MaxUtil {
			nw.res.MaxUtil = u
		}
	}
	if nw.res.Generated > 0 && float64(nw.res.Completed) < 0.9*float64(nw.res.Generated) {
		nw.res.Saturated = true
	}
}

//quarc:hotpath
func (nw *Network) scheduleGeneration(node topology.NodeID, from float64) {
	gap := nw.traffic.Interarrival(node)
	if math.IsInf(gap, 1) {
		return
	}
	if gap < 0 || math.IsNaN(gap) {
		panic("wormhole: negative or NaN interarrival gap")
	}
	nw.eng.Schedule(from+gap, sim.Event{Kind: evGenerate, Arg: int32(node)})
}

//quarc:hotpath
func (nw *Network) generate(node topology.NodeID, t float64) {
	if nw.stopped {
		return
	}
	branches, multicast := nw.traffic.Next(node)
	if len(branches) == 0 {
		return
	}
	// The measurement window is half-open, [measureStart, windowEnd):
	// generation exactly at the closing boundary falls outside it, matching
	// the grant accounting and busySpan's clamp.
	measured := nw.measuring && t < nw.windowEnd
	nw.nextMsgID++
	msg := nw.getMessage()
	msg.id = nw.nextMsgID
	msg.gen = t
	msg.src = node
	msg.multicast = multicast
	msg.pending = int32(len(branches))
	msg.measured = measured
	fresh := nw.canFly && len(branches) == 1 && nw.hookMask == 0
	if measured {
		nw.res.Generated++
		nw.pendingMeasured++
	}
	if nw.hookMask&(1<<HookWormInjected) != 0 {
		nw.fire(HookCtx{Pos: HookWormInjected, Time: t, Node: node, Channel: topology.None, Branch: -1, Msg: msg.id, Multicast: multicast})
	}
	for i := range branches {
		w := nw.getWorm(msg, i, branches[i].Path)
		w.fresh = fresh
		nw.request(w, t)
	}
}

// request asks for the worm's next channel at time t.
//
//quarc:hotpath
func (nw *Network) request(w *worm, t float64) {
	id := w.path[w.hop]
	c := &nw.channels[id]
	if c.holder == nil {
		nw.grant(w, id, t)
		return
	}
	h := c.holder
	if c.grantTime > t {
		// A flight claimed the channel for a later time: its header has not
		// reached it yet, so it is free now. Cut the flight there.
		nw.cut(h, id)
		nw.grant(w, id, t)
		return
	}
	if c.grantTime == t && h.flightEnd > t {
		// The holder's flight claimed the channel for this very instant,
		// a same-instant order no flight can settle (DESIGN.md §10).
		nw.ties++
	}
	if h.spanning && len(c.queue) == 0 {
		if c.spanRelease < t || (c.spanRelease == t && c.spanSeq < nw.eng.NowSeq()) {
			// The holder's tail logically vacated this channel at
			// spanRelease, before this request's key; the release was
			// deferred because nobody needed the channel until now. Apply
			// it, then grant.
			nw.releaseSpanned(id, c)
			nw.grant(w, id, t)
			return
		}
		// Still held at this request's key — later, or at this instant in
		// a later sequence slot: de-coalesce this channel by materializing
		// its release event in its reserved slot, restoring exact
		// fine-grained arbitration for the worms queuing behind it (the
		// release then grants this request later in the instant, as the
		// fine-grained run does).
		nw.eng.ScheduleSeq(c.spanRelease, c.spanSeq, sim.Event{Kind: evRelease, Arg: int32(id)})
	}
	c.queue = append(c.queue, w)
	if nw.hookMask&(1<<HookQueueChanged) != 0 {
		nw.fire(HookCtx{Pos: HookQueueChanged, Time: t, Node: -1, Channel: id, Branch: w.branch, Msg: w.msg.id, Multicast: w.msg.multicast, Occupancy: len(c.queue)})
	}
	if nw.g.Channel(id).Kind == topology.Injection && len(c.queue) > nw.cfg.SatQueue {
		nw.res.Saturated = true
		nw.stopped = true
		nw.eng.Stop()
	}
}

// grant gives channel id to worm w at time t. The header crosses the
// channel during [t, t+1).
//
// Release timing: with single-flit channel buffers a worm of msgLen flits
// spans at most msgLen channels, and all its flits advance in lock-step
// with the header. So when the header is granted the channel at path index
// j, the tail simultaneously vacates the channel at index j-msgLen+1,
// which is free for the next worm one cycle later. Once the header is
// granted the ejection channel at time te, the remaining flits drain at
// one per cycle and the channel k positions before the ejection is freed
// at te + msgLen - k. The first rule covers worms stretched over short
// messages (msgLen < path length); the second covers the paper's usual
// regime of messages longer than the network diameter.
//
//quarc:hotpath
func (nw *Network) grant(w *worm, id topology.ChannelID, t float64) {
	c := &nw.channels[id]
	c.holder = w
	c.grantTime = t
	w.held++
	if nw.hookMask&(1<<HookChannelGranted) != 0 {
		nw.fire(HookCtx{Pos: HookChannelGranted, Time: t, Node: -1, Channel: id, Branch: w.branch, Msg: w.msg.id, Multicast: w.msg.multicast})
	}
	j := w.hop // index of the channel just granted
	w.hop++
	msgLen := nw.cfg.MsgLen
	if w.hop == len(w.path) {
		// The header was granted the ejection channel: the message's last
		// flit is absorbed at t + msgLen. Drain the channels the worm
		// still occupies (at most the last msgLen of the path).
		te := t
		lo := len(w.path) - msgLen
		if lo < 0 {
			lo = 0
		}
		w.done = true
		if !nw.cfg.NoCoalesce {
			nw.spanStart(w, lo, te)
			return
		}
		for i := lo; i < len(w.path); i++ {
			k := float64(len(w.path) - 1 - i)
			nw.eng.Schedule(te+float64(msgLen)-k, sim.Event{Kind: evRelease, Arg: int32(w.path[i])})
		}
		nw.eng.Schedule(te+float64(msgLen),
			sim.Event{Kind: evComplete, Arg: int32(w.branch), Ref: w.msg.idx})
		return
	}
	if i := j - msgLen + 1; i >= 0 {
		// The tail crossed path[i] in this cycle; free it next cycle —
		// fused with the header's next request into one advance event
		// unless coalescing is off.
		if nw.cfg.NoCoalesce {
			nw.eng.Schedule(t+1, sim.Event{Kind: evRelease, Arg: int32(w.path[i])})
		} else {
			// Reserve both micro-event slots (release + request) so the
			// sequence counter advances exactly as in fine-grained mode.
			seq := nw.eng.ReserveSeq(2)
			nw.eng.ScheduleSeq(t+1, seq, sim.Event{Kind: evAdvance, Ref: w.id})
			return
		}
	}
	if w.fresh {
		nw.fly(w, t)
		return
	}
	nw.eng.Schedule(t+1, sim.Event{Kind: evRequest, Ref: w.id})
}

// fly launches a header flight (DESIGN.md §10, "Header flights") for the
// fresh worm w, just granted a channel at t: instead of one request event
// per hop, w claims each free channel ahead at the time its header would
// reach it — holder w, grant time t+1, t+2, … — and one evFlight requests
// the first channel it could not claim, at the time the header reaches it.
// Claims stop before a held or claimed channel, before the ejection
// channel and before the first index whose grant releases the tail's
// channel (msgLen−1): the flown hops only ever grant a free channel, with
// no release, hook or queue involved. A request that meets a claim before
// its time cuts the flight (see cut). Each claim counts as the request
// event it replaces.
//
//quarc:hotpath
func (nw *Network) fly(w *worm, t float64) {
	last := min(len(w.path), nw.cfg.MsgLen) - 2
	at := t + 1
	i := w.hop
	for ; i <= last; i++ {
		c := &nw.channels[w.path[i]]
		if c.holder != nil {
			break
		}
		c.holder = w
		c.grantTime = at
		at++
	}
	n := i - w.hop
	if n == 0 {
		nw.eng.Schedule(at, sim.Event{Kind: evRequest, Ref: w.id})
		return
	}
	w.hop = i
	w.held += n
	nw.coalesced += uint64(n)
	nw.flights++
	w.flight++
	w.flightEnd = at
	nw.eng.Schedule(at, sim.Event{Kind: evFlight, Arg: w.flight, Ref: w.id})
}

// cut ends w's flight at channel id, which another worm requests before
// w's claim time: w gives up its claims from id on, and a new evFlight
// requests id at that claim time, replacing the pending one (which Handle
// skips and finish does not count).
//
//quarc:hotpath
func (nw *Network) cut(w *worm, id topology.ChannelID) {
	for {
		w.hop--
		w.held--
		nw.coalesced--
		c := w.path[w.hop]
		nw.channels[c].holder = nil
		if c == id {
			break
		}
	}
	w.flight++
	w.flightEnd = nw.channels[id].grantTime
	nw.eng.Schedule(w.flightEnd, sim.Event{Kind: evFlight, Arg: w.flight, Ref: w.id})
}

// spanStart begins a coalesced drain at the worm's ejection grant (time
// te): instead of one release event per held channel, channels that
// already have waiters get their release materialized as a real event
// (fine-grained arbitration is preserved exactly), while uncontended
// channels merely record their future release time in spanRelease. One
// evSpanDone event at te+msgLen — when the message's last flit is
// absorbed — applies the outstanding releases in closed form and
// completes the message. Requests that hit a deferred channel in the
// meantime de-coalesce it (see request).
//
//quarc:hotpath
func (nw *Network) spanStart(w *worm, lo int, te float64) {
	msgLen := float64(nw.cfg.MsgLen)
	last := len(w.path) - 1
	// Reserve the sequence range the fine-grained drain would have used
	// (one release per held channel plus the completion), so any release
	// materialized later ties exactly where its fine-grained counterpart
	// would have — the coalesced schedule stays bitwise identical.
	seq := nw.eng.ReserveSeq(len(w.path) - lo + 1)
	for i := lo; i < len(w.path); i++ {
		id := w.path[i]
		c := &nw.channels[id]
		rt := te + msgLen - float64(last-i)
		sq := seq + uint64(i-lo)
		if len(c.queue) > 0 {
			nw.eng.ScheduleSeq(rt, sq, sim.Event{Kind: evRelease, Arg: int32(id)})
			continue
		}
		c.spanRelease = rt
		c.spanSeq = sq
	}
	w.spanning = true
	nw.eng.ScheduleSeq(te+msgLen, seq+uint64(len(w.path)-lo), sim.Event{Kind: evSpanDone, Ref: w.id})
}

// releaseSpanned applies a spanning worm's deferred channel release with
// the occupancy accounting the fine-grained release event would have done
// at the recorded time c.spanRelease. The channel's queue is empty by
// construction: a queued worm would have forced a materialized release
// event instead.
//
//quarc:hotpath
func (nw *Network) releaseSpanned(id topology.ChannelID, c *channel) {
	h := c.holder
	if nw.measuring {
		c.busy += nw.busySpan(c.grantTime, c.spanRelease)
	}
	if nw.hookMask&(1<<HookChannelReleased) != 0 {
		// Time is the logical release time the fine-grained simulator
		// would have fired at, not the (later) moment the deferred
		// release is applied.
		nw.fire(HookCtx{Pos: HookChannelReleased, Time: c.spanRelease, Node: -1, Channel: id, Branch: h.branch, Msg: h.msg.id, Multicast: h.msg.multicast})
	}
	c.holder = nil
	h.held--
	nw.coalesced++
}

// spanDone finishes a coalesced drain: the message's last flit was
// absorbed at t, every channel the worm still holds is released at its
// recorded time, and the branch completes — micro-events the fine-grained
// simulator would have fired one by one.
//
//quarc:hotpath
func (nw *Network) spanDone(w *worm, t float64) {
	lo := len(w.path) - nw.cfg.MsgLen
	if lo < 0 {
		lo = 0
	}
	for i := lo; i < len(w.path); i++ {
		c := &nw.channels[w.path[i]]
		if c.holder != w || len(c.queue) > 0 {
			// Already released (lazily, or by a materialized release
			// event), possibly re-granted — or a materialized release is
			// still pending at exactly t and must do the arbitration.
			continue
		}
		nw.releaseSpanned(w.path[i], c)
	}
	w.spanning = false
	nw.complete(w.msg, w.branch, t)
	if w.held == 0 {
		nw.putWorm(w)
	}
	// Otherwise a materialized release pending at exactly t still
	// references the worm's channels; release() pools it when the last
	// hold drops.
}

// flushSpans applies every deferred span release whose logical time lies
// strictly before t, so measurement-boundary and end-of-run accounting
// see the true release times rather than the pending evSpanDone.
//
//quarc:hotpath
func (nw *Network) flushSpans(t float64) {
	for i := range nw.channels {
		c := &nw.channels[i]
		h := c.holder
		if h != nil && h.spanning && len(c.queue) == 0 && c.spanRelease < t {
			nw.releaseSpanned(topology.ChannelID(i), c)
		}
	}
}

//quarc:hotpath
func (nw *Network) release(id topology.ChannelID, t float64) {
	c := &nw.channels[id]
	h := c.holder
	if h == nil {
		panic("wormhole: releasing a free channel")
	}
	if nw.measuring {
		c.busy += nw.busySpan(c.grantTime, t)
	}
	if nw.hookMask&(1<<HookChannelReleased) != 0 {
		nw.fire(HookCtx{Pos: HookChannelReleased, Time: t, Node: -1, Channel: id, Branch: h.branch, Msg: h.msg.id, Multicast: h.msg.multicast})
	}
	c.holder = nil
	h.held--
	if h.done && h.held == 0 && !h.spanning {
		// A spanning worm is still referenced by its pending evSpanDone
		// event; spanDone pools it instead.
		nw.putWorm(h)
	}
	if len(c.queue) > 0 && !nw.stopped {
		next := 0
		if nw.cfg.MulticastPriority {
			// Multicast worms win arbitration; FIFO within each class.
			for i, w := range c.queue {
				if w.msg.multicast {
					next = i
					break
				}
			}
		}
		w := c.queue[next]
		copy(c.queue[next:], c.queue[next+1:])
		c.queue = c.queue[:len(c.queue)-1]
		if nw.hookMask&(1<<HookQueueChanged) != 0 {
			nw.fire(HookCtx{Pos: HookQueueChanged, Time: t, Node: -1, Channel: id, Branch: w.branch, Msg: w.msg.id, Multicast: w.msg.multicast, Occupancy: len(c.queue)})
		}
		w.fresh = false // it takes over the releaser's time base
		nw.grant(w, id, t)
	}
}

// complete ends one branch of msg: its last flit was absorbed at t.
//
//quarc:hotpath
func (nw *Network) complete(msg *message, branch int, t float64) {
	if nw.hookMask&(1<<HookBranchDone) != 0 {
		nw.fire(HookCtx{Pos: HookBranchDone, Time: t, Node: -1, Channel: topology.None, Branch: branch, Msg: msg.id, Multicast: msg.multicast})
	}
	msg.pending--
	if t > msg.lastDone {
		msg.lastDone = t
	}
	if msg.pending > 0 {
		return
	}
	if nw.hookMask&(1<<HookWormEjected) != 0 {
		nw.fire(HookCtx{Pos: HookWormEjected, Time: t, Node: -1, Channel: topology.None, Branch: -1, Msg: msg.id, Multicast: msg.multicast, Latency: msg.lastDone - msg.gen})
	}
	if nw.measuring && msg.measured {
		nw.res.Completed++
		nw.pendingMeasured--
		// Folded when its tie group closes, in canonical order.
		nw.addSample(latSample{t: msg.lastDone, gen: msg.gen, msg: msg.id, src: msg.src, multicast: msg.multicast})
		if nw.draining && nw.pendingMeasured <= 0 {
			nw.eng.Stop()
		}
	}
	// The last branch completed: no event or worm references msg anymore.
	nw.putMessage(msg)
}
