package wormhole

// Conservative parallel execution of one Network: the channel graph is
// partitioned spatially (topology.PartitionGraph), each shard runs the
// worm-level event handlers over the channels it owns on its own
// sim.Engine, and the shards advance in lockstep windows coordinated by
// internal/sim/par. The fixed one-cycle flit latency is the lookahead:
// every event one shard schedules on another's channels is at least one
// cycle out, so a window of width one is always safe (DESIGN.md §18).
//
// # Bitwise equality with the serial engine
//
// RunParallel is not an approximation: for eligible runs its Result is
// bit-for-bit the serial Run's, pinned by TestParallelMatchesSerial and
// FuzzParallelVsSerial. The argument has three legs:
//
//   - Per-channel decisions replay exactly. A channel is owned by one
//     shard, its event stream there is ordered by (time, local seq), and
//     with a continuous-time arrival process two events of different
//     message lineages never tie, so the per-channel FIFO order is the
//     serial time order. Same-lineage same-time events (branches of one
//     multicast) act on disjoint channels and commute.
//   - Shared-object updates are commutative. A stretched worm's channels
//     can be released from several shards, so its occupancy lives in a
//     packed atomic (pstate); a multicast's branch completions fold
//     through an atomic countdown and a CAS-max on the completion time.
//     All are order-free, and window width <= lookahead means any two
//     events of one worm (always >= 1 cycle apart) land in different
//     windows anyway.
//   - Statistics fold in a canonical order. Welford means and batch
//     means are order-sensitive, so shards buffer completion samples and
//     the merge folds them sorted by (completion time, generation time,
//     source) — for tie-free workloads exactly the serial completion
//     order. Counters, busy time and MaxUtil merge as exact sums/maxes.
//
// Worm coalescing stays intact inside a shard and de-coalesces at the
// seams: a fused advance whose release and request target different
// shards is split into its two micro-events, and a span drain
// materializes release events for remotely owned channels instead of
// deferring them. Both directions preserve the flit-level-equivalent
// event count, so Result.Events is invariant too.
//
// Ineligible configurations (drain, detail, tracing, per-event hooks,
// NoCoalesce, a non-concurrency-safe traffic source) run serially; a
// saturation stop mid-run aborts the parallel attempt (the truncated
// state is not reproducible conservatively) and the caller re-runs
// serially from a fresh reset.

import (
	"math"
	"sync/atomic"

	"quarc/internal/routing"
	"quarc/internal/sim"
	"quarc/internal/sim/par"
	"quarc/internal/stats"
	"quarc/internal/topology"
)

// ParallelSafe is the marker interface a Traffic source implements to
// declare Interarrival and Next safe for concurrent calls on distinct
// nodes (traffic.Workload qualifies: per-node RNGs and arrival states
// over read-only shared route tables). RunParallel falls back to the
// serial engine for sources without it.
type ParallelSafe interface {
	ParallelSafe()
}

// worm.pstate layout: low 16 bits count held channels, then one bit
// each for "ejection granted" (done) and "span drain in progress".
const (
	pstateDoneBit = 1 << 16
	pstateSpanBit = 1 << 17
)

// remoteEvent is one cross-shard event in a mailbox.
type remoteEvent struct {
	t  float64
	ev sim.Event
}

// maxRetainedMailbox caps the mailbox capacity a shard keeps after a
// drain, so one bursty window does not pin memory for the whole run.
const maxRetainedMailbox = 4096

// parRun is the shared coordination state of one RunParallel call.
type parRun struct {
	nw     *Network
	part   *topology.Partition
	shards []*parShard
}

// parShard is one partition: its own engine and statistics, the shared
// channel array (each entry touched only by its owner) and the outboxes
// toward every other shard.
type parShard struct {
	run *parRun
	idx int32
	eng *sim.Engine

	g        *topology.Graph
	traffic  Traffic
	cfg      Config
	channels []channel // shared array; only owned entries are touched
	owner    []int32   // channel -> owning shard (part.Chan)

	// nodes and owned are this shard's nodes and channels.
	nodes []topology.NodeID
	owned []topology.ChannelID

	measuring    bool
	measureStart float64
	windowEnd    float64
	endTime      float64
	stopped      bool

	generated int64
	completed int64
	coalesced uint64
	nextMsgID int64
	samples   []latSample

	wormPool []*worm
	msgPool  []*message

	// out[d] is the mailbox of events this shard scheduled for shard d
	// (nil at d == idx). Single writer (this shard, during its window),
	// single reader (shard d, during its drain); the barrier between
	// window and drain is the hand-off.
	out [][]remoteEvent
}

// parEligible reports whether cfg and the attached hooks permit a
// parallel run at all. The arrival-process side (continuous
// interarrival times, so event-time ties across message lineages have
// probability zero) is the caller's contract — noc gates on it.
func (nw *Network) parEligible(p int) bool {
	if p < 1 {
		return false
	}
	if nw.cfg.Drain || nw.cfg.Detail || nw.cfg.TraceEnabled || nw.cfg.NoCoalesce {
		return false
	}
	if nw.hookMask&^uint8(1<<HookPartitionDone) != 0 {
		return false
	}
	if _, ok := nw.traffic.(ParallelSafe); !ok {
		return false
	}
	return true
}

// RunParallel executes the simulation partitioned into p shards and
// returns the Result bit-for-bit equal to the serial Run's. It returns
// ok=false when a saturation stop aborted the parallel attempt: the
// network (and its traffic source) are then mid-run and must be Reset
// before a serial re-run — the serial engine reproduces the truncated
// saturated Result exactly, which a conservative parallel run cannot.
//
// Ineligible runs (see parEligible; p < 2 included, since one shard is
// the serial engine with extra steps) fall back to the serial Run and
// report ok=true: the fallback never perturbs results, only speed.
//
// The caller must ensure the workload's arrival process has continuous
// interarrival times (poisson, onoff); integer-lattice processes
// (bernoulli, periodic) tie event times across message lineages, where
// serial tie-breaking depends on the global scheduling order that
// sharded engines do not reproduce.
func (nw *Network) RunParallel(p int) (Result, bool) {
	if p < 2 || !nw.parEligible(p) {
		return nw.Run(), true
	}
	part := topology.PartitionGraph(nw.g, p)
	p = part.P // clamped to the node count
	if p < 2 {
		return nw.Run(), true
	}
	run := &parRun{nw: nw, part: part, shards: make([]*parShard, p)}
	for i := range run.shards {
		sh := &parShard{
			run: run, idx: int32(i), eng: sim.New(),
			g: nw.g, traffic: nw.traffic, cfg: nw.cfg,
			channels: nw.channels, owner: part.Chan,
			out: make([][]remoteEvent, p),
		}
		sh.eng.SetHandler(sh)
		run.shards[i] = sh
	}
	for node := 0; node < nw.g.Nodes(); node++ {
		sh := run.shards[part.Node[node]]
		sh.nodes = append(sh.nodes, topology.NodeID(node))
	}
	for id := range nw.channels {
		sh := run.shards[part.Chan[id]]
		sh.owned = append(sh.owned, topology.ChannelID(id))
	}
	horizon := nw.cfg.Warmup + nw.cfg.Measure
	shards := make([]par.Shard, p)
	for i, sh := range run.shards {
		sh.windowEnd = horizon
		hintSchedule(sh.eng, nw.cfg.MsgLen, len(sh.nodes))
		for _, node := range sh.nodes {
			sh.scheduleGeneration(node, 0)
		}
		shards[i] = sh
	}
	look := part.Lookahead()
	// The same half-open phase split as the serial Run: warmup with an
	// exclusive horizon, then measurement with an inclusive one.
	if !par.Phase(shards, nw.cfg.Warmup, look, false) {
		return Result{}, false
	}
	for _, sh := range run.shards {
		sh.beginMeasurement()
	}
	if !par.Phase(shards, horizon, look, true) {
		return Result{}, false
	}
	res := run.merge(horizon)
	if nw.hookMask&(1<<HookPartitionDone) != 0 {
		for i, sh := range run.shards {
			nw.fire(HookCtx{
				Pos: HookPartitionDone, Time: res.Time,
				Node: topology.NodeID(i), Channel: topology.None,
				Msg: int64(sh.eng.Fired() + sh.coalesced),
			})
		}
	}
	return res, true
}

// merge folds the shard states into the serial Result: counter sums,
// exact per-channel utilization maxima, and the latency estimators fed
// in the canonical (completion, generation, source) sample order — for
// a tie-free workload exactly the order the serial engine used.
func (run *parRun) merge(horizon float64) Result {
	nw := run.nw
	nw.res = Result{
		UnicastBM:   stats.NewBatchMeans(200),
		MulticastBM: stats.NewBatchMeans(50),
		Time:        horizon,
	}
	var all []latSample
	for _, sh := range run.shards {
		sh.finish(horizon)
		nw.res.Generated += sh.generated
		nw.res.Completed += sh.completed
		nw.res.Events += sh.eng.Fired() + sh.coalesced
		all = append(all, sh.samples...)
	}
	sortSamples(all)
	for _, s := range all {
		lat := s.t - s.gen
		if s.multicast {
			nw.res.Multicast.Add(lat)
			nw.res.MulticastBM.Add(lat)
		} else {
			nw.res.Unicast.Add(lat)
			nw.res.UnicastBM.Add(lat)
		}
	}
	for _, sh := range run.shards {
		if u := sh.maxUtil(); u > nw.res.MaxUtil {
			nw.res.MaxUtil = u
		}
	}
	if nw.res.Generated > 0 && float64(nw.res.Completed) < 0.9*float64(nw.res.Generated) {
		nw.res.Saturated = true
	}
	return nw.res
}

// --- par.Shard implementation -----------------------------------------

// Drain moves the events other shards published for this shard into the
// local engine, in fixed sender order so the local sequence assignment
// is deterministic.
func (sh *parShard) Drain() {
	for s, src := range sh.run.shards {
		if int32(s) == sh.idx {
			continue
		}
		box := src.out[sh.idx]
		for i := range box {
			sh.eng.Schedule(box[i].t, box[i].ev)
			box[i] = remoteEvent{} // drop payload references
		}
		if cap(box) > maxRetainedMailbox {
			src.out[sh.idx] = nil
		} else {
			src.out[sh.idx] = box[:0]
		}
	}
}

// NextTime implements par.Shard over the engine's peek.
func (sh *parShard) NextTime() (float64, bool) { return sh.eng.NextTime() }

// Run implements par.Shard: one conservative window.
func (sh *parShard) Run(bound float64, incl bool) {
	if incl {
		sh.eng.Run(bound)
	} else {
		sh.eng.RunBefore(bound)
	}
}

// Aborted implements par.Shard: a saturation stop.
func (sh *parShard) Aborted() bool { return sh.stopped }

// schedule routes an event: locally into the engine, remotely into the
// owner's mailbox (delivered after the next barrier — always soon
// enough, because cross-shard events are at least one lookahead out).
func (sh *parShard) schedule(owner int32, t float64, ev sim.Event) {
	if owner == sh.idx {
		sh.eng.Schedule(t, ev)
		return
	}
	sh.out[owner] = append(sh.out[owner], remoteEvent{t: t, ev: ev})
}

// Handle dispatches this shard's typed events; the cases mirror
// Network.Handle without the serial-only branches (tracing, drain,
// NoCoalesce completions).
func (sh *parShard) Handle(e *sim.Engine, ev sim.Event) {
	t := e.Now()
	switch ev.Kind {
	case evGenerate:
		node := topology.NodeID(ev.Arg)
		sh.generate(node, t)
		sh.scheduleGeneration(node, t)
	case evRequest:
		sh.request(ev.Data.(*worm), t)
	case evRelease:
		sh.release(topology.ChannelID(ev.Arg), t)
	case evAdvance:
		// Fused tail-release + header-request; only scheduled when both
		// channels live in this shard (seams split it in grant).
		w := ev.Data.(*worm)
		sh.release(w.path[w.hop-sh.cfg.MsgLen], t)
		sh.coalesced++
		sh.request(w, t)
	case evSpanDone:
		sh.spanDone(ev.Data.(*worm), t)
	default:
		panic("wormhole: unknown parallel event kind")
	}
}

func (sh *parShard) getWorm(msg *message, branch int, path routing.Path) *worm {
	if n := len(sh.wormPool); n > 0 {
		w := sh.wormPool[n-1]
		sh.wormPool[n-1] = nil
		sh.wormPool = sh.wormPool[:n-1]
		*w = worm{msg: msg, branch: branch, path: path}
		return w
	}
	return &worm{msg: msg, branch: branch, path: path}
}

func (sh *parShard) putWorm(w *worm) {
	w.msg = nil
	w.path = nil
	sh.wormPool = append(sh.wormPool, w)
}

func (sh *parShard) getMessage() *message {
	if n := len(sh.msgPool); n > 0 {
		m := sh.msgPool[n-1]
		sh.msgPool[n-1] = nil
		sh.msgPool = sh.msgPool[:n-1]
		*m = message{}
		return m
	}
	return &message{}
}

func (sh *parShard) putMessage(m *message) {
	sh.msgPool = append(sh.msgPool, m)
}

func (sh *parShard) scheduleGeneration(node topology.NodeID, from float64) {
	gap := sh.traffic.Interarrival(node)
	if math.IsInf(gap, 1) {
		return
	}
	if gap < 0 || math.IsNaN(gap) {
		panic("wormhole: negative or NaN interarrival gap")
	}
	sh.eng.Schedule(from+gap, sim.Event{Kind: evGenerate, Arg: int32(node)})
}

func (sh *parShard) generate(node topology.NodeID, t float64) {
	if sh.stopped {
		return
	}
	branches, multicast := sh.traffic.Next(node)
	if len(branches) == 0 {
		return
	}
	measured := sh.measuring && t < sh.windowEnd
	sh.nextMsgID++
	msg := sh.getMessage()
	// Shard-scoped ids: only observable through tracing and per-event
	// hooks, both of which force the serial fallback.
	msg.id = int64(sh.idx)<<48 | sh.nextMsgID
	msg.gen = t
	msg.src = node
	msg.multicast = multicast
	msg.pending = int32(len(branches))
	msg.measured = measured
	if measured {
		sh.generated++
	}
	for i := range branches {
		sh.request(sh.getWorm(msg, i, branches[i].Path), t)
	}
}

// request mirrors Network.request over owned channels. The event router
// guarantees the requested channel is owned here.
func (sh *parShard) request(w *worm, t float64) {
	id := w.path[w.hop]
	c := &sh.channels[id]
	if c.holder == nil {
		sh.grant(w, id, t)
		return
	}
	// The serial code keys deferral off "holder is spanning and queue
	// empty", but here a holder can span in another shard while this
	// channel was never deferred (its release is a materialized event in
	// flight), so deferral is an explicit per-channel marker. A deferred
	// channel's spanRelease/spanSeq are always this shard's own: only the
	// span-starting shard defers, and only on channels it owns.
	if c.spanDeferred && len(c.queue) == 0 {
		if c.spanRelease <= t {
			sh.releaseSpanned(id, c)
			sh.grant(w, id, t)
			return
		}
		sh.eng.ScheduleSeq(c.spanRelease, c.spanSeq, sim.Event{Kind: evRelease, Arg: int32(id)})
	}
	c.queue = append(c.queue, w)
	if sh.g.Channel(id).Kind == topology.Injection && len(c.queue) > sh.cfg.SatQueue {
		sh.stopped = true
		sh.eng.Stop()
	}
}

// grant mirrors Network.grant; continuation events are routed by the
// owner of the channel they target, and a fused advance whose release
// and request straddle a seam is split into its two micro-events (the
// split fires both, the fuse fires one and coalesces one — the
// flit-level event count is identical either way).
func (sh *parShard) grant(w *worm, id topology.ChannelID, t float64) {
	c := &sh.channels[id]
	c.holder = w
	c.grantTime = t
	atomic.AddInt32(&w.pstate, 1)
	if sh.measuring && t < sh.windowEnd {
		c.grants++
	}
	j := w.hop
	w.hop++
	msgLen := sh.cfg.MsgLen
	if w.hop == len(w.path) {
		te := t
		lo := len(w.path) - msgLen
		if lo < 0 {
			lo = 0
		}
		// The worm still holds the just-granted ejection channel, so a
		// concurrent release from another shard cannot see a zero hold
		// count between these two transitions and pool the worm early.
		atomic.AddInt32(&w.pstate, pstateDoneBit)
		sh.spanStart(w, lo, te)
		return
	}
	if i := j - msgLen + 1; i >= 0 {
		rel := w.path[i]
		req := w.path[w.hop]
		if sh.owner[rel] == sh.owner[req] {
			sh.schedule(sh.owner[rel], t+1, sim.Event{Kind: evAdvance, Data: w})
			return
		}
		// Seam: de-coalesce the advance into its micro-events. Their
		// relative order is free — they act on different channels.
		sh.schedule(sh.owner[rel], t+1, sim.Event{Kind: evRelease, Arg: int32(rel)})
		sh.schedule(sh.owner[req], t+1, sim.Event{Kind: evRequest, Data: w})
		return
	}
	sh.schedule(sh.owner[w.path[w.hop]], t+1, sim.Event{Kind: evRequest, Data: w})
}

// spanStart mirrors Network.spanStart. Remotely owned channels cannot
// defer (their spanRelease would race with the owner), so the span
// de-coalesces at seams: those releases are materialized as real events
// in the owner shard. Locally the reserved-sequence discipline is kept
// so same-time ties against the spanDone resolve exactly as serially.
func (sh *parShard) spanStart(w *worm, lo int, te float64) {
	msgLen := float64(sh.cfg.MsgLen)
	last := len(w.path) - 1
	seq := sh.eng.ReserveSeq(len(w.path) - lo + 1)
	for i := lo; i < len(w.path); i++ {
		id := w.path[i]
		rt := te + msgLen - float64(last-i)
		sq := seq + uint64(i-lo)
		if sh.owner[id] != sh.idx {
			sh.schedule(sh.owner[id], rt, sim.Event{Kind: evRelease, Arg: int32(id)})
			continue
		}
		c := &sh.channels[id]
		if len(c.queue) > 0 {
			sh.eng.ScheduleSeq(rt, sq, sim.Event{Kind: evRelease, Arg: int32(id)})
			continue
		}
		c.spanRelease = rt
		c.spanSeq = sq
		c.spanDeferred = true
	}
	atomic.AddInt32(&w.pstate, pstateSpanBit)
	sh.eng.ScheduleSeq(te+msgLen, seq+uint64(len(w.path)-lo), sim.Event{Kind: evSpanDone, Data: w})
}

// releaseSpanned mirrors Network.releaseSpanned for an owned channel.
func (sh *parShard) releaseSpanned(id topology.ChannelID, c *channel) {
	if sh.measuring {
		c.busy += sh.busySpan(c.grantTime, c.spanRelease)
	}
	h := c.holder
	c.holder = nil
	c.spanDeferred = false
	atomic.AddInt32(&h.pstate, -1)
	sh.coalesced++
}

// spanDone mirrors Network.spanDone over the locally owned channels of
// the span (seam channels were materialized, and their releases — all
// at least one cycle before this event — have already fired in earlier
// windows, so this shard sees their effects).
func (sh *parShard) spanDone(w *worm, t float64) {
	lo := len(w.path) - sh.cfg.MsgLen
	if lo < 0 {
		lo = 0
	}
	for i := lo; i < len(w.path); i++ {
		id := w.path[i]
		if sh.owner[id] != sh.idx {
			continue
		}
		c := &sh.channels[id]
		if c.holder != w || len(c.queue) > 0 {
			continue
		}
		sh.releaseSpanned(id, c)
	}
	nv := atomic.AddInt32(&w.pstate, -pstateSpanBit)
	sh.complete(w.msg, t)
	if nv == pstateDoneBit {
		sh.putWorm(w)
	}
}

// flushSpans mirrors Network.flushSpans over the owned channels.
func (sh *parShard) flushSpans(t float64) {
	for _, id := range sh.owned {
		c := &sh.channels[id]
		if c.spanDeferred && len(c.queue) == 0 && c.spanRelease < t {
			sh.releaseSpanned(id, c)
		}
	}
}

func (sh *parShard) release(id topology.ChannelID, t float64) {
	c := &sh.channels[id]
	h := c.holder
	if h == nil {
		panic("wormhole: releasing a free channel")
	}
	if sh.measuring {
		c.busy += sh.busySpan(c.grantTime, t)
	}
	c.holder = nil
	c.spanDeferred = false
	if nv := atomic.AddInt32(&h.pstate, -1); nv == pstateDoneBit {
		// Held count zero, ejection granted, not spanning: no event or
		// queue references the worm anywhere. Exactly one shard observes
		// this final transition and pools it.
		sh.putWorm(h)
	}
	if len(c.queue) > 0 && !sh.stopped {
		next := 0
		if sh.cfg.MulticastPriority {
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
		sh.grant(w, id, t)
	}
}

// complete mirrors Network.complete: the completion time folds through
// a CAS-max (bit order equals numeric order for non-negative floats)
// and the branch countdown through an atomic add, so branches finishing
// in different shards within one window commute. The shard that retires
// the last branch buffers the sample; which shard that is can vary from
// run to run, but the sample's content and the canonical fold cannot.
func (sh *parShard) complete(msg *message, t float64) {
	bits := math.Float64bits(t)
	for {
		cur := atomic.LoadUint64(&msg.lastDoneBits)
		if cur >= bits || atomic.CompareAndSwapUint64(&msg.lastDoneBits, cur, bits) {
			break
		}
	}
	if atomic.AddInt32(&msg.pending, -1) > 0 {
		return
	}
	if sh.measuring && msg.measured {
		sh.completed++
		var s latSample
		s.t = math.Float64frombits(atomic.LoadUint64(&msg.lastDoneBits))
		s.gen = msg.gen
		s.src = msg.src
		s.multicast = msg.multicast
		sh.samples = append(sh.samples, s)
	}
	sh.putMessage(msg)
}

// busySpan mirrors Network.busySpan with the shard's window.
func (sh *parShard) busySpan(grant, release float64) float64 {
	lo := grant
	if sh.measureStart > lo {
		lo = sh.measureStart
	}
	hi := release
	if sh.windowEnd < hi {
		hi = sh.windowEnd
	}
	if hi <= lo {
		return 0
	}
	return hi - lo
}

// beginMeasurement mirrors Network.beginMeasurement for the owned
// channels. Called between the phases, with no shard goroutines live.
func (sh *parShard) beginMeasurement() {
	sh.measuring = true
	sh.measureStart = sh.eng.Now()
	sh.flushSpans(sh.measureStart)
	for _, id := range sh.owned {
		c := &sh.channels[id]
		c.busy = 0
		c.grants = 0
		if c.holder != nil {
			c.grantTime = sh.measureStart
		}
	}
}

// finish applies the end-of-run span flush, mirroring Network.finish
// for the owned channels. Called from the merge, serially.
func (sh *parShard) finish(endTime float64) {
	sh.flushSpans(endTime)
	sh.endTime = endTime
}

// maxUtil computes the highest owned-channel utilization, with the
// same clamped busy accounting as Network.finish.
func (sh *parShard) maxUtil() float64 {
	window := math.Min(sh.endTime, sh.windowEnd) - sh.measureStart
	if window <= 0 {
		window = 1
	}
	max := 0.0
	for _, id := range sh.owned {
		c := &sh.channels[id]
		busy := c.busy
		if c.holder != nil {
			busy += sh.busySpan(c.grantTime, sh.endTime)
		}
		if u := busy / window; u > max {
			max = u
		}
	}
	return max
}
