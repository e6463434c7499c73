// Package sim implements a small discrete-event simulation engine.
//
// The engine maintains a pending-event set ordered by (time, sequence):
// events scheduled at the same instant fire in the order they were
// scheduled, which makes runs fully deterministic for a fixed seed. Time is
// a float64 number of flit-cycles; the wormhole simulator schedules channel
// grants, header advances and tail releases as events.
//
// # Typed events
//
// An event is a kind tag and two integers (Arg, Ref) that the Handler's
// owner interprets — a node or channel id, an index into a table it keeps
// — dispatched through the engine's Handler. A pending event is one
// 32-byte pointer-free record, written once into the slot it waits in and
// read once from there, so a warmed-up event loop allocates nothing and
// the garbage collector never scans the pending set.
//
// # Schedulers
//
// The pending-event set has two implementations behind the same Engine
// API. The default is a calendar queue (bucketed time ring with an
// overflow heap) with O(1) amortized schedule and pop, fronted by up to
// two fixed-delay lanes (DeclareLanes): FIFOs for events filed a constant
// delay after the clock, which arrive already sorted and skip the
// calendar. NewWithHeap selects the plain binary heap, retained as the
// simpler fallback and as the oracle for differential tests. Both order
// events identically by (time, sequence), so which scheduler runs is
// invisible in the results — only in the throughput.
package sim

import (
	"fmt"
	"math"
)

// Kind tags an event. Kind values are defined by the Handler's owner (the
// engine only stores and dispatches them).
type Kind uint8

// Event is one scheduled occurrence, dispatched through the engine's
// Handler. Arg carries a small integer payload such as a node or channel
// id; Ref is a second integer the handler owns, typically an index into
// its own table.
type Event struct {
	Kind Kind
	Arg  int32
	Ref  int32
}

// Handler dispatches events. The handler is called with the engine so it
// can schedule further events; Engine.Now is the event's time.
type Handler interface {
	Handle(e *Engine, ev Event)
}

// item is one pending event as both schedulers store it: 32 bytes, two to
// a cache line, no pointers.
type item struct {
	t        float64
	seq      uint64
	kind     Kind
	arg, ref int32
}

// eventHeap is a binary min-heap ordered by (t, seq). The sift operations
// are inlined here rather than going through container/heap, whose
// interface-based API boxes every pushed item into an allocation. It backs
// the heap-scheduler mode and the calendar queue's far-future overflow.
type eventHeap []item

func (h eventHeap) less(i, j int) bool {
	if h[i].t != h[j].t {
		return h[i].t < h[j].t
	}
	return h[i].seq < h[j].seq
}

//quarc:hotpath
func (h *eventHeap) push(it item) {
	hh := append(*h, it)
	i := len(hh) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !hh.less(i, parent) {
			break
		}
		hh[i], hh[parent] = hh[parent], hh[i]
		i = parent
	}
	*h = hh
}

//quarc:hotpath
func (h *eventHeap) pop() item {
	hh := *h
	n := len(hh) - 1
	it := hh[0]
	hh[0] = hh[n]
	hh = hh[:n]
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		j := l
		if r := l + 1; r < n && hh.less(r, l) {
			j = r
		}
		if !hh.less(j, i) {
			break
		}
		hh[i], hh[j] = hh[j], hh[i]
		i = j
	}
	*h = hh
	return it
}

// maxRetainedEvents caps the event storage (heap slots or calendar bucket
// slots) an Engine keeps across Reset: a single saturated run can grow the
// pending set enormously, and retaining all of it would pin that memory
// for every later point of a sweep.
const maxRetainedEvents = 1 << 15

// Engine is a discrete-event scheduler. The zero value is ready to use and
// runs on the calendar-queue scheduler.
type Engine struct {
	now     float64
	seq     uint64
	useHeap bool
	heap    eventHeap
	cal     calQueue
	// lanes are the fixed-delay FIFOs in front of the calendar (see lane
	// and DeclareLanes); an undeclared lane has no ring and refuses
	// every event.
	lanes   [2]lane
	handler Handler
	stopped bool
	fired   uint64
}

// New returns an empty engine at time zero, backed by the calendar-queue
// scheduler.
func New() *Engine { return &Engine{} }

// NewWithHeap returns an empty engine backed by the binary-heap scheduler:
// the simpler fallback, and the oracle the calendar queue is
// differential-tested against. Event ordering is identical to New's.
func NewWithHeap() *Engine { return &Engine{useHeap: true} }

// Reset returns the engine to its zero state — time zero, no pending
// events, counters cleared, the calendar back at its default geometry and
// no lanes declared (re-issue HintSchedule and DeclareLanes after it) —
// while keeping the allocated event storage and the handler, so one
// engine can be reused across the points of a sweep without reallocating,
// at a speed that depends on the run and never on the runs before it.
// Storage grossly over-grown by a past run (beyond maxRetainedEvents) is
// released instead of retained.
func (e *Engine) Reset() {
	e.now = 0
	e.seq = 0
	e.fired = 0
	e.stopped = false
	if cap(e.heap) > maxRetainedEvents {
		e.heap = nil
	} else {
		e.heap = e.heap[:0]
	}
	// The lane rings live in the calendar's arena, which reset keeps or
	// frees; DeclareLanes carves them out of it again.
	e.lanes = [2]lane{}
	e.cal.reset(maxRetainedEvents)
}

// SetHandler installs the event dispatcher. Scheduling an event on an
// engine without a handler is a logic error (Run panics when it fires).
func (e *Engine) SetHandler(h Handler) { e.handler = h }

// Now returns the current simulated time.
func (e *Engine) Now() float64 { return e.now }

// Fired returns the number of events executed so far.
func (e *Engine) Fired() uint64 { return e.fired }

// Pending returns the number of scheduled, not-yet-fired events.
func (e *Engine) Pending() int {
	if e.useHeap {
		return len(e.heap)
	}
	return e.cal.len() + e.lanes[0].len() + e.lanes[1].len()
}

// Geometry reports the calendar scheduler's current shape — bucket count,
// day width, geometry rebuilds since the last Reset, and the share of
// pending events parked in the overflow heap — for tests and out-of-band
// reporting. Geometry only ever affects speed; the heap scheduler reports
// zeros.
func (e *Engine) Geometry() (buckets int, width float64, rebuilds uint64, overflow float64) {
	q := &e.cal
	if n := e.Pending(); n > 0 {
		overflow = float64(len(q.overflow)) / float64(n)
	}
	return len(q.buckets), q.width, q.resizes, overflow
}

// Lanes reports the declared fixed-delay lanes — each one's delay and the
// events it has served since it was declared, zero for an undeclared lane
// — for tests and out-of-band reporting. Like Geometry it only ever
// describes speed.
func (e *Engine) Lanes() (delays [2]float64, served [2]uint64) {
	for k := range e.lanes {
		if l := &e.lanes[k]; l.ring != nil {
			delays[k], served[k] = l.delay, l.head
		}
	}
	return delays, served
}

// Schedule schedules ev to fire at absolute time t. Scheduling in the past
// (t < Now) panics: it always indicates a logic error in the caller.
//
//quarc:hotpath
func (e *Engine) Schedule(t float64, ev Event) {
	if !(t >= e.now) {
		e.refuse(t)
	}
	e.seq++
	e.put(t, e.seq, ev)
}

// HintSchedule pre-sizes the calendar scheduler for a workload expected
// to keep roughly `pending` events in flight, scheduled up to roughly
// `span` time units ahead. A good hint skips the geometry-learning
// rebuilds a fresh engine otherwise pays during its first few thousand
// events; a bad one is corrected by the adaptive resize policy. The hint
// is purely about speed — event order never depends on geometry — and is
// ignored by the heap scheduler and by engines with pending events.
func (e *Engine) HintSchedule(span float64, pending int) {
	if e.useHeap || pending <= 0 || span <= 0 || math.IsNaN(span) || math.IsInf(span, 1) {
		return
	}
	e.cal.hint(span, pending, e.now)
}

// DeclareLanes gives the calendar scheduler a fixed-delay lane for each of
// up to two delays (further ones are ignored): a FIFO that takes every
// event scheduled exactly that delay after the clock, where it arrives
// already in (time, sequence) order, so it is neither bucketed nor
// searched. Declare the delays a workload schedules at most often — the
// wormhole simulator's one-cycle header steps and message-length drains;
// any delay is safe, since a lane refuses a key that would order before
// its tail. Like HintSchedule it is purely about speed, follows it (the
// lane rings come out of the arena the hinted geometry allocated, a
// bucket count's worth of slots each), and is ignored by the heap
// scheduler and by engines with pending events. Reset forgets the lanes.
func (e *Engine) DeclareLanes(delays ...float64) {
	if e.useHeap || e.Pending() > 0 {
		return
	}
	e.lanes = [2]lane{}
	store := e.cal.laneArena(e.now)
	n := len(e.cal.buckets)
	for k, d := range delays[:min(len(delays), len(e.lanes))] {
		e.lanes[k] = lane{delay: d, ring: store[k*n : (k+1)*n : (k+1)*n], mask: uint64(n - 1)}
	}
}

// ReserveSeq consumes the next n sequence numbers and returns the first,
// without scheduling anything. An event-coalescing layer (the wormhole
// simulator's span drains) reserves the sequence range its micro-events
// would have occupied, then schedules the few events it does materialize
// into those slots via ScheduleSeq: same-time tie-breaking — and with it
// the whole run — stays bitwise identical to the uncoalesced schedule.
//
//quarc:hotpath
func (e *Engine) ReserveSeq(n int) uint64 {
	base := e.seq + 1
	e.seq += uint64(n)
	return base
}

// ScheduleSeq schedules ev at absolute time t under an explicit sequence
// number previously obtained from ReserveSeq. Reusing a live sequence
// number is a logic error (two events would tie exactly); the engine does
// not check for it.
//
//quarc:hotpath
func (e *Engine) ScheduleSeq(t float64, seq uint64, ev Event) {
	if !(t >= e.now) {
		e.refuse(t)
	}
	e.put(t, seq, ev)
}

// refuse panics on a time Schedule and ScheduleSeq reject: NaN, or before
// now.
func (e *Engine) refuse(t float64) {
	if math.IsNaN(t) {
		panic("sim: scheduling event at NaN")
	}
	panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now))
}

// put files a checked event under (t, seq): into the lane whose delay it
// lands at, if that lane takes the key, and otherwise into the calendar.
// Either way the record is written where it will wait: place returns the
// slot with the key set and the remaining fields are stored straight into
// it. (Building the item first and copying it in is measurably slower —
// narrow field stores followed by a wide load of the same bytes defeat
// store forwarding.)
//
//quarc:hotpath
func (e *Engine) put(t float64, seq uint64, ev Event) {
	if e.useHeap {
		e.heap.push(item{t, seq, ev.Kind, ev.Arg, ev.Ref})
		return
	}
	var p *item
	if l := e.laneFor(t); l != nil {
		p = l.place(t, seq)
	}
	if p == nil {
		if p = e.cal.place(t, seq, e.now); p == nil {
			e.cal.pushOverflow(item{t, seq, ev.Kind, ev.Arg, ev.Ref})
			return
		}
	}
	p.kind, p.arg, p.ref = ev.Kind, ev.Arg, ev.Ref
}

// laneFor returns the lane whose delay t lands at, or nil.
//
//quarc:hotpath
func (e *Engine) laneFor(t float64) *lane {
	var l *lane
	if t == e.now+e.lanes[1].delay {
		l = &e.lanes[1]
	}
	if t == e.now+e.lanes[0].delay {
		l = &e.lanes[0]
	}
	return l
}

// Stop makes Run return after the currently executing event completes.
func (e *Engine) Stop() { e.stopped = true }

// Run executes events in time order until the event set is empty, Stop is
// called, or simulated time would exceed horizon (events strictly beyond
// the horizon are left unfired). Unless Stop was called, the clock is
// advanced to the horizon on return even when pending events lie beyond
// it, so back-to-back Run calls carve out exact, gap-free time windows.
// It returns the current time.
func (e *Engine) Run(horizon float64) float64 { return e.run(horizon, true) }

// RunBefore is Run with an exclusive horizon: events exactly at the
// horizon are left unfired, and unless Stop was called the clock still
// advances to the horizon. Together with Run's inclusive horizon this
// lets a caller carve time into exact half-open windows [a, b): run the
// prefix with RunBefore(a), switch phase state, then Run(b) fires
// everything in [a, b].
func (e *Engine) RunBefore(horizon float64) float64 { return e.run(horizon, false) }

//quarc:hotpath
func (e *Engine) run(horizon float64, inclusive bool) float64 {
	e.stopped = false
	var popped item // the heap scheduler pops by value
	for !e.stopped {
		var p *item
		if l0, l1 := &e.lanes[0], &e.lanes[1]; e.useHeap || l0.head == l0.tail && l1.head == l1.tail {
			// No lane event to merge with: pop the earliest event, and put
			// it back if it lies beyond this run's window.
			p = &popped
			if e.useHeap {
				if len(e.heap) == 0 {
					break
				}
				popped = e.heap.pop()
			} else if p = e.cal.popRef(e.now); p == nil {
				break
			}
			if beyond(p.t, horizon, inclusive) {
				if e.useHeap {
					e.heap.push(*p)
				} else {
					e.cal.unpop(*p)
				}
				break
			}
		} else {
			// Merge the lane fronts with the calendar's earliest key,
			// cached across lane pops; pop the winner only inside the window.
			p = e.cal.peek()
			var src *lane
			for k := range e.lanes {
				if f := e.lanes[k].front(); f != nil && (p == nil || keyLess(f.t, f.seq, p)) {
					p, src = f, &e.lanes[k]
				}
			}
			if beyond(p.t, horizon, inclusive) {
				break
			}
			if src != nil {
				src.head++
			} else {
				p = e.cal.popRef(e.now)
			}
		}
		// Read the record out before dispatch: p points into the bucket or
		// ring it was popped from, and a handler scheduling there may
		// compact, overwrite or abandon the slot.
		ev := Event{Kind: p.kind, Arg: p.arg, Ref: p.ref}
		e.now = p.t
		e.fired++
		if e.handler == nil {
			panic("sim: event fired on an engine without a handler")
		}
		e.handler.Handle(e, ev)
	}
	if !e.stopped && e.now < horizon && !math.IsInf(horizon, 1) {
		e.now = horizon
	}
	return e.now
}

// beyond reports whether an event at t lies outside the window of a run
// to horizon: after it, or exactly at an exclusive one.
func beyond(t, horizon float64, inclusive bool) bool {
	return t > horizon || (!inclusive && t == horizon)
}

// RunAll executes events until none remain or Stop is called.
func (e *Engine) RunAll() float64 { return e.Run(math.Inf(1)) }
