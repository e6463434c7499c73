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
// # Scheduler
//
// The pending-event set is a binary min-heap fronted by up to two
// fixed-delay lanes (DeclareLanes): FIFOs for events filed a constant
// delay after the clock, which arrive already sorted and never reach the
// heap. A lane refuses any key that would order before its tail, so the
// dispatch order is a pure function of the (time, sequence) keys whichever
// structure holds an event: lanes show only in the throughput. An engine
// without lanes, its heap holding every event, is the oracle the lanes are
// differential-tested against.
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

// item is one pending event as the heap and the lanes store it: 32 bytes,
// two to a cache line, no pointers.
type item struct {
	t        float64
	seq      uint64
	kind     Kind
	arg, ref int32
}

// keyLess reports whether key (t, seq) orders before b's.
//
//quarc:hotpath
func keyLess(t float64, seq uint64, b *item) bool {
	if t != b.t {
		return t < b.t
	}
	return seq < b.seq
}

// eventHeap is a binary min-heap ordered by (t, seq). The sift operations
// are inlined here rather than going through container/heap, whose
// interface-based API boxes every pushed item into an allocation, and both
// move a hole instead of swapping: every item moved is written once, into
// the slot it ends in.
type eventHeap []item

// push files ev under (t, seq): parents that order after the key move down
// into the hole until the key's slot is found, and the record is written
// there.
//
//quarc:hotpath
func (h *eventHeap) push(t float64, seq uint64, ev Event) {
	hh := append(*h, item{})
	i := len(hh) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !keyLess(t, seq, &hh[parent]) {
			break
		}
		hh[i] = hh[parent]
		i = parent
	}
	p := &hh[i]
	p.t, p.seq, p.kind, p.arg, p.ref = t, seq, ev.Kind, ev.Arg, ev.Ref
	*h = hh
}

// pop removes the root, which the caller has read: the last item sinks
// from the root through the hole, past every smaller child, and the heap
// shrinks by its old slot.
//
//quarc:hotpath
func (h *eventHeap) pop() {
	hh := *h
	n := len(hh) - 1
	last := &hh[n]
	i := 0
	for {
		j := 2*i + 1
		if j >= n {
			break
		}
		if r := j + 1; r < n && keyLess(hh[r].t, hh[r].seq, &hh[j]) {
			j = r
		}
		if !keyLess(hh[j].t, hh[j].seq, last) {
			break
		}
		hh[i] = hh[j]
		i = j
	}
	hh[i] = *last
	*h = hh[:n]
}

// maxRetainedEvents caps the event storage — the heap and each lane ring —
// an Engine keeps across Reset: a single saturated run can grow the
// pending set enormously, and retaining all of it would pin that memory
// for every later point of a sweep.
const maxRetainedEvents = 1 << 15

// Engine is a discrete-event scheduler. The zero value is ready to use and
// has no lanes.
type Engine struct {
	now  float64
	seq  uint64
	heap eventHeap
	// lanes are the fixed-delay FIFOs in front of the heap (see lane and
	// DeclareLanes); an undeclared lane refuses every event.
	lanes   [2]lane
	handler Handler
	stopped bool
	fired   uint64
}

// New returns an empty engine at time zero, with no lanes.
func New() *Engine { return &Engine{} }

// Reset returns the engine to its zero state — time zero, no pending
// events, counters cleared and no lanes declared (re-issue DeclareLanes
// after it) — while keeping the allocated event storage and the handler,
// so one engine can be reused across the points of a sweep without
// reallocating. Storage grossly over-grown by a past run (a heap or a ring
// beyond maxRetainedEvents) is released instead of retained.
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
	for k := range e.lanes {
		e.lanes[k].clear()
	}
}

// SetHandler installs the event dispatcher. Scheduling an event on an
// engine without a handler is a logic error (Run panics when it fires).
func (e *Engine) SetHandler(h Handler) { e.handler = h }

// Now returns the current simulated time.
func (e *Engine) Now() float64 { return e.now }

// Fired returns the number of events executed so far.
func (e *Engine) Fired() uint64 { return e.fired }

// Pending returns the number of scheduled, not-yet-fired events.
func (e *Engine) Pending() int { return len(e.heap) + e.lanes[0].len() + e.lanes[1].len() }

// Lanes reports the declared fixed-delay lanes — each one's delay and the
// events it has served since it was declared, zero for an undeclared lane
// — for tests and out-of-band reporting. It only ever describes speed.
func (e *Engine) Lanes() (delays [2]float64, served [2]uint64) {
	for k := range e.lanes {
		if l := &e.lanes[k]; len(l.ring) > 0 {
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

// DeclareLanes gives the engine a fixed-delay lane for each of up to two
// delays (further ones are ignored) and undeclares the rest: a FIFO that
// takes every event scheduled exactly that delay after the clock, where it
// arrives already in (time, sequence) order, so the heap never sifts it.
// Declare the delays a workload schedules at most often — the wormhole
// simulator's one-cycle header steps and message-length drains; any delay
// is safe, since a lane refuses a key that would order before its tail.
// DeclareLanes() with no delays leaves the engine without lanes, every
// event on the heap. Lanes are purely about speed: a ring is allocated
// here, or kept from before Reset, and doubles whenever it is full. An
// engine with pending events ignores the call; Reset undeclares the lanes.
func (e *Engine) DeclareLanes(delays ...float64) {
	if e.Pending() > 0 {
		return
	}
	for k := range e.lanes {
		if k < len(delays) {
			e.lanes[k].declare(delays[k])
		} else {
			e.lanes[k].clear()
		}
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
// lands at, if that lane takes the key, and otherwise into the heap.
// Either way the record is written where it will wait: place returns the
// ring slot with the key set and the remaining fields are stored straight
// into it, and push writes the record into the hole its sift leaves.
// (Building the item first and copying it in is measurably slower —
// narrow field stores followed by a wide load of the same bytes defeat
// store forwarding.)
//
//quarc:hotpath
func (e *Engine) put(t float64, seq uint64, ev Event) {
	if l := e.laneFor(t); l != nil {
		if p := l.place(t, seq); p != nil {
			p.kind, p.arg, p.ref = ev.Kind, ev.Arg, ev.Ref
			return
		}
	}
	e.heap.push(t, seq, ev)
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
	for !e.stopped {
		// The earliest event is the heap's root or a lane's front, each
		// read where it waits; only the winner, and only inside the
		// window, is removed.
		var p *item
		if len(e.heap) > 0 {
			p = &e.heap[0]
		}
		var src *lane
		for k := range e.lanes {
			if f := e.lanes[k].front(); f != nil && (p == nil || keyLess(f.t, f.seq, p)) {
				p, src = f, &e.lanes[k]
			}
		}
		if p == nil || beyond(p.t, horizon, inclusive) {
			break
		}
		// Read the record out before removing it: the heap's pop moves
		// another item into p's slot, and a handler scheduling into the
		// ring may overwrite it.
		ev := Event{Kind: p.kind, Arg: p.arg, Ref: p.ref}
		e.now = p.t
		if src != nil {
			src.head++
		} else {
			e.heap.pop()
		}
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
