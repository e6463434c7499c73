package sim

import (
	"bytes"
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"sort"
	"testing"
)

// keyOrder is the test's own reference for the dispatch order: every
// pending event with its key (t, seq), in a slice kept sorted with the
// minimum last. Each dispatch must be that minimum. It knows nothing of
// heaps or lanes, so it holds the heap to account where both sides of an
// oracle comparison run on one.
type keyOrder struct {
	pending []item
	checked int
	err     string // the first dispatch that was not the minimum
}

// schedule schedules ev at t on e and files its key.
func (o *keyOrder) schedule(e *Engine, t float64, ev Event) {
	e.Schedule(t, ev)
	o.file(item{t, e.seq, ev.Kind, ev.Arg, ev.Ref})
}

// scheduleSeq is schedule under a sequence number from ReserveSeq.
func (o *keyOrder) scheduleSeq(e *Engine, t float64, seq uint64, ev Event) {
	e.ScheduleSeq(t, seq, ev)
	o.file(item{t, seq, ev.Kind, ev.Arg, ev.Ref})
}

func (o *keyOrder) file(it item) {
	i := sort.Search(len(o.pending), func(i int) bool {
		p := o.pending[i]
		return p.t < it.t || p.t == it.t && p.seq < it.seq
	})
	o.pending = slices.Insert(o.pending, i, it)
}

// fired checks a dispatch against the minimum and drops it. After the
// first mismatch it records nothing more.
func (o *keyOrder) fired(e *Engine, ev Event) {
	n := len(o.pending) - 1
	switch {
	case o.err != "":
		return
	case n < 0:
		o.err = fmt.Sprintf("dispatch %d (t=%v, %+v) with no key pending", o.checked, e.Now(), ev)
		return
	}
	if m := o.pending[n]; m.t != e.Now() || (Event{m.kind, m.arg, m.ref}) != ev {
		o.err = fmt.Sprintf("dispatch %d is (t=%v, %+v), the reference's minimum (t=%v, seq %d, %+v)",
			o.checked, e.Now(), ev, m.t, m.seq, Event{m.kind, m.arg, m.ref})
		return
	}
	o.pending = o.pending[:n]
	o.checked++
}

// check fails t unless each of the fired dispatches was the minimum.
func (o *keyOrder) check(t *testing.T, name string, fired uint64) {
	t.Helper()
	if o.err != "" {
		t.Fatalf("%s: %s", name, o.err)
	}
	if uint64(o.checked) != fired {
		t.Fatalf("%s: %d dispatches checked against the reference, %d fired", name, o.checked, fired)
	}
}

// sink records the dispatch order of events and, when it has a reference
// order (the schedule then goes through it), checks each dispatch against
// it; laneShape also counts the keys a lane refused.
type sink struct {
	times   []float64
	args    []int32
	order   *keyOrder
	refused int
}

func (s *sink) Handle(e *Engine, ev Event) {
	s.times = append(s.times, e.Now())
	s.args = append(s.args, ev.Arg)
	if s.order != nil {
		s.order.fired(e, ev)
	}
}

// kindFanout is drive's event that schedules Arg more events when it fires.
const kindFanout Kind = 5

// drive feeds the same randomized schedule to an engine: an interleaving
// of up-front scheduling, partial runs, and events scheduled from inside
// events, covering same-time bursts and far-future horizons.
func drive(e *Engine, seed uint64) *sink {
	o := &keyOrder{}
	s := &sink{order: o}
	e.SetHandler(handlerFunc(func(e *Engine, ev Event) {
		s.Handle(e, ev)
		if ev.Kind == kindFanout {
			for j := int32(0); j < ev.Arg; j++ {
				o.schedule(e, e.Now()+float64(j), Event{Kind: 1, Arg: -1})
			}
		}
	}))
	rng := rand.New(rand.NewPCG(seed, 0xCA1E))
	n := 200 + rng.IntN(800)
	id := int32(0)
	for i := 0; i < n; i++ {
		switch rng.IntN(10) {
		case 0: // same-time burst at a shared instant
			t := e.Now() + float64(rng.IntN(50))
			burst := 1 + rng.IntN(32)
			for j := 0; j < burst; j++ {
				o.schedule(e, t, Event{Kind: 1, Arg: id})
				id++
			}
		case 1: // far-future outlier
			o.schedule(e, e.Now()+1e6+rng.Float64()*1e9, Event{Kind: 1, Arg: id})
			id++
		case 2: // partial run to a horizon, then keep scheduling
			e.Run(e.Now() + rng.Float64()*100)
		case 3: // event that schedules Arg more events when it fires
			k := rng.IntN(4)
			o.schedule(e, e.Now()+rng.Float64()*200, Event{Kind: kindFanout, Arg: int32(k)})
		default: // plain event at a random near-future time
			o.schedule(e, e.Now()+rng.Float64()*500, Event{Kind: 1, Arg: id})
			id++
		}
	}
	e.RunAll()
	return s
}

// TestCalendarMatchesHeapOracle is the scheduler's differential property
// test: an engine with fixed-delay lanes must dispatch in exactly the
// order of an engine without them, whose heap holds every event, and on
// both every dispatch must be the minimum of the test's own sorted list
// of pending keys. The schedules: random ones with same-time bursts,
// far-future horizons and events scheduled from inside events (lanes at
// 0 and 1); the simulator-shaped ones, steady bimodal and light -> heavy
// -> light, with Run horizons cutting their bursts (lanes at 1 and 32);
// and chains the lanes serve (at least half the pops) interleaved with
// reserved keys they must refuse (lanes at 1 and laneL).
func TestCalendarMatchesHeapOracle(t *testing.T) {
	for _, sched := range []struct {
		name  string
		seeds uint64
		lanes []float64
		drive func(e *Engine, seed uint64) *sink
	}{
		{"random", 50, []float64{0, 1}, drive},
		{"bimodal", 10, []float64{1, 32}, driveBimodal},
		{"rate-step", 10, []float64{1, 32}, driveRateStep},
		{"lanes", 10, []float64{1, laneL}, driveLanes},
	} {
		for seed := uint64(1); seed <= sched.seeds; seed++ {
			name := fmt.Sprintf("%s seed %d", sched.name, seed)
			e, oracle := New(), New()
			e.DeclareLanes(sched.lanes...)
			lanes, heap := sched.drive(e, seed), sched.drive(oracle, seed)
			lanes.order.check(t, name+" with lanes", e.Fired())
			heap.order.check(t, name+" without lanes", oracle.Fired())
			_, served := e.Lanes()
			share := float64(served[0]+served[1]) / float64(e.Fired())
			if share == 0 || sched.name == "lanes" && (share < 0.5 || lanes.refused == 0) {
				t.Fatalf("%s: vacuous lane drive: lanes %v served %.2f of the pops, %d keys refused",
					name, sched.lanes, share, lanes.refused)
			}
			if len(lanes.times) != len(heap.times) {
				t.Fatalf("%s: the engine with lanes fired %d events, without %d", name, len(lanes.times), len(heap.times))
			}
			for i := range lanes.times {
				if lanes.times[i] != heap.times[i] || lanes.args[i] != heap.args[i] {
					t.Fatalf("%s: dispatch %d diverged: with lanes (t=%v, arg=%d), without (t=%v, arg=%d)",
						name, i, lanes.times[i], lanes.args[i], heap.times[i], heap.args[i])
				}
			}
		}
	}
}

// TestCalendarSameInstantFlood pins the degenerate distribution: a huge
// same-time burst must stay FIFO, on the heap and on a lane whose delay
// it lands at, which grows its ring to take all of it.
func TestCalendarSameInstantFlood(t *testing.T) {
	const n = 50000
	for _, lanes := range [][]float64{nil, {42}} {
		e := New()
		e.DeclareLanes(lanes...)
		s := &sink{}
		e.SetHandler(s)
		for i := 0; i < n; i++ {
			e.Schedule(42, Event{Kind: 1, Arg: int32(i)})
		}
		e.RunAll()
		if len(s.args) != n {
			t.Fatalf("lanes %v: fired %d, want %d", lanes, len(s.args), n)
		}
		for i, a := range s.args {
			if a != int32(i) {
				t.Fatalf("lanes %v: same-instant burst not FIFO at %d: got arg %d", lanes, i, a)
			}
		}
		if _, served := e.Lanes(); lanes != nil && served[0] != n {
			t.Fatalf("the lane served %d of the %d events", served[0], n)
		}
	}
}

// TestResetShrinksOverGrownStorage pins the Reset rule: a heap and a lane
// ring grown by a huge run are released on Reset instead of pinned for
// later runs, and moderate ones are kept for reuse.
func TestResetShrinksOverGrownStorage(t *testing.T) {
	fill := func(e *Engine, n int) {
		e.DeclareLanes(1)
		for i := 0; i < n; i++ {
			e.Schedule(float64(i%1000)+0.5, Event{Kind: 1, Arg: int32(i)}) // the heap
			e.Schedule(1, Event{Kind: 1, Arg: int32(i)})                   // the lane
		}
	}
	e := New()
	fill(e, 4*maxRetainedEvents)
	if len(e.heap) <= maxRetainedEvents || e.lanes[0].len() <= maxRetainedEvents {
		t.Fatalf("the fill holds %d heap and %d lane events: the check is vacuous", len(e.heap), e.lanes[0].len())
	}
	e.Reset()
	if cap(e.heap) > maxRetainedEvents || cap(e.lanes[0].ring) > maxRetainedEvents {
		t.Errorf("Reset retains %d heap and %d ring slots, want <= %d each",
			cap(e.heap), cap(e.lanes[0].ring), maxRetainedEvents)
	}
	if e.Pending() != 0 {
		t.Errorf("Pending = %d after Reset, want 0", e.Pending())
	}

	// Moderate storage is kept for reuse (the zero-alloc sweep path), and
	// the next declaration takes the kept ring.
	e2 := New()
	fill(e2, 100)
	ring := &e2.lanes[0].ring[0]
	e2.Reset()
	if cap(e2.heap) == 0 || cap(e2.lanes[0].ring) == 0 {
		t.Fatal("Reset dropped moderately sized storage that should be reused")
	}
	e2.DeclareLanes(1)
	if &e2.lanes[0].ring[0] != ring {
		t.Error("DeclareLanes after Reset allocated a ring instead of reusing the kept one")
	}
}

// FuzzCalendarVsHeap fuzzes an engine with lanes against one without over
// encoded operation sequences.
func FuzzCalendarVsHeap(f *testing.F) {
	// Seed corpus: each byte drives one operation (see below). The seeds
	// cover steady pushes, same-instant bursts, pushes with partial drains,
	// far-future outliers, boundary-jitter times and bursts ping-ponging
	// with drains; two long ones repeat a parked timer behind a burst, and
	// a 4x step in the burst rate across Run horizons.
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0})         // steady pushes
	f.Add([]byte{1, 1, 1, 1, 1, 1, 1, 1})                                 // one same-instant burst per op
	f.Add([]byte{0, 0, 0, 0, 200, 0, 0, 0, 200})                          // pushes with partial drains
	f.Add([]byte{2, 2, 2, 0, 0, 2, 200, 2})                               // far-future outliers + drain
	f.Add([]byte{3, 3, 3, 3, 200, 3, 3, 200})                             // boundary-jitter times
	f.Add([]byte{1, 200, 1, 200, 1, 200})                                 // burst/drain ping-pong
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 250, 2}) // full drain, refill far
	f.Add(bytes.Repeat([]byte{2, 1, 200}, 120))
	f.Add(slices.Concat(bytes.Repeat([]byte{1, 200}, 110), bytes.Repeat([]byte{1, 1, 1, 1, 200}, 30), bytes.Repeat([]byte{1, 200}, 110)))
	// Lanes: chains at now+1 and now+7 with refused reserved keys between
	// partial drains; lane runs cut by horizons; a same-instant burst that
	// fills the now+7 lane's ring and grows it.
	f.Add([]byte{4, 4, 4, 200, 4, 1, 4, 200, 250, 4})
	f.Add(bytes.Repeat([]byte{4, 0, 4, 3, 200}, 60))
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 4096 {
			ops = ops[:4096]
		}
		// One engine declares lanes for 1 and 7, the other none; Pending
		// is recorded after every op.
		run := func(lanes ...float64) (*sink, []int) {
			e := New()
			e.DeclareLanes(lanes...)
			s := &sink{}
			e.SetHandler(s)
			var pending []int
			id := int32(0)
			for _, op := range ops {
				switch {
				case op >= 250: // drain fully
					e.RunAll()
				case op >= 200: // drain one horizon step
					e.Run(e.Now() + 64)
				case op == 1: // same-instant burst
					t0 := e.Now() + 7
					for j := 0; j < 40; j++ {
						e.Schedule(t0, Event{Kind: 1, Arg: id})
						id++
					}
				case op == 2: // far-future outlier
					e.Schedule(e.Now()+1e9, Event{Kind: 1, Arg: id})
					id++
				case op == 3: // boundary jitter: times packed just past integer instants
					base := math.Floor(e.Now()) + 1
					for j := 0; j < 8; j++ {
						e.Schedule(base+float64(j)+1e-9, Event{Kind: 1, Arg: id})
						id++
					}
				case op == 4: // the lanes: a step and a drain, then reserved keys under both that they refuse
					seq := e.ReserveSeq(2)
					e.Schedule(e.Now()+1, Event{Kind: 1, Arg: id})
					e.Schedule(e.Now()+7, Event{Kind: 1, Arg: id + 1})
					e.ScheduleSeq(e.Now()+1, seq, Event{Kind: 1, Arg: id + 2})
					e.ScheduleSeq(e.Now()+7, seq+1, Event{Kind: 1, Arg: id + 3})
					id += 4
				default: // op as a pseudo-random near time
					e.Schedule(e.Now()+float64(op)*1.5, Event{Kind: 1, Arg: id})
					id++
				}
				pending = append(pending, e.Pending())
			}
			e.RunAll()
			return s, pending
		}
		lanes, lanesPending := run(1, 7)
		heap, heapPending := run()
		if slices.Compare(lanesPending, heapPending) != 0 {
			t.Fatalf("Pending diverged: with lanes %v, without %v", lanesPending, heapPending)
		}
		if len(lanes.times) != len(heap.times) {
			t.Fatalf("the engine with lanes fired %d, without %d", len(lanes.times), len(heap.times))
		}
		for i := range lanes.times {
			if lanes.times[i] != heap.times[i] || lanes.args[i] != heap.args[i] {
				t.Fatalf("dispatch %d diverged: with lanes (t=%v, arg=%d), without (t=%v, arg=%d)",
					i, lanes.times[i], lanes.args[i], heap.times[i], heap.args[i])
			}
		}
	})
}

// reentrant is a handler that schedules from inside Handle, driven by a
// cyclic op tape: the engine reads an event where it waits — the heap's
// root or a ring slot — and removes it before dispatch, and the handler
// then schedules into the very structure it came from. Every event
// carries a distinct (Kind, Arg, Ref), so a record read after it was
// overwritten shows up in the log.
type reentrant struct {
	ops     []byte
	cursor  int
	next    int32 // id of the next event to schedule
	budget  int   // events the handler may still schedule
	log     []fired
	pending []int // Pending() after each op
}

type fired struct {
	t    float64
	kind Kind
	arg  int32
	ref  int32
}

// schedule files the next event at t, under a fresh sequence number or,
// when seq is not zero, under that reserved one.
func (r *reentrant) schedule(e *Engine, t float64, seq uint64) {
	id := r.next
	r.next++
	ev := Event{Kind: Kind(id%250 + 1), Arg: id, Ref: -id * 7}
	if seq != 0 {
		e.ScheduleSeq(t, seq, ev)
	} else {
		e.Schedule(t, ev)
	}
}

func (r *reentrant) Handle(e *Engine, ev Event) {
	r.log = append(r.log, fired{e.Now(), ev.Kind, ev.Arg, ev.Ref})
	r.react(e)
}

// react consumes one op and schedules what it asks for, all relative to
// the firing event's own time.
func (r *reentrant) react(e *Engine) {
	if len(r.ops) == 0 || r.budget <= 0 {
		return
	}
	op := r.ops[r.cursor%len(r.ops)]
	r.cursor++
	defer func() { r.pending = append(r.pending, e.Pending()) }()
	n, at := 0, func(int) float64 { return e.Now() }
	switch op % 6 {
	case 0: // same instant
		n = 1 + int(op>>4)%3
	case 1: // a flood packed into the next microcycle
		n = 17 + int(op>>4)
		at = func(j int) float64 { return e.Now() + float64(j)*1e-7 }
	case 2: // the next cycles
		n = 2
		at = func(j int) float64 { return e.Now() + float64(1+j)*1.25 }
	case 3: // far ahead: a parked timer
		n = 1
		at = func(int) float64 { return e.Now() + 1e7 + float64(op) }
	case 4: // one step ahead: keeps a chain alive
		n = 1
		at = func(int) float64 { return e.Now() + 0.5 }
	case 5: // the lanes: a step at now+1 and a drain at now+3, then a
		// reserved key under each that the lane refuses
		if r.budget < 4 {
			return
		}
		seq := e.ReserveSeq(2)
		r.schedule(e, e.Now()+1, 0)
		r.schedule(e, e.Now()+3, 0)
		r.schedule(e, e.Now()+1, seq)
		r.schedule(e, e.Now()+3, seq+1)
		r.budget -= 4
	}
	for j := 0; j < n && r.budget > 0; j++ {
		r.schedule(e, at(j), 0)
		r.budget--
	}
}

// FuzzEngineReentrant is FuzzCalendarVsHeap with the scheduling moved
// inside Handle, where a record could be read after the structure it
// waited in moved on: the engines with and without lanes must dispatch
// identical (t, Kind, Arg, Ref) sequences and agree on Pending() after
// every op.
func FuzzEngineReentrant(f *testing.F) {
	f.Add([]byte{1, 1, 1, 1})                       // floods only
	f.Add([]byte{0, 1, 2, 3, 4, 5})                 // one of each
	f.Add([]byte{4, 4, 4, 17, 4, 4, 33, 3, 4, 1})   // chains with floods and far timers
	f.Add([]byte{3, 3, 3, 4, 4, 4, 4, 4, 4, 4, 49}) // timer-heavy
	f.Add(bytes.Repeat([]byte{4, 0, 4, 2, 1}, 40))  // a long mixed tape
	f.Add([]byte{5, 5, 4, 5, 0, 5})                 // lane chains with refused keys
	f.Add(bytes.Repeat([]byte{5, 4, 1, 5, 3}, 30))  // lanes beside floods and far timers
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 1024 {
			ops = ops[:1024]
		}
		// One engine declares lanes for 1 and 3, the other none.
		run := func(lanes ...float64) ([]fired, []int) {
			e := New()
			e.DeclareLanes(lanes...)
			r := &reentrant{ops: ops, budget: 6000}
			e.SetHandler(r)
			for i := 0; i < 8; i++ {
				r.schedule(e, float64(i)*0.75, 0)
			}
			for i := 0; i < 64 && e.Pending() > 0; i++ {
				e.Run(e.Now() + 3.3) // horizons cut through floods and lane runs
			}
			e.RunAll()
			return r.log, r.pending
		}
		lanes, lanesPending := run(1, 3)
		heap, heapPending := run()
		if slices.Compare(lanesPending, heapPending) != 0 {
			t.Fatalf("Pending diverged: with lanes %v, without %v", lanesPending, heapPending)
		}
		if len(lanes) != len(heap) {
			t.Fatalf("the engine with lanes fired %d, without %d", len(lanes), len(heap))
		}
		for i := range lanes {
			if lanes[i] != heap[i] {
				t.Fatalf("dispatch %d diverged: with lanes %+v, without %+v", i, lanes[i], heap[i])
			}
		}
	})
}

// handlerFunc adapts a function to Handler.
type handlerFunc func(e *Engine, ev Event)

func (f handlerFunc) Handle(e *Engine, ev Event) { f(e, ev) }
