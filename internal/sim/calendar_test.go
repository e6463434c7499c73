package sim

import (
	"bytes"
	"math"
	"math/rand/v2"
	"slices"
	"testing"
)

// sink records the dispatch order of events, and how many keys a
// lane refused when the schedule counts them (laneShape).
type sink struct {
	times   []float64
	args    []int32
	refused int
}

func (s *sink) Handle(e *Engine, ev Event) {
	s.times = append(s.times, e.Now())
	s.args = append(s.args, ev.Arg)
}

// kindFanout is drive's event that schedules Arg more events when it fires.
const kindFanout Kind = 5

// drive feeds the same randomized schedule to an engine: an interleaving
// of up-front scheduling, partial runs, and events scheduled from inside
// events, covering same-time bursts and far-future horizons.
func drive(e *Engine, seed uint64) *sink {
	s := &sink{}
	e.SetHandler(handlerFunc(func(e *Engine, ev Event) {
		s.Handle(e, ev)
		if ev.Kind == kindFanout {
			for j := int32(0); j < ev.Arg; j++ {
				e.Schedule(e.Now()+float64(j), Event{Kind: 1, Arg: -1})
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
				e.Schedule(t, Event{Kind: 1, Arg: id})
				id++
			}
		case 1: // far-future outlier (exercises the overflow heap)
			e.Schedule(e.Now()+1e6+rng.Float64()*1e9, Event{Kind: 1, Arg: id})
			id++
		case 2: // partial run to a horizon, then keep scheduling
			e.Run(e.Now() + rng.Float64()*100)
		case 3: // event that schedules Arg more events when it fires
			k := rng.IntN(4)
			e.Schedule(e.Now()+rng.Float64()*200, Event{Kind: kindFanout, Arg: int32(k)})
		default: // plain event at a random near-future time
			e.Schedule(e.Now()+rng.Float64()*500, Event{Kind: 1, Arg: id})
			id++
		}
	}
	e.RunAll()
	return s
}

// TestCalendarMatchesHeapOracle is the differential property test of the
// tentpole: the calendar queue must pop in exactly the binary heap's
// (time, seq) order on random schedules, including same-time bursts and
// far-future horizons, and on the simulator-shaped schedules (steady
// bimodal, light -> heavy -> light) whose dequeue rate makes the calendar
// rebuild from inside pop, mid-burst and at Run horizons — and, with
// fixed-delay lanes declared, on chains the lanes serve (at least half the
// pops) interleaved with keys they must refuse.
func TestCalendarMatchesHeapOracle(t *testing.T) {
	for _, sched := range []struct {
		name  string
		seeds uint64
		drive func(e *Engine, seed uint64) *sink
	}{{"random", 50, drive}, {"bimodal", 10, driveBimodal}, {"rate-step", 10, driveRateStep}, {"lanes", 10, driveLanes}} {
		for seed := uint64(1); seed <= sched.seeds; seed++ {
			e := New()
			cal := sched.drive(e, seed)
			heap := sched.drive(NewWithHeap(), seed)
			if _, _, rebuilds, _ := e.Geometry(); rebuilds == 0 {
				t.Fatalf("%s seed %d: the calendar never rebuilt", sched.name, seed)
			}
			if delays, served := e.Lanes(); delays[0] != 0 {
				if share := float64(served[0]+served[1]) / float64(e.Fired()); share < 0.5 || cal.refused == 0 {
					t.Fatalf("%s seed %d: vacuous lane drive: lanes %v served %.2f of the pops, %d keys refused",
						sched.name, seed, delays, share, cal.refused)
				}
			}
			if len(cal.times) != len(heap.times) {
				t.Fatalf("%s seed %d: calendar fired %d events, heap %d", sched.name, seed, len(cal.times), len(heap.times))
			}
			for i := range cal.times {
				if cal.times[i] != heap.times[i] || cal.args[i] != heap.args[i] {
					t.Fatalf("%s seed %d: dispatch %d diverged: calendar (t=%v, arg=%d) vs heap (t=%v, arg=%d)",
						sched.name, seed, i, cal.times[i], cal.args[i], heap.times[i], heap.args[i])
				}
			}
		}
	}
}

// TestCalendarResizeGrowsAndShrinks forces the population through the
// resize thresholds in both directions and checks ordering plus that the
// geometry actually rebuilt.
func TestCalendarResizeGrowsAndShrinks(t *testing.T) {
	e := New()
	s := &sink{}
	e.SetHandler(s)
	const n = 20000
	rng := rand.New(rand.NewPCG(11, 13))
	for i := 0; i < n; i++ {
		e.Schedule(rng.Float64()*1e5, Event{Kind: 1, Arg: int32(i)})
	}
	if e.cal.resizes == 0 {
		t.Fatal("no grow resize triggered by 20000 pushes")
	}
	grew := e.cal.resizes
	e.RunAll()
	if e.cal.resizes == grew {
		t.Error("no shrink resize triggered while draining 20000 events")
	}
	if len(s.times) != n {
		t.Fatalf("fired %d events, want %d", len(s.times), n)
	}
	for i := 1; i < len(s.times); i++ {
		if s.times[i] < s.times[i-1] {
			t.Fatalf("dispatch %d out of order: %v after %v", i, s.times[i], s.times[i-1])
		}
	}
}

// TestCalendarSameInstantFlood pins the degenerate distribution: a huge
// same-time burst must stay FIFO and must not blow up (the sorted-bucket
// representation keeps it O(1) per op).
func TestCalendarSameInstantFlood(t *testing.T) {
	e := New()
	s := &sink{}
	e.SetHandler(s)
	const n = 50000
	for i := 0; i < n; i++ {
		e.Schedule(42, Event{Kind: 1, Arg: int32(i)})
	}
	e.RunAll()
	if len(s.args) != n {
		t.Fatalf("fired %d, want %d", len(s.args), n)
	}
	for i, a := range s.args {
		if a != int32(i) {
			t.Fatalf("same-instant burst not FIFO at %d: got arg %d", i, a)
		}
	}
}

// TestResetShrinksOverGrownStorage pins the Reset satellite: storage grown
// by a huge run is released on Reset instead of pinned for later runs.
func TestResetShrinksOverGrownStorage(t *testing.T) {
	e := New()
	const n = 4 * maxRetainedEvents
	for i := 0; i < n; i++ {
		e.Schedule(float64(i%1000), Event{Kind: 1, Arg: int32(i)})
	}
	e.Reset()
	total := 0
	for i := range e.cal.buckets {
		total += cap(e.cal.buckets[i].items)
	}
	if total+cap(e.cal.overflow) > maxRetainedEvents {
		t.Errorf("calendar retains %d+%d slots after Reset, want <= %d",
			total, cap(e.cal.overflow), maxRetainedEvents)
	}
	if e.Pending() != 0 {
		t.Errorf("Pending = %d after Reset, want 0", e.Pending())
	}

	h := NewWithHeap()
	for i := 0; i < n; i++ {
		h.Schedule(float64(i%1000), Event{Kind: 1, Arg: int32(i)})
	}
	h.Reset()
	if cap(h.heap) > maxRetainedEvents {
		t.Errorf("heap retains %d slots after Reset, want <= %d", cap(h.heap), maxRetainedEvents)
	}

	// Moderate storage is kept for reuse (the zero-alloc sweep path).
	e2 := New()
	for i := 0; i < 100; i++ {
		e2.Schedule(float64(i), Event{Kind: 1})
	}
	e2.Reset()
	if e2.cal.buckets == nil {
		t.Error("Reset dropped moderately sized calendar storage that should be reused")
	}
}

// FuzzCalendarVsHeap fuzzes the scheduler pair over encoded operation
// sequences, with a seed corpus aimed at bucket-resize edge cases.
func FuzzCalendarVsHeap(f *testing.F) {
	// Seed corpus: each byte drives one operation (see below). The seeds
	// force grow resizes (many pushes), shrink resizes (pushes then long
	// drains), same-instant bursts straddling a resize, far-future
	// outliers entering the overflow heap, and boundary-width times.
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0})         // steady pushes
	f.Add([]byte{1, 1, 1, 1, 1, 1, 1, 1})                                 // one same-instant burst per op
	f.Add([]byte{0, 0, 0, 0, 200, 0, 0, 0, 200})                          // pushes with partial drains
	f.Add([]byte{2, 2, 2, 0, 0, 2, 200, 2})                               // far-future outliers + drain
	f.Add([]byte{3, 3, 3, 3, 200, 3, 3, 200})                             // boundary-jitter times
	f.Add([]byte{1, 200, 1, 200, 1, 200})                                 // burst/drain ping-pong
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 250, 2}) // grow, full drain, refill far
	// Dequeue-rate rebuilds: a window of 4096 pops has to pass before the
	// width is re-measured, so these repeat a pattern. Bimodal: a parked
	// far timer and a 40-event burst per 64-cycle step, the rebuild firing
	// mid-burst. Rate step: 40, then 160, then 40 events per step — the
	// dequeue gap moves 4x each way, across Run horizons.
	f.Add(bytes.Repeat([]byte{2, 1, 200}, 120))
	f.Add(slices.Concat(bytes.Repeat([]byte{1, 200}, 110), bytes.Repeat([]byte{1, 1, 1, 1, 200}, 30), bytes.Repeat([]byte{1, 200}, 110)))
	// Lanes: chains at now+1 and now+7 with refused reserved keys between
	// partial drains; lane runs cut by horizons; a same-instant burst that
	// overfills the now+7 lane.
	f.Add([]byte{4, 4, 4, 200, 4, 1, 4, 200, 250, 4})
	f.Add(bytes.Repeat([]byte{4, 0, 4, 3, 200}, 60))
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 4096 {
			ops = ops[:4096]
		}
		// The calendar engine declares lanes for 1 and 7 (the heap ignores
		// the declaration); Pending is recorded after every op.
		run := func(e *Engine) (*sink, []int) {
			s := &sink{}
			e.SetHandler(s)
			e.DeclareLanes(1, 7)
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
				case op == 3: // boundary jitter: times packed around bucket edges
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
		cal, calPending := run(New())
		heap, heapPending := run(NewWithHeap())
		if slices.Compare(calPending, heapPending) != 0 {
			t.Fatalf("Pending diverged: calendar %v, heap %v", calPending, heapPending)
		}
		if len(cal.times) != len(heap.times) {
			t.Fatalf("calendar fired %d, heap fired %d", len(cal.times), len(heap.times))
		}
		for i := range cal.times {
			if cal.times[i] != heap.times[i] || cal.args[i] != heap.args[i] {
				t.Fatalf("dispatch %d diverged: calendar (t=%v, arg=%d) vs heap (t=%v, arg=%d)",
					i, cal.times[i], cal.args[i], heap.times[i], heap.args[i])
			}
		}
	})
}

// reentrant is a handler that schedules from inside Handle, driven by a
// cyclic op tape: the engine pops an event by reference and the handler
// then inserts into the very bucket the popped slot lives in. Every event
// carries a distinct (Kind, Arg, Ref), so a slot read after it was
// overwritten shows up in the record.
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
	case 1: // same day: enough to compact and then grow the popped bucket
		n = 17 + int(op>>4)
		at = func(j int) float64 { return e.Now() + float64(j)*1e-7 }
	case 2: // the next days
		n = 2
		at = func(j int) float64 { return e.Now() + float64(1+j)*1.25 }
	case 3: // far beyond the ring horizon: the overflow heap
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
// inside Handle, where the pop-by-reference hazard lives: calendar and
// heap must dispatch identical (t, Kind, Arg, Ref) sequences.
func FuzzEngineReentrant(f *testing.F) {
	f.Add([]byte{1, 1, 1, 1})                       // same-day floods only
	f.Add([]byte{0, 1, 2, 3, 4, 5})                 // one of each
	f.Add([]byte{4, 4, 4, 17, 4, 4, 33, 3, 4, 1})   // chains with floods and far timers
	f.Add([]byte{3, 3, 3, 4, 4, 4, 4, 4, 4, 4, 49}) // overflow-heavy
	f.Add(bytes.Repeat([]byte{4, 0, 4, 2, 1}, 40))  // long enough to cross a dequeue window
	f.Add([]byte{5, 5, 4, 5, 0, 5})                 // lane chains with refused keys
	f.Add(bytes.Repeat([]byte{5, 4, 1, 5, 3}, 30))  // lanes beside floods and far timers
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 1024 {
			ops = ops[:1024]
		}
		// The calendar engine declares lanes for 1 and 3 (the heap ignores
		// the declaration).
		run := func(e *Engine) ([]fired, []int) {
			r := &reentrant{ops: ops, budget: 6000}
			e.SetHandler(r)
			e.DeclareLanes(1, 3)
			for i := 0; i < 8; i++ {
				r.schedule(e, float64(i)*0.75, 0)
			}
			for i := 0; i < 64 && e.Pending() > 0; i++ {
				e.Run(e.Now() + 3.3) // horizons cut through floods and lane runs
			}
			e.RunAll()
			return r.log, r.pending
		}
		cal, calPending := run(New())
		heap, heapPending := run(NewWithHeap())
		if slices.Compare(calPending, heapPending) != 0 {
			t.Fatalf("Pending diverged: calendar %v, heap %v", calPending, heapPending)
		}
		if len(cal) != len(heap) {
			t.Fatalf("calendar fired %d, heap fired %d", len(cal), len(heap))
		}
		for i := range cal {
			if cal[i] != heap[i] {
				t.Fatalf("dispatch %d diverged: calendar %+v vs heap %+v", i, cal[i], heap[i])
			}
		}
	})
}

// TestOverflowDueCache drives the cached overflow due-day through every
// point that can move it — overflow pushes and pops, a hint, a grow and a
// shrink rebuild, width retunes, a RunBefore put-back and Reset —
// under the wormhole's shape: parked far timers behind a dense near
// stream. The cache must equal its definition at every checkpoint, the
// dispatch order must equal the heap oracle's, and once the clock has
// passed the timers nothing may be left in the overflow heap.
func TestOverflowDueCache(t *testing.T) {
	const (
		kindFar  Kind = 1 // parked far ahead; re-parks itself twice
		kindNear Kind = 2 // dense near stream: re-arms 0.25 ahead
		kindFill Kind = 3 // filler that forces the grow, then the shrink
	)
	var checks int
	check := func(e *Engine, where string) {
		if e.useHeap {
			return
		}
		q := &e.cal
		want := int64(math.MaxInt64)
		if len(q.overflow) > 0 {
			want = q.dayOf(q.overflow[0].t) - q.horizonDays
		}
		if q.ovDue != want {
			t.Fatalf("%s: ovDue = %d, its definition gives %d (%d in overflow, day %d)", where, q.ovDue, want, len(q.overflow), q.day)
		}
		checks++
	}
	drive := func(e *Engine) *sink {
		s := &sink{}
		var sawOverflow, grew, shrank bool
		e.SetHandler(handlerFunc(func(e *Engine, ev Event) {
			s.Handle(e, ev)
			switch ev.Kind {
			case kindFar:
				if ev.Ref > 0 { // re-park from inside Handle: an overflow push mid-run
					e.Schedule(e.Now()+4000, Event{Kind: kindFar, Arg: ev.Arg, Ref: ev.Ref - 1})
				}
			case kindNear:
				if e.Now() < 9000 {
					e.Schedule(e.Now()+0.25, ev)
				}
			}
			if len(s.times)%257 == 0 {
				check(e, "inside Handle")
			}
		}))
		e.HintSchedule(64, 32)
		for i := 0; i < 40; i++ {
			e.Schedule(5000+100*float64(i), Event{Kind: kindFar, Arg: int32(i), Ref: 2})
		}
		check(e, "after parking")
		if _, _, _, share := e.Geometry(); !e.useHeap && share != 1 {
			t.Fatalf("parked timers: overflow share %v, want 1", share)
		}
		for i := 0; i < 8; i++ {
			e.Schedule(float64(i)/32, Event{Kind: kindNear, Arg: int32(i)})
		}
		for step := 0; e.Pending() > 0 && step < 4000; step++ {
			if step == 20 { // the grow rebuild...
				_, _, before, _ := e.Geometry()
				for i := 0; i < 3000; i++ {
					e.Schedule(e.Now()+float64(i%1500)/3, Event{Kind: kindFill, Arg: int32(i)})
				}
				_, _, after, _ := e.Geometry()
				grew = after > before
			}
			// ... and exclusive horizons landing exactly on an event (the
			// near stream fires at every integer time): the head is popped,
			// found at the horizon and put back.
			e.RunBefore(math.Ceil(e.Now()) + 7)
			check(e, "after RunBefore")
			e.Run(e.Now() + 3.3)
			check(e, "after Run")
			_, _, _, share := e.Geometry()
			sawOverflow = sawOverflow || share > 0
			if step == 400 {
				b, _, _, _ := e.Geometry()
				shrank = b < bucketsFor(3000)
			}
			if e.Now() > 17000 && !e.useHeap && len(e.cal.overflow) != 0 {
				t.Fatalf("clock at %v, past every timer, with %d events still in overflow", e.Now(), len(e.cal.overflow))
			}
		}
		if !e.useHeap && !(sawOverflow && grew && shrank) {
			t.Fatalf("vacuous drive: overflow %v, grow %v, shrink %v", sawOverflow, grew, shrank)
		}
		if e.Pending() != 0 {
			t.Fatalf("%d events left after the drive", e.Pending())
		}
		if _, _, _, share := e.Geometry(); share != 0 {
			t.Fatalf("overflow share %v after the drain, want 0", share)
		}
		return s
	}
	equal := func(stage string, cal, heap *sink) {
		if !slices.Equal(cal.times, heap.times) || !slices.Equal(cal.args, heap.args) {
			t.Fatalf("%s: calendar and heap dispatch orders differ (%d vs %d events)", stage, len(cal.times), len(heap.times))
		}
	}
	e, oracle := New(), NewWithHeap()
	equal("first drive", drive(e), drive(oracle))

	// Reset with timers parked: the cache must not survive them.
	e.Schedule(e.Now()+1e6, Event{Kind: kindFill})
	e.Reset()
	oracle.Reset()
	check(e, "after Reset")
	if e.cal.ovDue != math.MaxInt64 {
		t.Fatalf("ovDue = %d after Reset, want the empty-heap sentinel", e.cal.ovDue)
	}
	equal("after Reset", drive(e), drive(oracle))
	if checks == 0 {
		t.Fatal("no checkpoint ran")
	}
}

// handlerFunc adapts a function to Handler.
type handlerFunc func(e *Engine, ev Event)

func (f handlerFunc) Handle(e *Engine, ev Event) { f(e, ev) }
