package sim

import (
	"bytes"
	"math"
	"math/rand/v2"
	"slices"
	"testing"
)

// sink records the dispatch order of typed events.
type sink struct {
	times []float64
	args  []int32
}

func (s *sink) Handle(e *Engine, ev Event) {
	s.times = append(s.times, e.Now())
	s.args = append(s.args, ev.Arg)
}

// drive feeds the same randomized schedule to an engine: an interleaving
// of up-front scheduling, partial runs, and events scheduled from inside
// events, covering same-time bursts and far-future horizons.
func drive(e *Engine, seed uint64) *sink {
	s := &sink{}
	e.SetHandler(s)
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
		case 3: // event that schedules more events when it fires
			k := rng.IntN(4)
			e.At(e.Now()+rng.Float64()*200, func(e *Engine) {
				for j := 0; j < k; j++ {
					e.Schedule(e.Now()+float64(j), Event{Kind: 1, Arg: -1})
				}
			})
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
// rebuild from inside pop, mid-burst and at Run horizons.
func TestCalendarMatchesHeapOracle(t *testing.T) {
	for _, sched := range []struct {
		name  string
		seeds uint64
		drive func(e *Engine, seed uint64) *sink
	}{{"random", 50, drive}, {"bimodal", 10, driveBimodal}, {"rate-step", 10, driveRateStep}} {
		for seed := uint64(1); seed <= sched.seeds; seed++ {
			e := New()
			cal := sched.drive(e, seed)
			heap := sched.drive(NewWithHeap(), seed)
			if _, _, rebuilds, _ := e.Geometry(); rebuilds == 0 {
				t.Fatalf("%s seed %d: the calendar never rebuilt", sched.name, seed)
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
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 4096 {
			ops = ops[:4096]
		}
		run := func(e *Engine) *sink {
			s := &sink{}
			e.SetHandler(s)
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
				default: // op as a pseudo-random near time
					e.Schedule(e.Now()+float64(op)*1.5, Event{Kind: 1, Arg: id})
					id++
				}
			}
			e.RunAll()
			return s
		}
		cal, heap := run(New()), run(NewWithHeap())
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
