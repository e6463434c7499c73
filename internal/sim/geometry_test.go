package sim

import (
	"math"
	"math/rand/v2"
	"testing"
)

// simShape is a schedule shaped like the wormhole simulator's: parked
// generation timers that re-arm themselves exp(mean) cycles ahead, each
// firing a chain of three +1 header steps and one +32 drain — a few
// events a cycle at the head of the queue in front of a population that
// sits hundreds of cycles out. Times snap to a quarter-cycle grid so
// chains of different timers tie and the (time, seq) order is exercised.
type simShape struct {
	sink
	rng  *rand.Rand
	mean float64
	cnt  *geomCount // nil unless the run is being counted
}

const (
	kindTimer Kind = 2
	kindStep  Kind = 3
)

func newSimShape(e *Engine, seed uint64, timers int, mean float64) *simShape {
	s := &simShape{rng: rand.New(rand.NewPCG(seed, 0x51A9E)), mean: mean}
	e.SetHandler(s)
	for i := 0; i < timers; i++ {
		s.schedule(e, s.park(e), Event{Kind: kindTimer, Arg: int32(i)})
	}
	return s
}

func (s *simShape) park(e *Engine) float64 {
	return e.Now() + math.Ceil(s.rng.ExpFloat64()*s.mean*4)/4
}

func (s *simShape) schedule(e *Engine, t float64, ev Event) {
	e.Schedule(t, ev)
	if s.cnt != nil {
		s.cnt.inserted(e, t)
	}
}

// Handle records the dispatch and schedules what the event causes. A
// step's Arg is timer<<3 | steps left, so the record tells chains apart.
func (s *simShape) Handle(e *Engine, ev Event) {
	s.sink.Handle(e, ev)
	if s.cnt != nil {
		s.cnt.popped(e)
	}
	switch left := ev.Arg & 7; {
	case ev.Kind == kindTimer:
		s.schedule(e, s.park(e), ev)
		s.schedule(e, e.Now()+1, Event{Kind: kindStep, Arg: ev.Arg<<3 | 3})
	case left > 1:
		s.schedule(e, e.Now()+1, Event{Kind: kindStep, Arg: ev.Arg - 1})
	case left == 1:
		s.schedule(e, e.Now()+32, Event{Kind: kindStep, Arg: ev.Arg - 1})
	}
}

// runTo advances the engine in slices that end off the event grid, so Run
// horizons (and their put-backs) cut through bursts.
func (s *simShape) runTo(e *Engine, end float64) {
	for e.Now() < end {
		e.Run(math.Min(end, e.Now()+97.3))
	}
}

// driveBimodal and driveRateStep are the oracle schedules that make the
// calendar rebuild from inside pop: a steady bimodal run crosses several
// dequeue windows, and a light -> heavy -> light run moves the dequeue
// gap 16x each way.
func driveBimodal(e *Engine, seed uint64) *sink {
	s := newSimShape(e, seed, 64, 600)
	s.runTo(e, 25000)
	return &s.sink
}

func driveRateStep(e *Engine, seed uint64) *sink {
	s := newSimShape(e, seed, 64, 2400)
	s.runTo(e, 40000)
	s.mean = 150
	s.runTo(e, 48000)
	s.mean = 2400
	s.runTo(e, 90000)
	return &s.sink
}

// laneShape is the wormhole's schedule as the lanes see it: parked timers
// on the calendar each start a chain of +1 header steps ending in a +L
// drain, both on lanes; and, as a span drain does, a timer reserves a
// sequence number before the chain it starts and then schedules a release
// under it at now+1 or now+L — a key that orders before the lane's tail,
// which the lane must refuse. The sink counts the refusals, read off the
// lane's tail (no lane on the heap oracle: nothing to count).
type laneShape struct {
	sink
	rng *rand.Rand
}

const (
	laneL            = 5
	kindRelease Kind = 4
)

func (s *laneShape) Handle(e *Engine, ev Event) {
	s.sink.Handle(e, ev)
	switch left := ev.Arg & 7; {
	case ev.Kind == kindTimer:
		e.Schedule(e.Now()+math.Ceil(s.rng.ExpFloat64()*800)/4, ev)
		seq := e.ReserveSeq(1)
		e.Schedule(e.Now()+1, Event{Kind: kindStep, Arg: ev.Arg<<3 | int32(1+s.rng.IntN(6))})
		d := 1.0
		if s.rng.IntN(2) == 0 {
			e.Schedule(e.Now()+laneL, Event{Kind: kindStep, Arg: ev.Arg << 3})
			d = laneL
		}
		l := &e.lanes[0]
		if d == laneL {
			l = &e.lanes[1]
		}
		tail := l.tail
		e.ScheduleSeq(e.Now()+d, seq, Event{Kind: kindRelease, Arg: ev.Arg})
		if l.ring != nil && l.tail == tail {
			s.refused++
		}
	case ev.Kind == kindStep && left > 1:
		e.Schedule(e.Now()+1, Event{Kind: kindStep, Arg: ev.Arg - 1})
	case ev.Kind == kindStep && left == 1:
		e.Schedule(e.Now()+laneL, Event{Kind: kindStep, Arg: ev.Arg - 1})
	}
}

// driveLanes runs laneShape on an engine with lanes for 1 and laneL, in
// Run slices that end off the quarter-cycle grid (so a horizon cuts a lane
// run between two of its events) and RunBefore slices that end on it (so
// an event exactly at the exclusive horizon is left pending).
func driveLanes(e *Engine, seed uint64) *sink {
	s := &laneShape{rng: rand.New(rand.NewPCG(seed, 0x1A4E))}
	e.SetHandler(s)
	e.HintSchedule(256, 128)
	e.DeclareLanes(1, laneL)
	for i := 0; i < 64; i++ {
		e.Schedule(math.Ceil(s.rng.Float64()*800)/4, Event{Kind: kindTimer, Arg: int32(i)})
	}
	for e.Now() < 30000 {
		e.Run(e.Now() + 3.3)
		e.RunBefore(math.Ceil(e.Now()) + 2)
	}
	return &s.sink
}

// geomCount is the test-only accounting of what a geometry costs: bubble
// moves per insert and empty days stepped over per pop, read off the
// queue's state after each operation — nothing is counted on the hot path.
type geomCount struct {
	inserts, moves uint64
	pops, steps    uint64
	day            int64
	resizes        uint64
}

// inserted locates the event just scheduled (it carries e.seq) in its
// bucket: it was appended at the tail and bubbled to where it sits.
func (c *geomCount) inserted(e *Engine, t float64) {
	q := &e.cal
	c.inserts++
	b := &q.buckets[q.dayOf(t)&q.mask]
	for i := len(b.items) - 1; i >= b.head; i-- {
		if b.items[i].seq == e.seq {
			c.moves += uint64(len(b.items) - 1 - i)
			return
		}
	}
	// Not in its ring slot: it went to the overflow heap.
}

// popped charges the days the walk advanced since the previous pop; a
// sparse-schedule jump costs one scan of the ring.
func (c *geomCount) popped(e *Engine) {
	q := &e.cal
	if d := q.day - c.day; q.resizes == c.resizes && d > 0 {
		c.steps += uint64(min(d, int64(len(q.buckets))))
	}
	c.pops++
	c.day, c.resizes = q.day, q.resizes
}

func (c *geomCount) movesPerInsert() float64 { return float64(c.moves) / float64(c.inserts) }
func (c *geomCount) stepsPerPop() float64    { return float64(c.steps) / float64(c.pops) }

// TestGeometryFollowsDequeueRate pins the width policy on the simulator's
// bimodal shape at a light and a heavy load: the day ends up a few mean
// dequeue gaps wide however far out the parked timers sit, so an insert
// finds a near-empty bucket and a pop a nearby day.
func TestGeometryFollowsDequeueRate(t *testing.T) {
	for _, mean := range []float64{600, 290} { // ~0.5 and ~1.1 events per cycle
		e := New()
		e.HintSchedule(256, 256)
		s := newSimShape(e, 1, 64, mean)
		s.runTo(e, 20000)
		s.cnt = &geomCount{day: e.cal.day, resizes: e.cal.resizes}
		t0, fired0 := e.Now(), e.Fired()
		s.runTo(e, 120000)

		gap := (e.Now() - t0) / float64(e.Fired()-fired0)
		buckets, width, rebuilds, _ := e.Geometry()
		t.Logf("mean %v: gap %.2f, %d buckets x %.2f, %d rebuilds, %.2f moves/insert, %.2f steps/pop",
			mean, gap, buckets, width, rebuilds, s.cnt.movesPerInsert(), s.cnt.stepsPerPop())
		if width < gap || width > 8*gap {
			t.Errorf("mean %v: day width %.3f, want within [1, 8] x the mean dequeue gap %.3f", mean, width, gap)
		}
		if m := s.cnt.movesPerInsert(); m > 1 {
			t.Errorf("mean %v: %.2f bubble moves per insert, want at most 1", mean, m)
		}
		if st := s.cnt.stepsPerPop(); st > 2 {
			t.Errorf("mean %v: %.2f empty-day steps per pop, want at most 2", mean, st)
		}
	}
}

// TestGeometryForgetsHistory pins ROADMAP 3(a): after Reset and the
// owner's hint, an engine's geometry is a function of the run it serves —
// whatever ran on it before, light, heavy or saturated.
func TestGeometryForgetsHistory(t *testing.T) {
	type geometry struct {
		buckets  int
		width    float64
		rebuilds uint64
	}
	run := func(e *Engine) geometry {
		e.HintSchedule(256, 256)
		newSimShape(e, 7, 64, 600).runTo(e, 30000)
		b, w, r, _ := e.Geometry()
		return geometry{b, w, r}
	}
	want := run(New())
	if want.rebuilds == 0 {
		t.Fatal("the reference run never rebuilt: the comparison is vacuous")
	}
	primes := map[string]func(e *Engine){
		"light": func(e *Engine) { newSimShape(e, 1, 64, 5000).runTo(e, 200000) },
		"heavy": func(e *Engine) { newSimShape(e, 2, 64, 40).runTo(e, 5000) },
		"saturated": func(e *Engine) {
			s := newSimShape(e, 3, 4*maxRetainedEvents, 600)
			s.runTo(e, 100)
		},
	}
	for name, prime := range primes {
		e := New()
		e.HintSchedule(256, 256)
		prime(e)
		e.Reset()
		if got := run(e); got != want {
			t.Errorf("primed %s: geometry %+v after Reset, a fresh engine ends at %+v", name, got, want)
		}
	}
}

// TestGeometryClassesKept pins the two shapes the old width sample served
// well: a uniform schedule (every chain one step per cycle, the
// sim.ns_per_event probe) and a same-instant flood both keep inserting at
// the bucket tail with no bubbling and popping without a walk.
func TestGeometryClassesKept(t *testing.T) {
	t.Run("uniform", func(t *testing.T) {
		e := New()
		cnt := &geomCount{}
		e.SetHandler(handlerFunc(func(e *Engine, ev Event) {
			cnt.popped(e)
			e.Schedule(e.Now()+1, ev)
			cnt.inserted(e, e.Now()+1)
		}))
		for i := 0; i < 64; i++ {
			e.Schedule(1, Event{Arg: int32(i)})
		}
		e.Run(400)
		if _, _, rebuilds, _ := e.Geometry(); rebuilds == 0 {
			t.Fatal("no rebuild in 25 000 events: the check is vacuous")
		}
		if cnt.moves != 0 || cnt.stepsPerPop() > 1 {
			t.Errorf("uniform chains: %d bubble moves, %.2f steps per pop; want 0 and at most 1",
				cnt.moves, cnt.stepsPerPop())
		}
	})
	t.Run("flood", func(t *testing.T) {
		e := New()
		cnt := &geomCount{}
		e.SetHandler(handlerFunc(func(e *Engine, _ Event) { cnt.popped(e) }))
		for i := 0; i < 50000; i++ {
			e.Schedule(42, Event{Arg: int32(i)})
			cnt.inserted(e, 42)
		}
		e.RunAll()
		// One day holds the whole flood whatever its width: the only walk
		// is the one to that day.
		if cnt.moves != 0 || cnt.steps > 42 {
			t.Errorf("same-instant flood: %d bubble moves, %d steps; want 0 and at most 42", cnt.moves, cnt.steps)
		}
	})
}
