package sim

import (
	"math"
	"math/rand/v2"
)

// simShape is a schedule shaped like the wormhole simulator's: parked
// generation timers that re-arm themselves exp(mean) cycles ahead, each
// firing a chain of three +1 header steps and one +32 drain — a few
// events a cycle at the head of the queue in front of a population that
// sits hundreds of cycles out. Times snap to a quarter-cycle grid so
// chains of different timers tie and the (time, seq) order is exercised.
// Everything is scheduled through the sink's reference order.
type simShape struct {
	sink
	rng  *rand.Rand
	mean float64
}

const (
	kindTimer Kind = 2
	kindStep  Kind = 3
)

func newSimShape(e *Engine, seed uint64, timers int, mean float64) *simShape {
	s := &simShape{sink: sink{order: &keyOrder{}}, rng: rand.New(rand.NewPCG(seed, 0x51A9E)), mean: mean}
	e.SetHandler(s)
	for i := 0; i < timers; i++ {
		s.order.schedule(e, s.park(e), Event{Kind: kindTimer, Arg: int32(i)})
	}
	return s
}

func (s *simShape) park(e *Engine) float64 {
	return e.Now() + math.Ceil(s.rng.ExpFloat64()*s.mean*4)/4
}

// Handle records the dispatch and schedules what the event causes. A
// step's Arg is timer<<3 | steps left, so the record tells chains apart.
func (s *simShape) Handle(e *Engine, ev Event) {
	s.sink.Handle(e, ev)
	switch left := ev.Arg & 7; {
	case ev.Kind == kindTimer:
		s.order.schedule(e, s.park(e), ev)
		s.order.schedule(e, e.Now()+1, Event{Kind: kindStep, Arg: ev.Arg<<3 | 3})
	case left > 1:
		s.order.schedule(e, e.Now()+1, Event{Kind: kindStep, Arg: ev.Arg - 1})
	case left == 1:
		s.order.schedule(e, e.Now()+32, Event{Kind: kindStep, Arg: ev.Arg - 1})
	}
}

// runTo advances the engine in slices that end off the event grid, so Run
// horizons cut through bursts.
func (s *simShape) runTo(e *Engine, end float64) {
	for e.Now() < end {
		e.Run(math.Min(end, e.Now()+97.3))
	}
}

// driveBimodal and driveRateStep are the simulator-shaped oracle
// schedules: a steady bimodal run, and a light -> heavy -> light run that
// moves the event rate 16x each way.
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
// on the heap each start a chain of +1 header steps ending in a +L drain,
// both on lanes; and, as a span drain does, a timer reserves a sequence
// number before the chain it starts and then schedules a release under it
// at now+1 or now+L — a key that orders before the lane's tail, which the
// lane must refuse. The sink counts the refusals, read off the lane's
// tail (none on an engine without lanes: nothing to count).
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
	o := s.order
	switch left := ev.Arg & 7; {
	case ev.Kind == kindTimer:
		o.schedule(e, e.Now()+math.Ceil(s.rng.ExpFloat64()*800)/4, ev)
		seq := e.ReserveSeq(1)
		o.schedule(e, e.Now()+1, Event{Kind: kindStep, Arg: ev.Arg<<3 | int32(1+s.rng.IntN(6))})
		d := 1.0
		if s.rng.IntN(2) == 0 {
			o.schedule(e, e.Now()+laneL, Event{Kind: kindStep, Arg: ev.Arg << 3})
			d = laneL
		}
		l := &e.lanes[0]
		if d == laneL {
			l = &e.lanes[1]
		}
		tail := l.tail
		o.scheduleSeq(e, e.Now()+d, seq, Event{Kind: kindRelease, Arg: ev.Arg})
		if len(l.ring) > 0 && l.tail == tail {
			s.refused++
		}
	case ev.Kind == kindStep && left > 1:
		o.schedule(e, e.Now()+1, Event{Kind: kindStep, Arg: ev.Arg - 1})
	case ev.Kind == kindStep && left == 1:
		o.schedule(e, e.Now()+laneL, Event{Kind: kindStep, Arg: ev.Arg - 1})
	}
}

// driveLanes runs laneShape, for an engine with lanes for 1 and laneL, in
// Run slices that end off the quarter-cycle grid (so a horizon cuts a lane
// run between two of its events) and RunBefore slices that end on it (so
// an event exactly at the exclusive horizon is left pending).
func driveLanes(e *Engine, seed uint64) *sink {
	s := &laneShape{sink: sink{order: &keyOrder{}}, rng: rand.New(rand.NewPCG(seed, 0x1A4E))}
	e.SetHandler(s)
	for i := 0; i < 64; i++ {
		s.order.schedule(e, math.Ceil(s.rng.Float64()*800)/4, Event{Kind: kindTimer, Arg: int32(i)})
	}
	for e.Now() < 30000 {
		e.Run(e.Now() + 3.3)
		e.RunBefore(math.Ceil(e.Now()) + 2)
	}
	return &s.sink
}

// parked is the wormhole's schedule at network scale, recording nothing:
// n generation timers parked an exponential time ahead (mean n cycles, so
// one fires per cycle whatever n is), each starting a chain of three +1
// header steps that ends in a +msgLen drain. The chains are what a
// network's lanes take; the timers wait on the heap.
type parked struct {
	src    rand.PCG
	rng    *rand.Rand
	n      int
	msgLen float64
}

func newParked(n int, msgLen float64) *parked {
	p := &parked{n: n, msgLen: msgLen}
	p.rng = rand.New(&p.src)
	return p
}

// start reseeds the draws, installs p as e's handler and parks the timers.
func (p *parked) start(e *Engine) {
	p.src.Seed(uint64(p.n), 0x9A2CED)
	e.SetHandler(p)
	for i := 0; i < p.n; i++ {
		e.Schedule(e.Now()+p.park(), Event{Kind: kindTimer, Arg: int32(i)})
	}
}

func (p *parked) park() float64 { return p.rng.ExpFloat64() * float64(p.n) }

func (p *parked) Handle(e *Engine, ev Event) {
	switch {
	case ev.Kind == kindTimer:
		e.Schedule(e.Now()+p.park(), ev)
		e.Schedule(e.Now()+1, Event{Kind: kindStep, Arg: 3})
	case ev.Arg > 1:
		e.Schedule(e.Now()+1, Event{Kind: kindStep, Arg: ev.Arg - 1})
	case ev.Arg == 1:
		e.Schedule(e.Now()+p.msgLen, Event{Kind: kindStep})
	}
}
