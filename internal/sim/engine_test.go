package sim

import (
	"fmt"
	"math"
	"math/rand/v2"
	"reflect"
	"slices"
	"sort"
	"testing"
	"unsafe"
)

// calls is a test Handler that runs closures: at files each one in fns
// and schedules an event whose Ref is its index.
type calls struct{ fns []func(e *Engine) }

func (c *calls) Handle(e *Engine, ev Event) { c.fns[ev.Ref](e) }

// at schedules fn to run at time t, through the calls handler it installs
// on e the first time.
func at(e *Engine, t float64, fn func(e *Engine)) {
	c, ok := e.handler.(*calls)
	if !ok {
		c = &calls{}
		e.SetHandler(c)
	}
	c.fns = append(c.fns, fn)
	e.Schedule(t, Event{Ref: int32(len(c.fns) - 1)})
}

func TestRunsEventsInTimeOrder(t *testing.T) {
	e := New()
	var order []float64
	times := []float64{5, 1, 3, 2, 4}
	for _, tm := range times {
		tm := tm
		at(e, tm, func(e *Engine) { order = append(order, tm) })
	}
	e.RunAll()
	if !sort.Float64sAreSorted(order) {
		t.Fatalf("events fired out of order: %v", order)
	}
	if len(order) != len(times) {
		t.Fatalf("fired %d events, want %d", len(order), len(times))
	}
}

func TestTieBreakIsFIFO(t *testing.T) {
	e := New()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		at(e, 1.0, func(e *Engine) { order = append(order, i) })
	}
	e.RunAll()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events not FIFO: %v", order)
		}
	}
}

func TestNowAdvances(t *testing.T) {
	e := New()
	var seen []float64
	at(e, 1, func(e *Engine) { seen = append(seen, e.Now()) })
	at(e, 2.5, func(e *Engine) { seen = append(seen, e.Now()) })
	e.RunAll()
	if seen[0] != 1 || seen[1] != 2.5 {
		t.Fatalf("Now() inside events = %v, want [1 2.5]", seen)
	}
}

func TestEventsCanScheduleEvents(t *testing.T) {
	e := New()
	count := 0
	var chain func(e *Engine)
	chain = func(e *Engine) {
		count++
		if count < 5 {
			at(e, e.Now()+1, chain)
		}
	}
	at(e, 0, chain)
	end := e.RunAll()
	if count != 5 {
		t.Fatalf("chain fired %d times, want 5", count)
	}
	if end != 4 {
		t.Fatalf("final time = %v, want 4", end)
	}
}

func TestHorizonStopsExecution(t *testing.T) {
	e := New()
	fired := 0
	for i := 1; i <= 10; i++ {
		at(e, float64(i), func(e *Engine) { fired++ })
	}
	e.Run(5)
	if fired != 5 {
		t.Fatalf("fired %d events by horizon 5, want 5", fired)
	}
	// The remaining events are still pending and fire on a later Run.
	e.Run(100)
	if fired != 10 {
		t.Fatalf("fired %d events total, want 10", fired)
	}
}

func TestRunAdvancesToHorizonWhenIdle(t *testing.T) {
	e := New()
	e.Run(50)
	if e.Now() != 50 {
		t.Fatalf("idle run should advance clock to horizon, now=%v", e.Now())
	}
	// Scheduling after an idle advance must still work.
	ok := false
	at(e, 60, func(e *Engine) { ok = true })
	e.RunAll()
	if !ok {
		t.Fatal("event after idle advance did not fire")
	}
}

// TestRunAdvancesToHorizonWithPendingBeyond is the regression test for the
// measurement-window bug: with a sparse event set whose next event lies
// strictly beyond the horizon, Run used to leave the clock at the last
// fired event, so a caller slicing time into [0,W), [W,W+M) windows got a
// first window that silently ended early.
func TestRunAdvancesToHorizonWithPendingBeyond(t *testing.T) {
	e := New()
	fired := 0
	at(e, 3, func(e *Engine) { fired++ })
	at(e, 70, func(e *Engine) { fired++ })
	if got := e.Run(10); got != 10 {
		t.Fatalf("Run(10) returned %v, want 10 (pending event at 70 must not hold the clock at 3)", got)
	}
	if e.Now() != 10 || fired != 1 {
		t.Fatalf("after Run(10): now=%v fired=%d, want now=10 fired=1", e.Now(), fired)
	}
	// The second window picks up exactly at the horizon and the deferred
	// event still fires.
	if got := e.Run(100); got != 100 {
		t.Fatalf("Run(100) returned %v, want 100", got)
	}
	if fired != 2 {
		t.Fatalf("fired %d events total, want 2", fired)
	}
	// An idle engine (nothing pending at all) advances too.
	if got := e.Run(250); got != 250 {
		t.Fatalf("idle Run(250) returned %v, want 250", got)
	}
}

// TestRunBeforeExcludesHorizon pins the exclusive-horizon form: an event
// exactly at the horizon is deferred, the clock still advances, and a
// following inclusive Run fires it — the half-open window recipe.
func TestRunBeforeExcludesHorizon(t *testing.T) {
	e := New()
	var fired []float64
	for _, tm := range []float64{3, 5, 8} {
		tm := tm
		at(e, tm, func(e *Engine) { fired = append(fired, tm) })
	}
	if got := e.RunBefore(5); got != 5 {
		t.Fatalf("RunBefore(5) returned %v, want 5", got)
	}
	if len(fired) != 1 || fired[0] != 3 {
		t.Fatalf("RunBefore(5) fired %v, want only the event at 3", fired)
	}
	e.Run(5)
	if len(fired) != 2 || fired[1] != 5 {
		t.Fatalf("Run(5) after RunBefore(5) fired %v, want the event at 5 exactly once", fired)
	}
}

// TestStopDoesNotAdvanceToHorizon pins the other side of the horizon
// contract: a Stop mid-run means "freeze time here" (the wormhole
// simulator stops at saturation), not "skip to the horizon".
func TestStopDoesNotAdvanceToHorizon(t *testing.T) {
	e := New()
	at(e, 4, func(e *Engine) { e.Stop() })
	at(e, 6, func(e *Engine) {})
	if got := e.Run(50); got != 4 {
		t.Fatalf("stopped Run(50) returned %v, want 4", got)
	}
	if e.Pending() != 1 {
		t.Fatalf("pending = %d after Stop, want 1", e.Pending())
	}
}

func TestStop(t *testing.T) {
	e := New()
	fired := 0
	for i := 1; i <= 10; i++ {
		at(e, float64(i), func(e *Engine) {
			fired++
			if fired == 3 {
				e.Stop()
			}
		})
	}
	e.RunAll()
	if fired != 3 {
		t.Fatalf("fired %d events before Stop, want 3", fired)
	}
	if e.Pending() != 7 {
		t.Fatalf("pending = %d after Stop, want 7", e.Pending())
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	e := New()
	at(e, 10, func(e *Engine) {
		defer func() {
			if recover() == nil {
				t.Error("expected panic scheduling in the past")
			}
		}()
		at(e, 5, func(e *Engine) {})
	})
	e.RunAll()
}

func TestSchedulingNaNPanics(t *testing.T) {
	e := New()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic scheduling at NaN")
		}
	}()
	at(e, math.NaN(), func(e *Engine) {})
}

func TestFiredCounter(t *testing.T) {
	e := New()
	for i := 0; i < 7; i++ {
		at(e, float64(i), func(e *Engine) {})
	}
	e.RunAll()
	if e.Fired() != 7 {
		t.Fatalf("Fired = %d, want 7", e.Fired())
	}
}

func TestReset(t *testing.T) {
	e := New()
	fired := 0
	at(e, 1, func(e *Engine) { fired++ })
	at(e, 2, func(e *Engine) { fired++ })
	e.Run(1)

	e.Reset()
	if e.Now() != 0 || e.Fired() != 0 || e.Pending() != 0 {
		t.Fatalf("after Reset: now=%v fired=%d pending=%d, want all zero",
			e.Now(), e.Fired(), e.Pending())
	}
	// Scheduling at times earlier than the pre-Reset clock must work, and
	// the dropped pending event must not fire.
	fired = 0
	at(e, 0.5, func(e *Engine) { fired++ })
	e.RunAll()
	if fired != 1 {
		t.Fatalf("fired %d events after Reset, want 1", fired)
	}
	// A reset engine behaves identically to a fresh one: same tie-break
	// sequence numbering.
	e.Reset()
	var order []int
	for i := 0; i < 5; i++ {
		at(e, 1, func(e *Engine) { order = append(order, i) })
	}
	e.RunAll()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events not FIFO after Reset: %v", order)
		}
	}
}

// TestEventHasNoPointers pins the event shape: three integers, 12 bytes,
// nothing in it for the garbage collector to follow.
func TestEventHasNoPointers(t *testing.T) {
	ty := reflect.TypeOf(Event{})
	for i := 0; i < ty.NumField(); i++ {
		if f := ty.Field(i); hasPointers(f.Type) {
			t.Errorf("Event field %s (%s) bears a pointer", f.Name, f.Type)
		}
	}
	if got := unsafe.Sizeof(Event{}); got != 12 {
		t.Errorf("Event is %d bytes, want 12", got)
	}
}

// hasPointers reports whether a value of type ty holds anything the
// garbage collector follows.
func hasPointers(ty reflect.Type) bool {
	switch ty.Kind() {
	case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
		reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
		return false
	case reflect.Array:
		return hasPointers(ty.Elem())
	case reflect.Struct:
		for i := 0; i < ty.NumField(); i++ {
			if hasPointers(ty.Field(i).Type) {
				return true
			}
		}
		return false
	}
	return true
}

// TestItemLayout pins the pending-event record: 32 bytes, two to a cache
// line, and nothing in it for the garbage collector to follow.
func TestItemLayout(t *testing.T) {
	if got := unsafe.Sizeof(item{}); got != 32 {
		t.Errorf("item is %d bytes, want 32", got)
	}
	ty := reflect.TypeOf(item{})
	for i := 0; i < ty.NumField(); i++ {
		if hasPointers(ty.Field(i).Type) {
			t.Errorf("item field %s (%s) bears a pointer", ty.Field(i).Name, ty.Field(i).Type)
		}
	}
}

// recordingHandler collects the events it dispatches.
type recordingHandler struct {
	kinds []Kind
	args  []int32
	refs  []int32
	times []float64
}

func (h *recordingHandler) Handle(e *Engine, ev Event) {
	h.kinds = append(h.kinds, ev.Kind)
	h.args = append(h.args, ev.Arg)
	h.refs = append(h.refs, ev.Ref)
	h.times = append(h.times, e.Now())
}

func TestTypedEventsDispatchThroughHandler(t *testing.T) {
	e := New()
	h := &recordingHandler{}
	e.SetHandler(h)
	e.Schedule(2, Event{Kind: 7, Arg: 42})
	e.Schedule(1, Event{Kind: 3, Ref: -9})
	e.RunAll()
	if len(h.kinds) != 2 || h.kinds[0] != 3 || h.kinds[1] != 7 {
		t.Fatalf("dispatched kinds %v, want [3 7] in time order", h.kinds)
	}
	if h.args[1] != 42 {
		t.Fatalf("Arg = %d, want 42", h.args[1])
	}
	if h.refs[0] != -9 {
		t.Fatalf("Ref = %d, want -9", h.refs[0])
	}
	if h.times[0] != 1 || h.times[1] != 2 {
		t.Fatalf("dispatch times %v, want [1 2]", h.times)
	}
}

func TestResetKeepsHandler(t *testing.T) {
	laned := New()
	laned.DeclareLanes(1)
	for _, e := range []*Engine{laned, New()} {
		h := &recordingHandler{}
		e.SetHandler(h)
		e.Schedule(1, Event{Kind: 9})
		e.Reset()
		if e.Pending() != 0 {
			t.Fatalf("pending = %d after Reset, want 0", e.Pending())
		}
		e.Schedule(1, Event{Kind: 4})
		e.RunAll()
		if len(h.kinds) != 1 || h.kinds[0] != 4 {
			t.Fatalf("after Reset dispatched %v, want [4] (handler kept, old event dropped)", h.kinds)
		}
	}
}

func TestTypedEventWithoutHandlerPanics(t *testing.T) {
	e := New()
	e.Schedule(1, Event{Kind: 1})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic firing a typed event without a handler")
		}
	}()
	e.RunAll()
}

// TestRandomizedOrdering stresses the order: 10 000 events at random
// times, half of them each starting a follower one or two cycles on, must
// each dispatch as the minimum of the test's sorted reference — on an
// engine whose lanes take the followers and on one whose heap holds all.
func TestRandomizedOrdering(t *testing.T) {
	const n = 10000
	for _, lanes := range [][]float64{nil, {1, 2}} {
		e := New()
		e.DeclareLanes(lanes...)
		o := &keyOrder{}
		rng := rand.New(rand.NewPCG(7, 9))
		e.SetHandler(handlerFunc(func(e *Engine, ev Event) {
			o.fired(e, ev)
			if ev.Kind == 2 {
				o.schedule(e, e.Now()+float64(1+rng.IntN(2)), Event{Kind: 1, Arg: -ev.Arg})
			}
		}))
		for i := 0; i < n; i++ {
			o.schedule(e, rng.Float64()*1000, Event{Kind: Kind(1 + i%2), Arg: int32(i)})
		}
		e.RunAll()
		o.check(t, fmt.Sprintf("lanes %v", lanes), e.Fired())
		if e.Fired() != n+n/2 {
			t.Fatalf("lanes %v: fired %d, want %d", lanes, e.Fired(), n+n/2)
		}
	}
}

// TestPutBackIsNotADequeue pins that a Run cut at the clock, with every
// pending event beyond it, is invisible: 10 000 Run(Now()) calls fire
// nothing and change neither Pending() nor what dispatches next, which a
// twin engine that never made the cuts shows.
func TestPutBackIsNotADequeue(t *testing.T) {
	run := func(cuts int) *sink {
		e := New()
		e.DeclareLanes(1, 32)
		s := newSimShape(e, 1, 64, 600)
		s.runTo(e, 9000)
		fired, pending := e.Fired(), e.Pending()
		if pending == 0 {
			t.Fatal("nothing pending at the cut: the check is vacuous")
		}
		for i := 0; i < cuts; i++ {
			e.Run(e.Now())
		}
		if e.Fired() != fired || e.Pending() != pending {
			t.Fatalf("%d cuts at %v: fired %d and pending %d, were %d and %d",
				cuts, e.Now(), e.Fired(), e.Pending(), fired, pending)
		}
		s.runTo(e, 9500)
		s.order.check(t, fmt.Sprintf("%d cuts", cuts), e.Fired())
		return &s.sink
	}
	cut, plain := run(10000), run(0)
	if !slices.Equal(cut.times, plain.times) || !slices.Equal(cut.args, plain.args) {
		t.Error("10 000 cuts at the clock changed the dispatches that follow")
	}
}

// tick reschedules every event one cycle later: the minimal
// self-sustaining event loop, so a run is pure scheduler work.
type tick struct{}

func (tick) Handle(e *Engine, ev Event) { e.Schedule(e.Now()+1, ev) }

// chains starts n tick chains at time 1 on e.
func chains(e *Engine, n int) *Engine {
	e.SetHandler(tick{})
	for i := 0; i < n; i++ {
		e.Schedule(1, Event{Kind: 1, Arg: int32(i)})
	}
	return e
}

// TestWarmLoopDoesNotAllocate pins the package doc's claim: once the
// storage has grown to the run's shape, scheduling and firing events
// allocates nothing, on an engine with a lane and on one without.
func TestWarmLoopDoesNotAllocate(t *testing.T) {
	laned := New()
	laned.DeclareLanes(1)
	for _, e := range []*Engine{chains(laned, 64), chains(New(), 64)} {
		delays, _ := e.Lanes()
		e.Run(1 << 14) // a million events: the storage has settled
		fired := e.Fired()
		if allocs := testing.AllocsPerRun(10, func() { e.Run(e.Now() + 1024) }); allocs != 0 {
			t.Errorf("lanes %v: a warm Run of 64k events allocates %v times, want 0", delays, allocs)
		}
		if e.Fired()-fired != 11*64*1024 {
			t.Errorf("lanes %v: fired %d events in the measured runs, want %d", delays, e.Fired()-fired, 11*64*1024)
		}
	}
	if _, served := laned.Lanes(); served[0] == 0 {
		t.Error("the lane served no event: the check is vacuous")
	}
}

// TestResetKeepsLargePopulationStorage pins pooled storage at a large
// population: 5 000 parked timers feeding +1 and +32 chains, as many as a
// quarc-2048 network parks at two per node. After Reset and the lanes
// declared again, an identical run allocates nothing: the heap and the
// rings the first run grew are kept, each under maxRetainedEvents.
func TestResetKeepsLargePopulationStorage(t *testing.T) {
	e := New()
	p := newParked(5000, 32)
	run := func() {
		e.Reset()
		e.DeclareLanes(1, 32)
		p.start(e)
		e.Run(3000)
	}
	run()
	fired := e.Fired()
	if allocs := testing.AllocsPerRun(3, run); allocs != 0 {
		t.Errorf("a reset run of 5 000 parked timers allocates %v times, want 0", allocs)
	}
	if _, served := e.Lanes(); e.Fired() != fired || served[0] == 0 || served[1] == 0 {
		t.Errorf("runs fired %d then %d events, lanes served %v: want equal runs on both lanes", fired, e.Fired(), served)
	}
}

// BenchmarkEngineChains is the benchmark harness's sim.ns_per_event
// probe: 64 tick chains on an engine without lanes, warmed by a million
// events, so every event goes through the heap. An op is one event.
func BenchmarkEngineChains(b *testing.B) {
	const n = 64
	e := chains(New(), n)
	e.Run(1 << 20 / n)
	b.ReportAllocs()
	b.ResetTimer()
	e.Run(e.Now() + float64((b.N+n-1)/n))
}

// BenchmarkEngineParked is the wormhole's scheduler load at two network
// sizes: N parked exponential timers on the heap, one firing per cycle,
// each starting a +1 chain and a +32 drain on the lanes. An op is one
// event.
func BenchmarkEngineParked(b *testing.B) {
	for _, n := range []int{64, 1024} {
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			e := New()
			e.DeclareLanes(1, 32)
			newParked(n, 32).start(e)
			e.Run(1 << 16) // many mean park times: the storage has settled
			fired := e.Fired()
			b.ReportAllocs()
			b.ResetTimer()
			for e.Fired()-fired < uint64(b.N) {
				e.Run(e.Now() + 16)
			}
		})
	}
}
