package wormhole

import (
	"math"
	"reflect"
	"testing"

	"quarc/internal/core"
	"quarc/internal/routing"
	"quarc/internal/topology"
	"quarc/internal/traffic"
)

// flightRun is one run's Result with the engine and flight counters it
// left: events fired, flights launched, replaced flight ends skipped (one
// per cut that fired before the run ended) and claim-time ties.
type flightRun struct {
	Result
	fired, flights, skipped, ties uint64
}

// runFlights simulates spec on rt untraced. fine selects NoCoalesce, the
// fine-grained reference; hooked attaches a no-op hook, which keeps every
// other coalescing but turns header flights off. A drained run that was
// not stopped is run dry and leak-checked.
func runFlights(t testing.TB, rt routing.Router, spec traffic.Spec, seed uint64, cfg Config, fine, hooked bool) flightRun {
	t.Helper()
	w, err := traffic.NewWorkload(rt, spec, seed)
	if err != nil {
		t.Fatal(err)
	}
	cfg.NoCoalesce = fine
	nw, err := New(rt.Graph(), w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if hooked {
		nw.Attach(noopHook{})
	}
	r := flightRun{Result: nw.Run()}
	r.fired, r.flights, r.skipped, r.ties = nw.eng.Fired(), nw.flights, nw.skipped, nw.ties
	if cfg.Drain && !nw.stopped {
		nw.eng.RunAll()
		if err := nw.leakCheck(); err != nil {
			t.Errorf("fine=%v: %v", fine, err)
		}
	}
	return r
}

// modelSaturation is the analytical model's saturation rate for the
// shape, the unit the batteries' loads are given in.
func modelSaturation(t testing.TB, rt routing.Router, set routing.MulticastSet, alpha float64, msgLen int) float64 {
	t.Helper()
	m, err := core.NewModel(core.Input{Router: rt, Spec: traffic.Spec{MulticastFrac: alpha, Set: set}, MsgLen: msgLen})
	if err != nil {
		t.Fatal(err)
	}
	sat, err := m.SaturationRate(1e-3)
	if err != nil {
		t.Fatal(err)
	}
	return sat
}

// TestFlightsMatchFineGrained is the differential test of header flights
// (DESIGN.md §10): untraced runs with flights must give Results deeply
// equal to the fine-grained simulator's (NoCoalesce), events included,
// across topology × message length × load up to saturation × α ×
// poisson/onoff × drain × multicast priority. The battery must launch
// flights under both arrival processes, cut some of them, and never see a
// request at a claim's own time.
func TestFlightsMatchFineGrained(t *testing.T) {
	q := quarcRouter(t, 16)
	qset, err := q.LocalizedSet(topology.PortL, 4)
	if err != nil {
		t.Fatal(err)
	}
	m, err := topology.NewMesh(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	mrt := routing.NewMeshRouter(m)
	mset, err := mrt.HighLowSet([]int{1, 3}, []int{2})
	if err != nil {
		t.Fatal(err)
	}
	shapes := []struct {
		rt  routing.Router
		set routing.MulticastSet
	}{{q, qset}, {mrt, mset}}
	flights := map[string]uint64{}
	var skipped, ties uint64
	saturated, runs := 0, 0
	for _, sh := range shapes {
		for _, msgLen := range []int{2, 5, 16, 32} {
			for _, alpha := range []float64{0, 0.3} {
				sat := modelSaturation(t, sh.rt, sh.set, alpha, msgLen)
				for _, load := range []float64{0.4, 0.9, 1.6} {
					for _, arrival := range []string{"poisson", "onoff"} {
						for variant := 0; variant < 4; variant++ {
							spec := traffic.Spec{Rate: load * sat, MulticastFrac: alpha, Set: sh.set, Arrival: arrival}
							if arrival == "onoff" {
								spec.BurstLen, spec.DutyCycle = 6, 0.3
							}
							cfg := Config{MsgLen: msgLen, Warmup: 500, Measure: 4000, SatQueue: 40,
								Drain: variant&1 != 0, MulticastPriority: variant&2 != 0}
							seed := uint64(runs + 1)
							fl := runFlights(t, sh.rt, spec, seed, cfg, false, false)
							fi := runFlights(t, sh.rt, spec, seed, cfg, true, false)
							if !reflect.DeepEqual(fl.Result, fi.Result) {
								t.Fatalf("%s, %s, rate %v, seed %d, %+v: flights %+v, fine-grained %+v",
									sh.rt.Graph().Name(), arrival, spec.Rate, seed, cfg, fl.Result, fi.Result)
							}
							runs++
							if fl.Saturated {
								saturated++
							}
							flights[arrival] += fl.flights
							skipped += fl.skipped
							ties += fl.ties
						}
					}
				}
			}
		}
	}
	t.Logf("%d runs, %d saturated: %v flights, %d cut, %d ties", runs, saturated, flights, skipped, ties)
	for _, arrival := range []string{"poisson", "onoff"} {
		if flights[arrival] == 0 {
			t.Errorf("no flight under %s arrivals", arrival)
		}
	}
	if skipped == 0 {
		t.Error("no flight was cut: the cut path went untested")
	}
	if saturated == 0 {
		t.Error("no run saturated: the battery does not reach saturation")
	}
	if ties != 0 {
		t.Errorf("%d requests met a claim at its claim time", ties)
	}
}

// TestFlightsOnlyOnContinuousUnhookedRuns pins when flights are off: with
// a hook attached (so every hook stream stays the fine-grained one by
// construction), with NoCoalesce, and under the lattice-valued arrival
// processes. The Result never depends on it.
func TestFlightsOnlyOnContinuousUnhookedRuns(t *testing.T) {
	rt := quarcRouter(t, 16)
	set, err := rt.LocalizedSet(topology.PortL, 4)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{MsgLen: 16, Warmup: 500, Measure: 5000}
	for _, arrival := range []string{"poisson", "onoff", "bernoulli", "periodic"} {
		spec := traffic.Spec{Rate: 0.006, MulticastFrac: 0.1, Set: set, Arrival: arrival, BurstLen: 4, DutyCycle: 0.5}
		plain := runFlights(t, rt, spec, 3, cfg, false, false)
		hooked := runFlights(t, rt, spec, 3, cfg, false, true)
		fine := runFlights(t, rt, spec, 3, cfg, true, false)
		continuous := arrival == "poisson" || arrival == "onoff"
		if got := plain.flights > 0; got != continuous {
			t.Errorf("%s: %d flights unhooked, want flights %v", arrival, plain.flights, continuous)
		}
		if hooked.flights != 0 || fine.flights != 0 {
			t.Errorf("%s: %d flights with a hook, %d with NoCoalesce, want none", arrival, hooked.flights, fine.flights)
		}
		if !reflect.DeepEqual(plain.Result, hooked.Result) || !reflect.DeepEqual(plain.Result, fine.Result) {
			t.Errorf("%s: Results differ: unhooked %+v, hooked %+v, fine-grained %+v", arrival, plain.Result, hooked.Result, fine.Result)
		}
	}
}

// TestFlightsHalveSimMidEvents pins the event counts of the sim-mid shape
// (quarc-64, 32 flits, 5 % multicasts to 8 localized destinations, 40 %
// of the model's saturation rate, seed 7, 20k + 700k cycles): the
// flit-level-equivalent count is the one every earlier simulator reported,
// and flights fire at most half the events the same run fires without
// them (138,096 against 370,488 when written).
func TestFlightsHalveSimMidEvents(t *testing.T) {
	rt := quarcRouter(t, 64)
	set, err := rt.LocalizedSet(topology.PortL, 8)
	if err != nil {
		t.Fatal(err)
	}
	spec := traffic.Spec{Rate: 0.40 * modelSaturation(t, rt, set, 0.05, 32), MulticastFrac: 0.05, Set: set}
	cfg := Config{MsgLen: 32, Warmup: 20000, Measure: 700000}
	on := runFlights(t, rt, spec, 7, cfg, false, false)
	off := runFlights(t, rt, spec, 7, cfg, false, true)
	t.Logf("fired %d with flights, %d without; %d flights, %d cut", on.fired, off.fired, on.flights, on.skipped)
	if on.Events != 699250 || off.Events != 699250 {
		t.Errorf("Result.Events %d with flights, %d without, want 699250", on.Events, off.Events)
	}
	if 2*on.fired > off.fired {
		t.Errorf("flights fired %d events, more than half of the %d fired without them", on.fired, off.fired)
	}
}

// TestTimersServeGenerations pins where the sim-mid shape's events wait
// (TestFlightsHalveSimMidEvents's run, seed 7): the timer slots serve
// every generation timer, 31,613, and the heap is left the 36,125 flight
// ends and contended releases — 67,738 with the slots undeclared, whose
// run must give the same Result.
func TestTimersServeGenerations(t *testing.T) {
	rt := quarcRouter(t, 64)
	set, err := rt.LocalizedSet(topology.PortL, 8)
	if err != nil {
		t.Fatal(err)
	}
	spec := traffic.Spec{Rate: 0.40 * modelSaturation(t, rt, set, 0.05, 32), MulticastFrac: 0.05, Set: set}
	cfg := Config{MsgLen: 32, Warmup: 20000, Measure: 700000}
	run := func(slots bool) (r Result, fired, timed, heaped uint64) {
		w, err := traffic.NewWorkload(rt, spec, 7)
		if err != nil {
			t.Fatal(err)
		}
		nw, err := New(rt.Graph(), w, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !slots {
			nw.eng.DeclareTimers(0, 0)
		}
		r = nw.Run()
		_, laned := nw.eng.Lanes()
		_, timed = nw.eng.Timers()
		fired = nw.eng.Fired()
		return r, fired, timed, fired - laned[0] - laned[1] - timed
	}
	r, fired, timed, heaped := run(true)
	if r.Events != 699250 || fired != 138096 || timed != 31613 || heaped != 36125 {
		t.Errorf("Result.Events %d, fired %d, slots served %d, heap served %d: want 699250, 138096, 31613 and 36125",
			r.Events, fired, timed, heaped)
	}
	ref, fired, timed, heaped := run(false)
	if !reflect.DeepEqual(r, ref) {
		t.Errorf("the Result with timer slots %+v differs from the one without %+v", r, ref)
	}
	if fired != 138096 || timed != 0 || heaped != 67738 {
		t.Errorf("without timer slots: fired %d, slots served %d, heap served %d: want 138096, 0 and 67738", fired, timed, heaped)
	}
}

// TestFlightsAllocFree is the 0-allocs/op guard of fly and cut: a warm
// event loop at a load where flights launch and get cut does not
// allocate.
func TestFlightsAllocFree(t *testing.T) {
	rt := quarcRouter(t, 16)
	set, err := rt.LocalizedSet(topology.PortL, 4)
	if err != nil {
		t.Fatal(err)
	}
	w, err := traffic.NewWorkload(rt, traffic.Spec{Rate: 0.008, MulticastFrac: 0.05, Set: set}, 7)
	if err != nil {
		t.Fatal(err)
	}
	// A huge warmup keeps the run in the pre-measurement phase (see
	// TestSteadyStateEventLoopAllocFree).
	nw, err := New(rt.Graph(), w, Config{MsgLen: 16, Warmup: 1e9, Measure: 1})
	if err != nil {
		t.Fatal(err)
	}
	for node := 0; node < rt.Graph().Nodes(); node++ {
		nw.scheduleGeneration(topology.NodeID(node), 0)
	}
	nw.eng.Run(5000) // warm the pools, the wait queues and the event heap
	flights, skipped := nw.flights, nw.skipped
	now := nw.eng.Now()
	avg := testing.AllocsPerRun(50, func() {
		now += 200
		nw.eng.Run(now)
	})
	if avg != 0 {
		t.Fatalf("the event loop with flights allocates %v allocs per 200 simulated cycles, want 0", avg)
	}
	if nw.flights == flights || nw.skipped == skipped {
		t.Fatalf("%d flights and %d cuts in the measured loop: the measurement was vacuous",
			nw.flights-flights, nw.skipped-skipped)
	}
}

// FuzzFlightsVsFineGrained is TestFlightsMatchFineGrained's comparison
// over fuzzed shapes: Quarc and mesh sizes, loads up to saturation,
// message lengths 2–40, α, poisson or onoff arrivals, multicast priority
// and drain.
func FuzzFlightsVsFineGrained(f *testing.F) {
	f.Add(false, uint8(2), 0.15, uint8(30), uint8(1), false, false, false, uint64(1)) // quarc-16, 32 flits, mid load
	f.Add(false, uint8(6), 0.6, uint8(6), uint8(3), true, true, true, uint64(2))      // quarc-32, 8 flits, onoff, priority, drain
	f.Add(true, uint8(10), 0.9, uint8(2), uint8(3), false, true, false, uint64(3))    // mesh-4x4, 4 flits, saturating
	f.Add(true, uint8(15), 0.05, uint8(0), uint8(0), true, false, true, uint64(4))    // mesh-5x5, 2-flit worms
	f.Fuzz(func(t *testing.T, mesh bool, size uint8, load float64, msgLen, alpha uint8, onoff, priority, drain bool, seed uint64) {
		var rt routing.Router
		var set routing.MulticastSet
		if mesh {
			m, err := topology.NewMesh(2+int(size)%4, 2+int(size/4)%4)
			if err != nil {
				t.Fatal(err)
			}
			mrt := routing.NewMeshRouter(m)
			if set, err = mrt.HighLowSet([]int{1}, []int{1}); err != nil {
				t.Fatal(err)
			}
			rt = mrt
		} else {
			qrt := quarcRouter(t, 8+4*(int(size)%8))
			var err error
			if set, err = qrt.LocalizedSet(topology.PortL, 2); err != nil {
				t.Fatal(err)
			}
			rt = qrt
		}
		if math.IsNaN(load) || math.IsInf(load, 0) {
			load = 0.5
		}
		spec := traffic.Spec{Rate: 0.0002 + 0.02*math.Abs(math.Mod(load, 1)), MulticastFrac: 0.1 * float64(alpha%4), Set: set}
		if onoff {
			spec.Arrival, spec.BurstLen, spec.DutyCycle = "onoff", 4, 0.4
		}
		cfg := Config{MsgLen: 2 + int(msgLen)%39, Warmup: 300, Measure: 3000, SatQueue: 40,
			MulticastPriority: priority, Drain: drain}
		fl := runFlights(t, rt, spec, seed, cfg, false, false)
		fi := runFlights(t, rt, spec, seed, cfg, true, false)
		if !reflect.DeepEqual(fl.Result, fi.Result) {
			t.Fatalf("%s, rate %v, %+v (%d ties): flights %+v, fine-grained %+v",
				rt.Graph().Name(), spec.Rate, cfg, fl.ties, fl.Result, fi.Result)
		}
	})
}
