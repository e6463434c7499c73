package wormhole

import (
	"math"
	"reflect"
	"testing"

	"quarc/internal/routing"
	"quarc/internal/topology"
	"quarc/internal/traffic"
)

// FuzzNetworkVsHeap is the scheduler's end-to-end oracle: one workload
// simulated on a network as New builds it — the heap with the fixed-delay
// lanes and the generation timer slots — and on one whose engine has its
// lanes and slots undeclared, the heap holding every event, must give
// bitwise-identical Results and traces across Quarc and mesh sizes, loads
// up to saturation, message lengths 2–40, coalescing on and off,
// multicast priority and drain.
func FuzzNetworkVsHeap(f *testing.F) {
	f.Add(false, uint8(2), 0.15, uint8(30), false, false, false, uint64(1)) // quarc-16, 32 flits, mid load
	f.Add(false, uint8(0), 0.9, uint8(6), true, false, true, uint64(2))     // quarc-8, 8 flits, fine-grained, drain
	f.Add(true, uint8(5), 0.2, uint8(14), false, true, true, uint64(3))     // mesh-3x3, multicast priority, drain
	f.Add(false, uint8(7), 0.99, uint8(38), false, true, false, uint64(4))  // quarc-36, 40 flits, saturating
	f.Add(true, uint8(15), 0.05, uint8(0), false, false, false, uint64(5))  // mesh-5x5, 2-flit stretched worms
	f.Add(true, uint8(1), 0.93, uint8(38), false, true, true, uint64(97))   // mesh-3x2, 40 flits: a refused release ties a lane step
	f.Fuzz(func(t *testing.T, mesh bool, size uint8, load float64, msgLen uint8, noCoalesce, priority, drain bool, seed uint64) {
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
		spec := traffic.Spec{Rate: 0.0002 + 0.02*math.Abs(math.Mod(load, 1)), MulticastFrac: 0.1, Set: set}
		// One node's messages are traced: an event-order slip that leaves
		// every statistic alone (a release and a request swapped at one
		// instant still grant at that instant) shows up as a blocked step.
		cfg := Config{MsgLen: 2 + int(msgLen)%39, Warmup: 300, Measure: 3000, SatQueue: 40,
			NoCoalesce: noCoalesce, MulticastPriority: priority, Drain: drain}
		type run struct {
			Result
			trace []TraceEvent
		}
		simulate := func(lanes bool) run {
			w, err := traffic.NewWorkload(rt, spec, seed)
			if err != nil {
				t.Fatal(err)
			}
			nw, err := New(rt.Graph(), w, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !lanes {
				nw.eng.DeclareLanes()
				nw.eng.DeclareTimers(0, 0)
			}
			tr := NewTrace(rt.Graph(), topology.NodeID(seed%uint64(rt.Graph().Nodes())), DefaultTraceLimit)
			nw.Attach(tr, tr.Positions()...)
			return run{nw.Run(), tr.Events}
		}
		laned, heap := simulate(true), simulate(false)
		if !reflect.DeepEqual(laned, heap) {
			t.Fatalf("%s, rate %v, %+v: the Result with lanes and slots %+v differs from the heap-only one's %+v",
				rt.Graph().Name(), spec.Rate, cfg, laned, heap)
		}
	})
}
