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
		rt, set := fuzzShape(t, mesh, size)
		spec := traffic.Spec{Rate: fuzzRate(load), MulticastFrac: 0.1, Set: set}
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

// fuzzShape is the network a fuzzed (mesh, size) pair names: a mesh of
// 2–5 × 2–5 nodes or a Quarc of 8–36, with a small multicast set.
func fuzzShape(t *testing.T, mesh bool, size uint8) (routing.Router, routing.MulticastSet) {
	t.Helper()
	if mesh {
		m, err := topology.NewMesh(2+int(size)%4, 2+int(size/4)%4)
		if err != nil {
			t.Fatal(err)
		}
		rt := routing.NewMeshRouter(m)
		set, err := rt.HighLowSet([]int{1}, []int{1})
		if err != nil {
			t.Fatal(err)
		}
		return rt, set
	}
	rt := quarcRouter(t, 8+4*(int(size)%8))
	set, err := rt.LocalizedSet(topology.PortL, 2)
	if err != nil {
		t.Fatal(err)
	}
	return rt, set
}

// fuzzRate maps a fuzzed load onto a per-node rate from very light to
// well past saturation.
func fuzzRate(load float64) float64 {
	if math.IsNaN(load) || math.IsInf(load, 0) {
		load = 0.5
	}
	return 0.0002 + 0.02*math.Abs(math.Mod(load, 1))
}

// FuzzRebindVsFresh is ResetOn's oracle: a network and a workload that
// ran shape A and were rebound to shape B must run B exactly as a fresh
// network and workload do, Result and traced node alike, across Quarc and
// mesh sizes (growing, shrinking, or the same node count on another
// topology), loads up to saturation on either side, message lengths
// 2–40, coalescing on and off, multicast priority and drain.
func FuzzRebindVsFresh(f *testing.F) {
	f.Add(false, uint8(0), false, uint8(7), 0.3, 0.15, uint8(30), false, false, false, uint64(1)) // grow: quarc-8 to quarc-36
	f.Add(true, uint8(15), false, uint8(0), 0.99, 0.4, uint8(14), false, true, true, uint64(2))   // shrink: a heavily loaded mesh-5x5 to quarc-8
	f.Add(false, uint8(2), true, uint8(10), 0.6, 0.2, uint8(6), true, false, true, uint64(3))     // 16 nodes: quarc-16 to mesh-4x4
	f.Add(true, uint8(10), false, uint8(2), 0.2, 0.95, uint8(38), false, true, false, uint64(4))  // 16 nodes: mesh-4x4 to a heavily loaded quarc-16
	f.Add(false, uint8(5), false, uint8(5), 0.9, 0.1, uint8(0), true, true, true, uint64(5))      // same shape, 2-flit worms
	f.Fuzz(func(t *testing.T, meshA bool, sizeA uint8, meshB bool, sizeB uint8, loadA, loadB float64,
		msgLen uint8, noCoalesce, priority, drain bool, seed uint64) {
		rtA, setA := fuzzShape(t, meshA, sizeA)
		rtB, setB := fuzzShape(t, meshB, sizeB)
		specA := traffic.Spec{Rate: fuzzRate(loadA), MulticastFrac: 0.1, Set: setA}
		specB := traffic.Spec{Rate: fuzzRate(loadB), MulticastFrac: 0.1, Set: setB}
		cfgA := Config{MsgLen: 2 + int(msgLen/2)%39, Warmup: 300, Measure: 3000, SatQueue: 40}
		cfgB := Config{MsgLen: 2 + int(msgLen)%39, Warmup: 300, Measure: 3000, SatQueue: 40,
			NoCoalesce: noCoalesce, MulticastPriority: priority, Drain: drain}
		type run struct {
			Result
			trace []TraceEvent
		}
		traced := func(nw *Network) run {
			g := rtB.Graph()
			tr := NewTrace(g, topology.NodeID(seed%uint64(g.Nodes())), DefaultTraceLimit)
			nw.Attach(tr, tr.Positions()...)
			return run{nw.Run(), tr.Events}
		}

		w, err := traffic.NewWorkload(rtA, specA, seed+1)
		if err != nil {
			t.Fatal(err)
		}
		nw, err := New(rtA.Graph(), w, cfgA)
		if err != nil {
			t.Fatal(err)
		}
		nw.Run()
		if err := w.ResetOn(rtB, specB, seed); err != nil {
			t.Fatal(err)
		}
		if err := nw.ResetOn(rtB.Graph(), w, cfgB); err != nil {
			t.Fatal(err)
		}
		rebound := traced(nw)

		fw, err := traffic.NewWorkload(rtB, specB, seed)
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := New(rtB.Graph(), fw, cfgB)
		if err != nil {
			t.Fatal(err)
		}
		if want := traced(fresh); !reflect.DeepEqual(rebound, want) {
			t.Fatalf("%s (rate %v) rebound to %s, rate %v, %+v: the Result %+v differs from a fresh network's %+v",
				rtA.Graph().Name(), specA.Rate, rtB.Graph().Name(), specB.Rate, cfgB, rebound, want)
		}
	})
}
