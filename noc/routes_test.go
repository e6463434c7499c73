package noc

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"quarc/internal/routing"
	"quarc/internal/topology"
)

// countingRouter is the quarc router with its unicast route requests
// counted.
type countingRouter struct {
	*routing.QuarcRouter
	calls *atomic.Int64
}

func (r *countingRouter) AppendUnicastPath(buf routing.Path, src, dst topology.NodeID) (routing.Path, error) {
	r.calls.Add(1)
	return r.QuarcRouter.AppendUnicastPath(buf, src, dst)
}

// addCountingTopology adds a quarc-n topology routed by a counting
// router, and a localized pattern that sees through it, to the tables
// under the given name until the test ends. newRouter runs on every
// router the builder makes.
func addCountingTopology(t *testing.T, name string, calls *atomic.Int64, newRouter func(*countingRouter)) {
	topologies[name] = topologyDef{router: "quarc", build: func(c TopologyConfig) (routing.Router, error) {
		q, err := topology.NewQuarc(c.N)
		if err != nil {
			return nil, err
		}
		r := &countingRouter{QuarcRouter: routing.NewQuarcRouter(q), calls: calls}
		newRouter(r)
		return r, nil
	}}
	patterns[name] = func(router routing.Router, c PatternConfig) (routing.MulticastSet, error) {
		return router.(*countingRouter).LocalizedSet(c.Port, c.K)
	}
	t.Cleanup(func() {
		delete(topologies, name)
		delete(patterns, name)
	})
}

// TestScenarioEnumeratesRoutesOnce pins the one route table: a scenario,
// its forks, the model, replicated and parallel simulations and a sweep
// ask the router for each unicast route exactly once between them.
func TestScenarioEnumeratesRoutesOnce(t *testing.T) {
	var calls atomic.Int64
	addCountingTopology(t, "test-counting", &calls, func(*countingRouter) {})
	const n = 16
	sp := Spec{Topology: "test-counting", N: n, Pattern: "test-counting", Port: PortL, Dests: 3,
		Alpha: 0.05, MsgLen: 16, Rate: 0.002, Warmup: 500, Measure: 3000}
	s, err := sp.Scenario()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := (Model{}).Evaluate(s); err != nil {
		t.Fatal(err)
	}
	sp.Replications, sp.Parallelism, sp.Rate = 3, 2, 0.003
	reps, err := sp.ScenarioWith(s)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := (Simulator{}).Evaluate(reps); err != nil {
		t.Fatal(err)
	}
	if _, err := Sweep(s, SweepOptions{Points: 4, Workers: 2}); err != nil {
		t.Fatal(err)
	}
	if got, want := calls.Load(), int64(n*(n-1)); got != want {
		t.Fatalf("the router was asked for %d unicast routes, want %d (each pair once)", got, want)
	}
}

// TestRoutesDieWithScenario pins that nothing outlives a scenario's
// routes: once the scenario is unreachable, its router (and with it
// every route derived from it) is collected.
func TestRoutesDieWithScenario(t *testing.T) {
	var calls atomic.Int64
	var collected atomic.Bool
	addCountingTopology(t, "test-finalized", &calls, func(r *countingRouter) {
		runtime.SetFinalizer(r, func(*countingRouter) { collected.Store(true) })
	})
	func() {
		s, err := Spec{Topology: "test-finalized", N: 16, Pattern: "test-finalized", Port: PortL, Dests: 3,
			Alpha: 0.05, MsgLen: 16, Rate: 0.002, Warmup: 500, Measure: 3000}.Scenario()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := (Model{}).Evaluate(s); err != nil {
			t.Fatal(err)
		}
		if _, err := (Simulator{}).Evaluate(s); err != nil {
			t.Fatal(err)
		}
	}()
	for deadline := time.Now().Add(2 * time.Second); !collected.Load(); {
		if time.Now().After(deadline) {
			t.Fatal("the scenario's router is still reachable after the scenario was dropped")
		}
		runtime.GC()
		time.Sleep(10 * time.Millisecond)
	}
}
