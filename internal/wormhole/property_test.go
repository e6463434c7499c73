package wormhole

import (
	"math/rand/v2"
	"testing"
	"testing/quick"

	"quarc/internal/routing"
	"quarc/internal/topology"
	"quarc/internal/traffic"
)

// TestSimulatorInvariantsProperty drives randomized sub-saturation
// configurations through a drained run and checks the invariants that
// must hold for any of them:
//
//   - no saturation flag at low load,
//   - every measured message completes (conservation),
//   - every latency is at least the zero-load floor of the shortest
//     possible path (1 link + injection + ejection depth + drain),
//   - the network is empty afterwards (no leaked channel holds).
func TestSimulatorInvariantsProperty(t *testing.T) {
	if testing.Short() {
		t.Skip("randomized simulations in -short mode")
	}
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 99))
		sizes := []int{8, 16, 32}
		n := sizes[rng.IntN(len(sizes))]
		msgLen := 8 + rng.IntN(40)
		alpha := []float64{0, 0.05, 0.2}[rng.IntN(3)]
		q, err := topology.NewQuarc(n)
		if err != nil {
			return false
		}
		rt := routing.NewQuarcRouter(q)
		var set routing.MulticastSet
		if alpha > 0 {
			set, err = rt.RandomSet(rng, 1+rng.IntN(n/2))
			if err != nil {
				return false
			}
		}
		// Keep well below saturation: aggregate flit rate ~1.
		rate := 1.0 / float64(n) / float64(msgLen)
		w, err := traffic.NewWorkload(rt, traffic.Spec{
			Rate: rate, MulticastFrac: alpha, Set: set,
		}, seed)
		if err != nil {
			return false
		}
		nw, err := New(rt.Graph(), w, Config{
			MsgLen: msgLen, Warmup: 500, Measure: 8000, Drain: true,
		})
		if err != nil {
			return false
		}
		res := nw.Run()
		if res.Saturated {
			t.Logf("seed %d: unexpected saturation (n=%d msg=%d alpha=%v)", seed, n, msgLen, alpha)
			return false
		}
		if res.Generated != res.Completed {
			t.Logf("seed %d: %d generated, %d completed", seed, res.Generated, res.Completed)
			return false
		}
		// inj + 1 link + eject depth is 2, plus the drain; allow float
		// accumulation error from real-valued generation times.
		floor := float64(2+msgLen) - 1e-6
		if res.Unicast.N() > 0 && res.Unicast.Min() < floor {
			t.Logf("seed %d: unicast min %v below floor %v", seed, res.Unicast.Min(), floor)
			return false
		}
		if res.Multicast.N() > 0 && res.Multicast.Min() < floor {
			t.Logf("seed %d: multicast min %v below floor %v", seed, res.Multicast.Min(), floor)
			return false
		}
		nw.eng.RunAll()
		if err := nw.LeakCheck(); err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestShortMessagesExactPipeline pins the short-worm release rule: with
// msgLen smaller than the path, a single message's latency is still
// exactly depth + msgLen, and two back-to-back messages on the same route
// are spaced by the injection channel's holding time msgLen (the second
// header follows msgLen cycles behind the first).
func TestShortMessagesExactPipeline(t *testing.T) {
	rt := quarcRouter(t, 32) // diameter 8 > msgLen 4
	path, err := rt.UnicastPath(0, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(path)-1 <= 4 {
		t.Fatalf("need a path deeper than the message, got depth %d", len(path)-1)
	}
	src := &twoShot{node: 0, branches: []routing.Branch{{Path: path, Targets: []topology.NodeID{8}}}}
	nw, err := New(rt.Graph(), src, Config{MsgLen: 4, Warmup: 0, Measure: 1000})
	if err != nil {
		t.Fatal(err)
	}
	res := nw.Run()
	if res.Unicast.N() != 2 {
		t.Fatalf("completed %d messages, want 2", res.Unicast.N())
	}
	depth := float64(len(path) - 1)
	if res.Unicast.Min() != depth+4 {
		t.Errorf("first short-worm latency %v, want %v", res.Unicast.Min(), depth+4)
	}
	// Second message: generated 0.25 cycles after the first (t=1.25); the
	// injection channel frees msgLen cycles after the first grant (t=5),
	// so the second completes at 5 + depth + 4; latency = that - 1.25.
	want := 5 + depth + 4 - 1.25
	if res.Unicast.Max() != want {
		t.Errorf("second short-worm latency %v, want %v", res.Unicast.Max(), want)
	}
}
