package core

import (
	"fmt"
	"math"
	"testing"

	"quarc/internal/routing"
	"quarc/internal/topology"
	"quarc/internal/traffic"
	"quarc/internal/wormhole"
)

// pairRouter routes the smallest possible wormhole network: two nodes
// connected by one link in each direction. On this network the model's
// recurrences collapse to textbook M/G/1 formulas that can be checked by
// hand, and the simulator can be compared against both.
type pairRouter struct{ g *topology.Graph }

func pairNetwork(t *testing.T) pairRouter {
	t.Helper()
	g := topology.NewGraph("pair", 2, 1)
	g.AddInjection(0, 0)
	g.AddInjection(1, 0)
	g.AddEjection(0, 0)
	g.AddEjection(1, 0)
	g.AddLink(0, 1, 0, 0)
	g.AddLink(1, 0, 0, 0)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	return pairRouter{g}
}

func (r pairRouter) Graph() *topology.Graph { return r.g }

func (r pairRouter) UnicastPath(src, dst topology.NodeID) (routing.Path, error) {
	if src == dst {
		return nil, fmt.Errorf("pair: self path %d", src)
	}
	return routing.Path{r.g.Injection(src, 0), r.g.LinkFrom(src, 0, 0), r.g.Ejection(dst, 0)}, nil
}

func (r pairRouter) UnicastPort(src, dst topology.NodeID) (int, error) { return 0, nil }

func (r pairRouter) MulticastBranches(topology.NodeID, routing.MulticastSet) ([]routing.Branch, error) {
	return nil, fmt.Errorf("pair: no multicast")
}

// TestPairNetworkHandComputation pins the model to a full hand
// derivation. With the tail-release service formula every channel's
// holding time is exactly msg at any load on this network (there is no
// downstream contention: each channel has a single successor fed only by
// itself, so the exclude-own-traffic scaling zeroes the downstream wait).
// Hence every channel is an M/G/1 queue with deterministic-like service
// x̄ = msg, σ = 0: W = λ·msg²/(2(1-λ·msg)), non-zero only at the
// injection channel (link and ejection see only their own flow).
func TestPairNetworkHandComputation(t *testing.T) {
	rt := pairNetwork(t)
	msg := 20.0
	lambda := 0.01
	m, err := NewModel(Input{
		Router:         rt,
		Spec:           traffic.Spec{Rate: lambda},
		MsgLen:         int(msg),
		ServiceFormula: TailRelease,
	})
	if err != nil {
		t.Fatal(err)
	}
	pred, err := m.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if pred.Saturated {
		t.Fatal("unexpected saturation")
	}

	g := rt.Graph()
	// Services: all msg.
	for _, id := range []topology.ChannelID{g.Injection(0, 0), g.LinkFrom(0, 0, 0), g.Ejection(1, 0)} {
		if got := m.Service(id); math.Abs(got-msg) > 1e-9 {
			t.Errorf("channel %v service = %v, want %v", g.Channel(id), got, msg)
		}
	}
	// Hand P-K wait at the injection channel.
	wantW := lambda * msg * msg / (2 * (1 - lambda*msg))
	if got := m.Wait(g.Injection(0, 0)); math.Abs(got-wantW) > 1e-9 {
		t.Errorf("injection wait = %v, want %v", got, wantW)
	}
	// Path latency: W_inj + msg + depth (the link and ejection waits are
	// fully excluded by the own-traffic scaling).
	wantL := wantW + msg + 2
	if math.Abs(pred.UnicastLatency-wantL) > 1e-9 {
		t.Errorf("unicast latency = %v, want %v", pred.UnicastLatency, wantL)
	}
}

// TestPairNetworkModelVsSim compares model and simulator on the pair
// network across a load sweep. The simulated arrival process at the
// injection channel is exactly Poisson (no network filtering), so this
// isolates the M/G/1 approximation itself.
func TestPairNetworkModelVsSim(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep in -short mode")
	}
	rt := pairNetwork(t)
	const msg = 20
	for _, rate := range []float64{0.005, 0.01, 0.02, 0.03} {
		pred, err := Predict(Input{
			Router:         rt,
			Spec:           traffic.Spec{Rate: rate},
			MsgLen:         msg,
			ServiceFormula: TailRelease,
		})
		if err != nil {
			t.Fatal(err)
		}
		w, err := traffic.NewWorkload(rt, traffic.Spec{Rate: rate}, 77)
		if err != nil {
			t.Fatal(err)
		}
		nw, err := wormhole.New(rt.Graph(), w, wormhole.Config{
			MsgLen: msg, Warmup: 5000, Measure: 200000,
		})
		if err != nil {
			t.Fatal(err)
		}
		res := nw.Run()
		if res.Saturated || pred.Saturated {
			t.Fatalf("rate %v saturated unexpectedly", rate)
		}
		if e := math.Abs(pred.UnicastLatency-res.Unicast.Mean()) / res.Unicast.Mean(); e > 0.02 {
			t.Errorf("rate %v: model %v vs sim %v (err %.4f > 2%%)",
				rate, pred.UnicastLatency, res.Unicast.Mean(), e)
		}
	}
}
