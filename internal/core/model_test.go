package core

import (
	"math"
	"testing"

	"quarc/internal/routing"
	"quarc/internal/topology"
	"quarc/internal/traffic"
)

func quarcRouter(t testing.TB, n int) *routing.QuarcRouter {
	t.Helper()
	q, err := topology.NewQuarc(n)
	if err != nil {
		t.Fatal(err)
	}
	return routing.NewQuarcRouter(q)
}

func TestModelZeroLoadLatencyExact(t *testing.T) {
	rt := quarcRouter(t, 16)
	msg := 16
	in := Input{Router: rt, Spec: traffic.Spec{Rate: 1e-9}, MsgLen: msg}
	m, err := NewModel(in)
	if err != nil {
		t.Fatal(err)
	}
	pred, err := m.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if pred.Saturated {
		t.Fatal("zero load reported saturated")
	}
	// Expected zero-load latency: mean over pairs of (dist+1) + msg.
	q := rt.Quarc()
	var sum float64
	for r := 1; r < 16; r++ {
		sum += float64(q.DistRel(r) + 1)
	}
	want := sum/15 + float64(msg)
	if math.Abs(pred.UnicastLatency-want) > 1e-3 {
		t.Errorf("zero-load unicast latency = %v, want %v", pred.UnicastLatency, want)
	}
}

func TestModelMonotoneInRate(t *testing.T) {
	rt := quarcRouter(t, 16)
	set, err := rt.LocalizedSet(topology.PortL, 3)
	if err != nil {
		t.Fatal(err)
	}
	prev := 0.0
	for _, rate := range []float64{0.0005, 0.001, 0.002, 0.004} {
		pred, err := Predict(Input{
			Router: rt,
			Spec:   traffic.Spec{Rate: rate, MulticastFrac: 0.05, Set: set},
			MsgLen: 16,
		})
		if err != nil {
			t.Fatal(err)
		}
		if pred.Saturated {
			t.Fatalf("rate %v unexpectedly saturated (maxRho=%v)", rate, pred.MaxRho)
		}
		if pred.UnicastLatency <= prev {
			t.Errorf("latency not increasing in rate: %v after %v", pred.UnicastLatency, prev)
		}
		if pred.MulticastLatency < pred.UnicastLatency {
			t.Errorf("rate %v: multicast latency %v below unicast %v — the multicast must "+
				"wait for its slowest branch", rate, pred.MulticastLatency, pred.UnicastLatency)
		}
		prev = pred.UnicastLatency
	}
}

func TestModelSaturatesAtHighRate(t *testing.T) {
	rt := quarcRouter(t, 16)
	pred, err := Predict(Input{Router: rt, Spec: traffic.Spec{Rate: 0.5}, MsgLen: 32})
	if err != nil {
		t.Fatal(err)
	}
	if !pred.Saturated {
		t.Fatalf("rate 0.5 not saturated (maxRho=%v)", pred.MaxRho)
	}
	if !math.IsInf(pred.UnicastLatency, 1) {
		t.Errorf("saturated latency = %v, want +Inf", pred.UnicastLatency)
	}
}

func TestModelChannelRatesConservation(t *testing.T) {
	// Total ejection-channel arrival rate must equal the total delivery
	// rate: N·λ·(1−α) unicasts plus N·λ·α multicast branch endpoints.
	rt := quarcRouter(t, 16)
	set, err := rt.LocalizedSet(topology.PortCL, 2)
	if err != nil {
		t.Fatal(err)
	}
	lam, alpha := 0.002, 0.1
	m, err := NewModel(Input{
		Router: rt,
		Spec:   traffic.Spec{Rate: lam, MulticastFrac: alpha, Set: set},
		MsgLen: 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	g := rt.Graph()
	var eject float64
	for _, c := range g.Channels() {
		if c.Kind == topology.Ejection {
			eject += m.Lambda(c.ID)
		}
	}
	branches, err := routing.MulticastBranches(rt, 0, set)
	if err != nil {
		t.Fatal(err)
	}
	want := 16 * lam * ((1 - alpha) + alpha*float64(len(branches)))
	if math.Abs(eject-want) > 1e-12 {
		t.Errorf("total ejection rate = %v, want %v", eject, want)
	}
}

func TestModelVertexSymmetry(t *testing.T) {
	// Under uniform traffic with a relative multicast set, all injection
	// channels of the same port must carry identical rates.
	rt := quarcRouter(t, 32)
	set, err := rt.LocalizedSet(topology.PortL, 4)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewModel(Input{
		Router: rt,
		Spec:   traffic.Spec{Rate: 0.001, MulticastFrac: 0.05, Set: set},
		MsgLen: 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	g := rt.Graph()
	for port := 0; port < topology.QuarcPorts; port++ {
		ref := m.Lambda(g.Injection(0, port))
		for node := 1; node < 32; node++ {
			got := m.Lambda(g.Injection(topology.NodeID(node), port))
			if math.Abs(got-ref) > 1e-15 {
				t.Fatalf("injection rate at node %d port %d = %v, node 0 has %v",
					node, port, got, ref)
			}
		}
	}
}

func TestModelInputValidation(t *testing.T) {
	rt := quarcRouter(t, 16)
	if _, err := NewModel(Input{Router: nil, Spec: traffic.Spec{Rate: 0.001}, MsgLen: 16}); err == nil {
		t.Error("nil router accepted")
	}
	if _, err := NewModel(Input{Router: rt, Spec: traffic.Spec{Rate: -1}, MsgLen: 16}); err == nil {
		t.Error("negative rate accepted")
	}
	if _, err := NewModel(Input{Router: rt, Spec: traffic.Spec{Rate: 0.001}, MsgLen: 1}); err == nil {
		t.Error("msgLen 1 accepted")
	}
	if _, err := NewModel(Input{Router: rt, Spec: traffic.Spec{Rate: 0.001, MulticastFrac: 0.5}, MsgLen: 16}); err == nil {
		t.Error("multicast without destination set accepted")
	}
	if _, err := NewModel(Input{Router: rt, Spec: traffic.Spec{Rate: 0.001}, MsgLen: 16, Damping: 1.5}); err == nil {
		t.Error("damping > 1 accepted")
	}
}

func TestModelNoMulticastGivesNaN(t *testing.T) {
	rt := quarcRouter(t, 16)
	pred, err := Predict(Input{Router: rt, Spec: traffic.Spec{Rate: 0.001}, MsgLen: 16})
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(pred.MulticastLatency) {
		t.Errorf("multicast latency without multicast traffic = %v, want NaN", pred.MulticastLatency)
	}
}

func TestModelSolveIdempotent(t *testing.T) {
	rt := quarcRouter(t, 16)
	m, err := NewModel(Input{Router: rt, Spec: traffic.Spec{Rate: 0.002}, MsgLen: 16})
	if err != nil {
		t.Fatal(err)
	}
	a, err := m.Solve()
	if err != nil {
		t.Fatal(err)
	}
	b, err := m.Solve()
	if err != nil {
		t.Fatal(err)
	}
	// MulticastLatency is NaN here (no multicast traffic), so compare
	// fields individually.
	if a.UnicastLatency != b.UnicastLatency || a.MaxRho != b.MaxRho ||
		a.Iterations != b.Iterations || a.Saturated != b.Saturated ||
		math.IsNaN(a.MulticastLatency) != math.IsNaN(b.MulticastLatency) {
		t.Fatalf("Solve not idempotent: %+v vs %+v", a, b)
	}
}

func TestModelBroadcastLatencyDominatesUnicast(t *testing.T) {
	rt := quarcRouter(t, 32)
	pred, err := Predict(Input{
		Router: rt,
		Spec:   traffic.Spec{Rate: 0.001, MulticastFrac: 0.05, Set: rt.BroadcastSet()},
		MsgLen: 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	if pred.Saturated {
		t.Fatal("unexpected saturation")
	}
	// A broadcast waits for the slowest of four full-quadrant branches, so
	// it must exceed the average unicast latency.
	if pred.MulticastLatency <= pred.UnicastLatency {
		t.Errorf("broadcast latency %v <= unicast %v", pred.MulticastLatency, pred.UnicastLatency)
	}
}

func TestModelLargerMessagesRaiseLatency(t *testing.T) {
	rt := quarcRouter(t, 16)
	var prev float64
	for _, msg := range []int{16, 32, 48, 64} {
		pred, err := Predict(Input{Router: rt, Spec: traffic.Spec{Rate: 0.0005}, MsgLen: msg})
		if err != nil {
			t.Fatal(err)
		}
		if pred.UnicastLatency <= prev {
			t.Errorf("msg=%d latency %v not above previous %v", msg, pred.UnicastLatency, prev)
		}
		prev = pred.UnicastLatency
	}
}
