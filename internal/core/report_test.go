package core

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"

	"quarc/internal/routing"
	"quarc/internal/topology"
	"quarc/internal/traffic"
)

// ClassStats aggregates the fixed-point quantities of all channels sharing
// one (kind, class) pair — e.g. all rim+ VC0 links, all injection port-L
// channels. Under the paper's symmetric workloads every channel of a class
// carries the same load, so the aggregate is also the per-channel view.
type ClassStats struct {
	Kind  topology.ChannelKind
	Class int
	VC    int
	// Count is the number of channels in the class.
	Count int
	// Lambda, Service, Wait and Rho are per-channel means over the class.
	Lambda  float64
	Service float64
	Wait    float64
	Rho     float64
}

// ClassReport returns the per-class fixed-point table, sorted by kind,
// class, VC. Valid after Solve.
func (m *Model) ClassReport() []ClassStats {
	type key struct {
		kind  topology.ChannelKind
		class int
		vc    int
	}
	acc := map[key]*ClassStats{}
	for i := range m.channels {
		c := m.g.Channel(topology.ChannelID(i))
		k := key{kind: c.Kind, class: c.Class, vc: c.VC}
		st, ok := acc[k]
		if !ok {
			st = &ClassStats{Kind: c.Kind, Class: c.Class, VC: c.VC}
			acc[k] = st
		}
		st.Count++
		st.Lambda += m.channels[i].lambda
		st.Service += m.channels[i].service
		st.Wait += m.channels[i].wait
		st.Rho += m.channels[i].lambda * m.channels[i].service
	}
	out := make([]ClassStats, 0, len(acc))
	for _, st := range acc {
		n := float64(st.Count)
		st.Lambda /= n
		st.Service /= n
		st.Wait /= n
		st.Rho /= n
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Kind != out[j].Kind {
			return out[i].Kind < out[j].Kind
		}
		if out[i].Class != out[j].Class {
			return out[i].Class < out[j].Class
		}
		return out[i].VC < out[j].VC
	})
	return out
}

// FormatClassReport renders the class report as a fixed-width table.
func FormatClassReport(report []ClassStats) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-6s %-6s %-3s %-6s %12s %12s %12s %8s\n",
		"kind", "class", "vc", "count", "lambda", "service", "wait", "rho")
	for _, st := range report {
		fmt.Fprintf(&b, "%-6s %-6d %-3d %-6d %12.6g %12.4f %12.4f %8.4f\n",
			st.Kind, st.Class, st.VC, st.Count, st.Lambda, st.Service, st.Wait, st.Rho)
	}
	return b.String()
}

func TestClassReportStructure(t *testing.T) {
	rt := quarcRouter(t, 16)
	m, err := NewModel(Input{Router: rt, Spec: traffic.Spec{Rate: 0.002}, MsgLen: 16})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Solve(); err != nil {
		t.Fatal(err)
	}
	report := m.ClassReport()
	// Quarc classes: 4 injection ports + 4 ejection ports + rim+/rim- x 2
	// VCs + 2 cross = 14 classes.
	if len(report) != 14 {
		t.Fatalf("classes = %d, want 14", len(report))
	}
	var total int
	for _, st := range report {
		total += st.Count
		if st.Rho < 0 || st.Rho >= 1 {
			t.Errorf("class %v rho = %v out of range", st, st.Rho)
		}
		if st.Kind == topology.Ejection && math.Abs(st.Service-16) > 1e-9 {
			t.Errorf("ejection service = %v, want msg=16", st.Service)
		}
	}
	if total != rt.Graph().NumChannels() {
		t.Fatalf("report covers %d channels, want %d", total, rt.Graph().NumChannels())
	}
	txt := FormatClassReport(report)
	if !strings.Contains(txt, "lambda") || !strings.Contains(txt, "inj") {
		t.Errorf("report text incomplete:\n%s", txt)
	}
}

func TestClassReportSymmetricLoads(t *testing.T) {
	// Under uniform traffic the four injection-port classes carry equal
	// unicast load only if the quadrants were equal; the CR quadrant has
	// one fewer node, so its injection rate must be strictly smallest.
	rt := quarcRouter(t, 16)
	m, err := NewModel(Input{Router: rt, Spec: traffic.Spec{Rate: 0.002}, MsgLen: 16})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Solve(); err != nil {
		t.Fatal(err)
	}
	var inj [4]float64
	for _, st := range m.ClassReport() {
		if st.Kind == topology.Injection {
			inj[st.Class] = st.Lambda
		}
	}
	if !(inj[topology.PortCR] < inj[topology.PortL]) {
		t.Errorf("CR injection rate %v not below L %v (CR quadrant has N/4-1 nodes)",
			inj[topology.PortCR], inj[topology.PortL])
	}
	if inj[topology.PortL] != inj[topology.PortR] || inj[topology.PortL] != inj[topology.PortCL] {
		t.Errorf("L/R/CL injection rates differ: %v", inj)
	}
}

func TestTailReleaseServiceFormula(t *testing.T) {
	rt := quarcRouter(t, 16)
	spec := traffic.Spec{Rate: 0.004}
	eq6, err := Predict(Input{Router: rt, Spec: spec, MsgLen: 32})
	if err != nil {
		t.Fatal(err)
	}
	tail, err := Predict(Input{Router: rt, Spec: spec, MsgLen: 32, ServiceFormula: TailRelease})
	if err != nil {
		t.Fatal(err)
	}
	// Eq. 6 holds channels for an extra cycle per downstream hop, so it
	// must predict strictly higher utilization and latency.
	if !(eq6.MaxRho > tail.MaxRho) {
		t.Errorf("Eq.6 rho %v not above tail-release rho %v", eq6.MaxRho, tail.MaxRho)
	}
	if !(eq6.UnicastLatency > tail.UnicastLatency) {
		t.Errorf("Eq.6 latency %v not above tail-release %v", eq6.UnicastLatency, tail.UnicastLatency)
	}
	// At zero load both reduce to the same exact latency.
	z1, err := Predict(Input{Router: rt, Spec: traffic.Spec{Rate: 1e-9}, MsgLen: 32})
	if err != nil {
		t.Fatal(err)
	}
	z2, err := Predict(Input{Router: rt, Spec: traffic.Spec{Rate: 1e-9}, MsgLen: 32, ServiceFormula: TailRelease})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(z1.UnicastLatency-z2.UnicastLatency) > 1e-6 {
		t.Errorf("zero-load latencies differ: %v vs %v", z1.UnicastLatency, z2.UnicastLatency)
	}
}

func TestTailReleaseZeroLoadServiceIsMsg(t *testing.T) {
	rt := quarcRouter(t, 16)
	m, err := NewModel(Input{Router: rt, Spec: traffic.Spec{Rate: 1e-12}, MsgLen: 24, ServiceFormula: TailRelease})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Solve(); err != nil {
		t.Fatal(err)
	}
	for _, st := range m.ClassReport() {
		if st.Lambda == 0 {
			continue
		}
		if math.Abs(st.Service-24) > 1e-6 {
			t.Errorf("class %v: zero-load tail-release service %v, want msg=24", st, st.Service)
		}
	}
}

// TestOnePortSerializedZeroLoadExact pins the serialized multicast
// extension at zero load: the k-th of m broadcast branches completes at
// (k-1)·msg + msg + D exactly.
func TestOnePortSerializedZeroLoadExact(t *testing.T) {
	q, err := topology.NewQuarcOnePort(16)
	if err != nil {
		t.Fatal(err)
	}
	rtOne := routing.NewQuarcRouter(q)
	pred, err := Predict(Input{
		Router: rtOne,
		Spec:   traffic.Spec{Rate: 1e-12, MulticastFrac: 0.5, Set: rtOne.BroadcastSet()},
		MsgLen: 32,
		// TailRelease makes the injection holding exactly msg at zero
		// load, so the serialized prediction is exact.
		ServiceFormula: TailRelease,
	})
	if err != nil {
		t.Fatal(err)
	}
	// 4 branches, D = N/4 + 1 = 5, msg = 32: last branch starts after
	// 3 x 32 cycles of injection holding: 96 + 32 + 5 = 133.
	if math.Abs(pred.MulticastLatency-133) > 1e-3 {
		t.Errorf("serialized zero-load broadcast latency = %v, want 133", pred.MulticastLatency)
	}
}
