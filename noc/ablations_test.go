package noc

import (
	"math"
	"strings"
	"testing"
)

var quickAblation = Effort{Warmup: 500, Measure: 4000, Seed: 9}

// TestOnePortAblationQuick drives the one-port study at one rate: the
// one-port router must serialize broadcast injections, so its multicast
// latency exceeds the all-port router's.
func TestOnePortAblationQuick(t *testing.T) {
	series, err := OnePortAblation(8, 8, 0.2, []float64{0.001}, quickAblation)
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 2 {
		t.Fatalf("got %d series, want 2", len(series))
	}
	all, _ := series[0].Points[0].Get("simulator")
	one, _ := series[1].Points[0].Get("simulator")
	if !(one.Multicast > all.Multicast) {
		t.Errorf("one-port multicast %v not above all-port %v", one.Multicast, all.Multicast)
	}
	if table := SeriesTable(series); !strings.Contains(table, "one-port") {
		t.Errorf("series table missing labels:\n%s", table)
	}
}

// TestSpidergonComparisonQuick covers the Spidergon study wrapper.
func TestSpidergonComparisonQuick(t *testing.T) {
	series, err := SpidergonComparison(8, 8, 0.1, []float64{0.0005}, quickAblation)
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 2 || len(series[0].Points) != 1 {
		t.Fatalf("unexpected shape: %+v", series)
	}
}

// TestMeshExtensionQuick covers the mesh/torus study wrapper.
func TestMeshExtensionQuick(t *testing.T) {
	series, err := MeshExtension(4, 4, 8, 0.1, []float64{0.002}, quickAblation)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range series {
		sim, ok := s.Points[0].Get("simulator")
		if !ok || sim.Completed == 0 {
			t.Errorf("%s: no simulation output", s.Label)
		}
	}
}

// TestServiceFormulaAblationQuick checks the service-recurrence study:
// Eq. 6 must predict latencies at or above the tail-release variant
// (it adds a cycle per downstream hop).
func TestServiceFormulaAblationQuick(t *testing.T) {
	points, err := ServiceFormulaAblation(8, 8, []float64{0.002, 0.004}, quickAblation)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 2 {
		t.Fatalf("got %d points, want 2", len(points))
	}
	for _, p := range points {
		if p.Eq6Unicast < p.TailUnicast {
			t.Errorf("rate %v: Eq6 %v below tail-release %v", p.Rate, p.Eq6Unicast, p.TailUnicast)
		}
	}
	if table := ServiceTable(points); !strings.Contains(table, "eq6-uni") {
		t.Errorf("service table malformed:\n%s", table)
	}
}

// TestWorkloadAblationQuick drives the workload-diversity study end to
// end at one rate and checks the table renders every variant.
func TestWorkloadAblationQuick(t *testing.T) {
	series, err := WorkloadAblation(16, 8, []float64{0.002}, quickAblation)
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 7 {
		t.Fatalf("got %d series, want 7", len(series))
	}
	for _, s := range series {
		sim, ok := s.Points[0].Get("simulator")
		if !ok {
			t.Fatalf("%s: no simulator result", s.Label)
		}
		if sim.Completed == 0 && !sim.Saturated {
			t.Errorf("%s: nothing completed", s.Label)
		}
	}
	table := SimSeriesTable(series)
	for _, label := range []string{"poisson/uniform", "onoff(8,0.25)/tornado", "periodic/uniform"} {
		if !strings.Contains(table, label) {
			t.Errorf("table missing %q:\n%s", label, table)
		}
	}
}

// TestRelErr covers the shared relative-error helper.
func TestRelErr(t *testing.T) {
	if got := RelErr(11, 10); math.Abs(got-0.1) > 1e-15 {
		t.Errorf("RelErr(11, 10) = %v, want 0.1", got)
	}
	if got := RelErr(5, 0); !math.IsNaN(got) && !math.IsInf(got, 0) && got != 0 {
		// Any sentinel is fine; just ensure it does not panic and is
		// deterministic.
		t.Logf("RelErr(5, 0) = %v", got)
	}
}

// TestScenarioOptionSurface exercises the remaining thin Spec knobs so the
// public surface stays under test: every named topology resolves and the
// simulator knobs apply without error.
func TestScenarioOptionSurface(t *testing.T) {
	s, err := Spec{
		Topology: "hypercube", Dims: 3, MsgLen: 8, Rate: 0.001,
		Damping: 0.4, MaxIter: 500, Tol: 1e-8,
		SatQueue: 100, Drain: true, MulticastPriority: true,
		TraceNode: 0, TraceLimit: 16,
	}.Scenario()
	if err != nil {
		t.Fatal(err)
	}
	if s.Nodes() != 8 {
		t.Errorf("hypercube(3) has %d nodes, want 8", s.Nodes())
	}
	if _, err := (Spec{Topology: "torus", W: 4, H: 4, Rate: 0.001}).Scenario(); err != nil {
		t.Errorf("torus: %v", err)
	}
	if _, err := (Spec{Topology: "quarc-oneport", N: 8, Rate: 0.001}).Scenario(); err != nil {
		t.Errorf("quarc-oneport: %v", err)
	}
	if _, err := (Spec{Topology: "spidergon", N: 8, Rate: 0.001}).Scenario(); err != nil {
		t.Errorf("spidergon: %v", err)
	}
	e := DefaultEffort()
	if e.Measure <= QuickEffort().Measure {
		t.Error("default effort not larger than quick effort")
	}
	if _, err := (Simulator{}).Evaluate(s); err != nil {
		t.Errorf("simulator with full knob surface: %v", err)
	}
}
