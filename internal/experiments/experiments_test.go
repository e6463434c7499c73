package experiments

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

// tinySim keeps test runtime low while still giving stable means.
func tinySim() SimConfig { return SimConfig{Warmup: 3000, Measure: 25000, Seed: 7} }

func TestPanelDefinitionsCoverPaperGrid(t *testing.T) {
	panels := AllPanels()
	if len(panels) != 8 {
		t.Fatalf("panels = %d, want 8", len(panels))
	}
	sizes := map[int]bool{}
	msgs := map[int]bool{}
	alphas := map[float64]bool{}
	for _, p := range panels {
		sizes[p.N] = true
		msgs[p.MsgLen] = true
		alphas[p.Alpha] = true
		if p.Figure != "6" && p.Figure != "7" {
			t.Errorf("panel %s has figure %q", p.ID, p.Figure)
		}
		if p.Random != (p.Figure == "6") {
			t.Errorf("panel %s: regime/figure mismatch", p.ID)
		}
	}
	for _, n := range []int{16, 32, 64, 128} {
		if !sizes[n] {
			t.Errorf("network size %d not covered", n)
		}
	}
	for _, m := range []int{16, 32, 48, 64} {
		if !msgs[m] {
			t.Errorf("message length %d not covered", m)
		}
	}
	for _, a := range []float64{0.03, 0.05, 0.10} {
		if !alphas[a] {
			t.Errorf("multicast rate %v not covered", a)
		}
	}
}

func TestPanelByID(t *testing.T) {
	p, err := PanelByID("fig7-c")
	if err != nil {
		t.Fatal(err)
	}
	if p.N != 64 || p.Figure != "7" {
		t.Fatalf("wrong panel: %+v", p)
	}
	if _, err := PanelByID("fig9-z"); err == nil {
		t.Fatal("unknown panel accepted")
	}
}

func TestFindSaturationRate(t *testing.T) {
	p, _ := PanelByID("fig6-a")
	rt, err := p.Router()
	if err != nil {
		t.Fatal(err)
	}
	set, err := p.DestinationSet(rt)
	if err != nil {
		t.Fatal(err)
	}
	sat, err := FindSaturationRate(rt, p.MsgLen, p.Alpha, set, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	if !(sat > 0 && sat < 1.0/float64(p.MsgLen)) {
		t.Fatalf("saturation rate %v out of plausible range", sat)
	}
}

// The headline reproduction check: on a small panel, the analytical model
// must track the simulator within 10% (mean over the sweep's stable
// region) for both unicast and multicast latency. The paper reports "an
// excellent approximation ... in a wide range of configurations".
func TestModelTracksSimulatorFig6(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep in -short mode")
	}
	p, _ := PanelByID("fig6-a")
	p.Points = 5
	res, err := RunPanel(p, tinySim())
	if err != nil {
		t.Fatal(err)
	}
	a := res.AgreementCore()
	if a.Compared < 3 {
		t.Fatalf("only %d comparable points", a.Compared)
	}
	if a.MeanUnicastErr > 0.10 {
		t.Errorf("mean unicast error %.3f > 10%%", a.MeanUnicastErr)
	}
	if a.MeanMulticastErr > 0.12 {
		t.Errorf("mean multicast error %.3f > 12%%", a.MeanMulticastErr)
	}
}

func TestModelTracksSimulatorFig7(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep in -short mode")
	}
	p, _ := PanelByID("fig7-a")
	p.Points = 5
	res, err := RunPanel(p, tinySim())
	if err != nil {
		t.Fatal(err)
	}
	a := res.AgreementCore()
	if a.Compared < 3 {
		t.Fatalf("only %d comparable points", a.Compared)
	}
	if a.MeanUnicastErr > 0.10 || a.MeanMulticastErr > 0.12 {
		t.Errorf("model does not track simulator: %+v", a)
	}
}

func TestRunPanelOutputsWellFormed(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep in -short mode")
	}
	p, _ := PanelByID("fig7-a")
	p.Points = 3
	res, err := RunPanel(p, tinySim())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 3 {
		t.Fatalf("points = %d, want 3", len(res.Points))
	}
	for i, pt := range res.Points {
		if i > 0 && pt.Rate <= res.Points[i-1].Rate {
			t.Error("rates not increasing")
		}
		if !pt.ModelSaturated && (pt.ModelUnicast <= 0 || math.IsNaN(pt.ModelUnicast)) {
			t.Errorf("point %d has bad model latency %v", i, pt.ModelUnicast)
		}
		if !pt.SimSaturated && pt.SimMessages <= 0 {
			t.Errorf("point %d has no simulated messages", i)
		}
	}

	var buf bytes.Buffer
	if err := WriteCSV(&buf, res); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 4 { // header + 3 points
		t.Fatalf("CSV has %d lines, want 4", len(lines))
	}
	if !strings.HasPrefix(lines[0], "panel,n,msglen") {
		t.Errorf("CSV header wrong: %s", lines[0])
	}

	plot := AsciiPlot(res, 60, 12)
	if !strings.Contains(plot, "fig7-a") || !strings.Contains(plot, "latency") {
		t.Errorf("plot missing labels:\n%s", plot)
	}

	table := SummaryTable([]Result{res})
	if !strings.Contains(table, "fig7-a") {
		t.Errorf("summary missing panel: %s", table)
	}
}

// A one-point panel used to divide 0 by 0 placing its rate; it lands
// mid-region, and two points sit at the ends of the sampled range.
func TestRunPanelFewPoints(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep in -short mode")
	}
	p, _ := PanelByID("fig7-a")
	for points, fracs := range map[int][]float64{1: {0.50}, 2: {0.10, 0.95}} {
		p.Points = points
		res, err := RunPanel(p, tinySim())
		if err != nil {
			t.Fatalf("Points=%d: %v", points, err)
		}
		if len(res.Points) != points {
			t.Fatalf("Points=%d: got %d points", points, len(res.Points))
		}
		for i, pt := range res.Points {
			if pt.Rate != res.SatRate*fracs[i] || pt.ModelSaturated || !(pt.ModelUnicast > 0) {
				t.Errorf("Points=%d: point %d at rate %v (want %v of %v): %+v",
					points, i, pt.Rate, fracs[i], res.SatRate, pt)
			}
		}
	}
}

func TestAsciiPlotHandlesNoData(t *testing.T) {
	res := Result{Panel: Panel{ID: "x"}, Points: []Point{{
		Rate: 1, ModelUnicast: math.Inf(1), ModelMulticast: math.Inf(1),
		SimUnicast: math.NaN(), SimMulticast: math.NaN(),
	}}}
	out := AsciiPlot(res, 40, 10)
	if !strings.Contains(out, "no finite data") {
		t.Errorf("degenerate plot output: %q", out)
	}
}

func TestOnePortAblationShowsInjectionSerialization(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep in -short mode")
	}
	series, err := OnePortAblation(16, 32, 0.05, []float64{0.002}, tinySim())
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 2 {
		t.Fatalf("series = %d, want 2", len(series))
	}
	all := series[0].Points[0]
	one := series[1].Points[0]
	// The all-port router's four parallel broadcast branches must beat the
	// one-port router's serialized injection by a wide margin (sim side),
	// and the extended model must predict both within 25%.
	if !(one.SimMulticast > 2*all.SimMulticast) {
		t.Errorf("one-port broadcast %v not clearly slower than all-port %v",
			one.SimMulticast, all.SimMulticast)
	}
	for _, pt := range []Point{all, one} {
		if e := math.Abs(pt.ModelMulticast-pt.SimMulticast) / pt.SimMulticast; e > 0.25 {
			t.Errorf("model multicast %v vs sim %v: err %.2f > 25%%",
				pt.ModelMulticast, pt.SimMulticast, e)
		}
	}
}

func TestSpidergonComparisonShowsTrueBroadcastWin(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep in -short mode")
	}
	series, err := SpidergonComparison(16, 32, 0.05, []float64{0.0005}, tinySim())
	if err != nil {
		t.Fatal(err)
	}
	q := series[0].Points[0]
	s := series[1].Points[0]
	// Paper Sec. 3.2: the Quarc's true broadcast dramatically beats the
	// Spidergon's N-1 consecutive unicasts.
	if !(s.SimMulticast > 5*q.SimMulticast) {
		t.Errorf("spidergon broadcast %v not dramatically slower than quarc %v",
			s.SimMulticast, q.SimMulticast)
	}
}

func TestMeshExtensionModelValidity(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep in -short mode")
	}
	series, err := MeshExtension(4, 4, 16, 0.05, []float64{0.004}, tinySim())
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range series {
		pt := s.Points[0]
		if pt.ModelSaturated || pt.SimSaturated {
			t.Fatalf("%s unexpectedly saturated", s.Label)
		}
		for _, pair := range [][2]float64{
			{pt.ModelUnicast, pt.SimUnicast},
			{pt.ModelMulticast, pt.SimMulticast},
		} {
			if e := math.Abs(pair[0]-pair[1]) / pair[1]; e > 0.10 {
				t.Errorf("%s: model %v vs sim %v (err %.3f > 10%%)", s.Label, pair[0], pair[1], e)
			}
		}
	}
	if out := SeriesTable(series); !strings.Contains(out, "mesh-4x4") || !strings.Contains(out, "torus-4x4") {
		t.Errorf("series table incomplete:\n%s", out)
	}
}
