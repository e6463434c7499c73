package experiments

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand/v2"
	"strings"
	"testing"

	"quarc/internal/routing"
	"quarc/internal/topology"
	"quarc/noc"
)

// The tests in this file hold the paper's evaluation — figure panels,
// saturation study, ablations — to its physical claims and output
// contracts through the public noc API alone, as cmd/figures and
// cmd/ablations see it.

// tinySim keeps test runtime low while still giving stable means.
func tinySim() noc.Effort { return noc.Effort{Warmup: 3000, Measure: 25000, Seed: 7} }

// figureDoc is the part of WriteFiguresJSON the tests read.
type figureDoc struct {
	Panel   string  `json:"panel"`
	Figure  string  `json:"figure"`
	Regime  string  `json:"regime"`
	SatRate float64 `json:"model_saturation_rate"`
	Points  []struct {
		Rate           float64  `json:"rate"`
		ModelUnicast   *float64 `json:"model_unicast"`
		ModelSaturated bool     `json:"model_saturated"`
		SimSaturated   bool     `json:"sim_saturated"`
		SimMessages    int64    `json:"sim_messages"`
	} `json:"points"`
	Core *struct{ Compared int } `json:"agreement_core"`
}

// runPanel runs one predefined panel at the given grid size and decodes
// its JSON rendering.
func runPanel(t *testing.T, id string, points int) (noc.PanelResult, figureDoc) {
	t.Helper()
	p, err := noc.PanelByID(id)
	if err != nil {
		t.Fatal(err)
	}
	p.Points = points
	res, err := noc.RunFigurePanels([]noc.Panel{p}, tinySim(), 1)
	if err != nil {
		t.Fatalf("%s, %d points: %v", id, points, err)
	}
	return res[0], decodeFigures(t, res)[0]
}

func decodeFigures(t *testing.T, res []noc.PanelResult) []figureDoc {
	t.Helper()
	var buf bytes.Buffer
	if err := noc.WriteFiguresJSON(&buf, res); err != nil {
		t.Fatal(err)
	}
	var docs []figureDoc
	if err := json.Unmarshal(buf.Bytes(), &docs); err != nil {
		t.Fatalf("output is not valid JSON: %v", err)
	}
	return docs
}

func TestPanelDefinitionsCoverPaperGrid(t *testing.T) {
	panels := noc.FigurePanels()
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
	p, err := noc.PanelByID("fig7-c")
	if err != nil {
		t.Fatal(err)
	}
	if p.N != 64 || p.Figure != "7" {
		t.Fatalf("wrong panel: %+v", p)
	}
	if _, err := noc.PanelByID("fig9-z"); err == nil {
		t.Fatal("unknown panel accepted")
	}
}

func TestFindSaturationRate(t *testing.T) {
	q, err := topology.NewQuarc(16)
	if err != nil {
		t.Fatal(err)
	}
	rt := routing.NewQuarcRouter(q)
	set, err := rt.RandomSet(rand.New(rand.NewPCG(61, 0x5e7)), 5) // fig6-a
	if err != nil {
		t.Fatal(err)
	}
	const msgLen = 32
	sat, err := FindSaturationRate(rt, msgLen, 0.05, set, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	if !(sat > 0 && sat < 1.0/msgLen) {
		t.Fatalf("saturation rate %v out of plausible range", sat)
	}
}

func TestRunPanelOutputsWellFormed(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep in -short mode")
	}
	res, doc := runPanel(t, "fig7-a", 3)
	if len(doc.Points) != 3 {
		t.Fatalf("points = %d, want 3", len(doc.Points))
	}
	for i, pt := range doc.Points {
		if i > 0 && pt.Rate <= doc.Points[i-1].Rate {
			t.Error("rates not increasing")
		}
		if !pt.ModelSaturated && (pt.ModelUnicast == nil || *pt.ModelUnicast <= 0) {
			t.Errorf("point %d has bad model latency %v", i, pt.ModelUnicast)
		}
		if !pt.SimSaturated && pt.SimMessages <= 0 {
			t.Errorf("point %d has no simulated messages", i)
		}
	}

	var buf bytes.Buffer
	if err := res.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 4 { // header + 3 points
		t.Fatalf("CSV has %d lines, want 4", len(lines))
	}
	if !strings.HasPrefix(lines[0], "panel,n,msglen") {
		t.Errorf("CSV header wrong: %s", lines[0])
	}

	plot := res.AsciiPlot(60, 12)
	if !strings.Contains(plot, "fig7-a") || !strings.Contains(plot, "latency") {
		t.Errorf("plot missing labels:\n%s", plot)
	}

	table := noc.FiguresSummary([]noc.PanelResult{res})
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
	for points, fracs := range map[int][]float64{1: {0.50}, 2: {0.10, 0.95}} {
		res, doc := runPanel(t, "fig7-a", points)
		if len(doc.Points) != points {
			t.Fatalf("Points=%d: got %d points", points, len(doc.Points))
		}
		for i, pt := range doc.Points {
			if pt.Rate != res.SatRate()*fracs[i] || pt.ModelSaturated || pt.ModelUnicast == nil || !(*pt.ModelUnicast > 0) {
				t.Errorf("Points=%d: point %d at rate %v (want %v of %v): %+v",
					points, i, pt.Rate, fracs[i], res.SatRate(), pt)
			}
		}
	}
}

func TestWriteJSONRoundTrips(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation in -short mode")
	}
	_, d := runPanel(t, "fig7-a", 3)
	if d.Panel != "fig7-a" || d.Figure != "7" || d.Regime != "localized" {
		t.Errorf("metadata wrong: %+v", d)
	}
	if len(d.Points) != 3 {
		t.Fatalf("points wrong: %+v", d.Points)
	}
	if d.Points[0].ModelUnicast == nil {
		t.Error("model_unicast not numeric")
	}
	if d.Core == nil {
		t.Error("agreement_core missing")
	}
}

func TestWriteJSONEmpty(t *testing.T) {
	if docs := decodeFigures(t, nil); len(docs) != 0 {
		t.Fatalf("decoded %d, want 0", len(docs))
	}
}

// The worker count moves no bit of any panel and the input order is kept.
func TestRunPanelsMatchesSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweeps in -short mode")
	}
	var panels []noc.Panel
	for _, id := range []string{"fig6-a", "fig7-a"} {
		p, err := noc.PanelByID(id)
		if err != nil {
			t.Fatal(err)
		}
		p.Points = 3
		panels = append(panels, p)
	}
	render := func(workers int) []byte {
		res, err := noc.RunFigurePanels(panels, tinySim(), workers)
		if err != nil {
			t.Fatal(err)
		}
		if len(res) != len(panels) {
			t.Fatalf("results = %d, want %d", len(res), len(panels))
		}
		for i, p := range panels {
			if res[i].Panel().ID != p.ID {
				t.Fatalf("result %d is panel %s, want %s (ordering lost)", i, res[i].Panel().ID, p.ID)
			}
		}
		var buf bytes.Buffer
		if err := noc.WriteFiguresJSON(&buf, res); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if seq, par := render(1), render(4); !bytes.Equal(seq, par) {
		t.Errorf("panels differ between 1 and 4 workers:\n%s\nvs\n%s", seq, par)
	}
}

func TestRunPanelsEmpty(t *testing.T) {
	res, err := noc.RunFigurePanels(nil, tinySim(), 2)
	if err != nil || len(res) != 0 {
		t.Fatalf("empty input: res=%v err=%v", res, err)
	}
}

func TestRunPanelsPropagatesErrors(t *testing.T) {
	bad := noc.Panel{ID: "bad", N: 7, MsgLen: 16, Alpha: 0, Points: 2} // invalid N
	_, err := noc.RunFigurePanels([]noc.Panel{bad}, tinySim(), 2)
	if err == nil {
		t.Fatal("invalid panel did not error")
	}
	if !strings.Contains(err.Error(), "panel bad") {
		t.Errorf("error does not name the panel: %v", err)
	}
}

func TestSaturationStudyMonotone(t *testing.T) {
	rows, err := noc.SaturationStudy([]int{16, 32, 64}, []int{16, 32}, []float64{0.0, 0.05}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3*2*2 {
		t.Fatalf("rows = %d, want 12", len(rows))
	}
	byKey := map[[3]any]float64{}
	for _, r := range rows {
		if !(r.SatRate > 0) || math.IsInf(r.SatRate, 0) {
			t.Fatalf("bad saturation rate %v for %+v", r.SatRate, r)
		}
		byKey[[3]any{r.N, r.MsgLen, r.Alpha}] = r.SatRate
	}
	// Saturation rate decreases with network size...
	if !(byKey[[3]any{16, 16, 0.0}] > byKey[[3]any{32, 16, 0.0}]) ||
		!(byKey[[3]any{32, 16, 0.0}] > byKey[[3]any{64, 16, 0.0}]) {
		t.Error("saturation rate not decreasing in N")
	}
	// ... with message length ...
	if !(byKey[[3]any{16, 16, 0.0}] > byKey[[3]any{16, 32, 0.0}]) {
		t.Error("saturation rate not decreasing in message length")
	}
	// ... and with multicast share.
	if !(byKey[[3]any{16, 16, 0.0}] > byKey[[3]any{16, 16, 0.05}]) {
		t.Error("saturation rate not decreasing in alpha")
	}
	if out := noc.SatTable(rows); len(out) == 0 {
		t.Error("empty table")
	}
}

// both returns the model and simulator results of a series' only point.
func both(t *testing.T, s noc.Series) (model, sim noc.Result) {
	t.Helper()
	model, okM := s.Points[0].Get("model")
	sim, okS := s.Points[0].Get("simulator")
	if !okM || !okS {
		t.Fatalf("%s: point lacks a model or simulator result", s.Label)
	}
	return model, sim
}

func TestOnePortAblationShowsInjectionSerialization(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep in -short mode")
	}
	series, err := noc.OnePortAblation(16, 32, 0.05, []float64{0.002}, tinySim())
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 2 {
		t.Fatalf("series = %d, want 2", len(series))
	}
	allModel, all := both(t, series[0])
	oneModel, one := both(t, series[1])
	// The all-port router's four parallel broadcast branches must beat the
	// one-port router's serialized injection by a wide margin (sim side),
	// and the extended model must predict both within 25%.
	if !(one.Multicast > 2*all.Multicast) {
		t.Errorf("one-port broadcast %v not clearly slower than all-port %v", one.Multicast, all.Multicast)
	}
	for _, pair := range [][2]float64{{allModel.Multicast, all.Multicast}, {oneModel.Multicast, one.Multicast}} {
		if e := noc.RelErr(pair[0], pair[1]); !(e <= 0.25) {
			t.Errorf("model multicast %v vs sim %v: err %.2f > 25%%", pair[0], pair[1], e)
		}
	}
}

func TestSpidergonComparisonShowsTrueBroadcastWin(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep in -short mode")
	}
	series, err := noc.SpidergonComparison(16, 32, 0.05, []float64{0.0005}, tinySim())
	if err != nil {
		t.Fatal(err)
	}
	_, q := both(t, series[0])
	_, s := both(t, series[1])
	// Paper Sec. 3.2: the Quarc's true broadcast dramatically beats the
	// Spidergon's N-1 consecutive unicasts.
	if !(s.Multicast > 5*q.Multicast) {
		t.Errorf("spidergon broadcast %v not dramatically slower than quarc %v", s.Multicast, q.Multicast)
	}
}

func TestMeshExtensionModelValidity(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep in -short mode")
	}
	series, err := noc.MeshExtension(4, 4, 16, 0.05, []float64{0.004}, tinySim())
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range series {
		model, sim := both(t, s)
		if model.Saturated || sim.Saturated {
			t.Fatalf("%s unexpectedly saturated", s.Label)
		}
		for _, pair := range [][2]float64{{model.Unicast, sim.Unicast}, {model.Multicast, sim.Multicast}} {
			if e := noc.RelErr(pair[0], pair[1]); !(e <= 0.10) {
				t.Errorf("%s: model %v vs sim %v (err %.3f > 10%%)", s.Label, pair[0], pair[1], e)
			}
		}
	}
	if out := noc.SeriesTable(series); !strings.Contains(out, "mesh-4x4") || !strings.Contains(out, "torus-4x4") {
		t.Errorf("series table incomplete:\n%s", out)
	}
}
