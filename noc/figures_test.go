package noc

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"
)

// TestPanelCatalog pins the figure-panel plumbing: the catalog is
// non-empty and IDs resolve.
func TestPanelCatalog(t *testing.T) {
	all := FigurePanels()
	if len(all) == 0 {
		t.Fatal("no figure panels")
	}
	if len(Fig6Panels())+len(Fig7Panels()) != len(all) {
		t.Errorf("fig6 (%d) + fig7 (%d) != all (%d)",
			len(Fig6Panels()), len(Fig7Panels()), len(all))
	}
	first := all[0]
	got, err := PanelByID(first.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got != first {
		t.Errorf("PanelByID(%q) = %+v, want %+v", first.ID, got, first)
	}
	if _, err := PanelByID("fig99-z"); err == nil {
		t.Error("unknown panel ID resolved")
	}
}

// TestRunFigurePanelsQuick drives one tiny custom panel end to end
// through the public figure API: run, ASCII plot, CSV, JSON, summary.
func TestRunFigurePanelsQuick(t *testing.T) {
	panel := Panel{
		ID: "test-quick", Figure: "6", N: 8, MsgLen: 8, Alpha: 0.1,
		Random: true, SetSize: 2, SetSeed: 3, Points: 2,
	}
	results, err := RunFigurePanels([]Panel{panel},
		Effort{Warmup: 500, Measure: 4000, Seed: 11}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 {
		t.Fatalf("got %d results, want 1", len(results))
	}
	r := results[0]
	if r.Panel().ID != "test-quick" {
		t.Errorf("panel ID = %q", r.Panel().ID)
	}
	if r.SatRate() <= 0 {
		t.Errorf("saturation rate = %v, want > 0", r.SatRate())
	}
	if plot := r.AsciiPlot(40, 12); !strings.Contains(plot, "latency") && len(plot) < 40 {
		t.Errorf("ascii plot suspiciously short:\n%s", plot)
	}
	var csv bytes.Buffer
	if err := r.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(csv.String(), "\n"); lines < 2 {
		t.Errorf("CSV has %d lines, want >= 2:\n%s", lines, csv.String())
	}
	var js bytes.Buffer
	if err := WriteFiguresJSON(&js, results); err != nil {
		t.Fatal(err)
	}
	var decoded []map[string]any
	if err := json.Unmarshal(js.Bytes(), &decoded); err != nil {
		t.Fatalf("figures JSON does not parse: %v", err)
	}
	if sum := FiguresSummary(results); !strings.Contains(sum, "test-quick") {
		t.Errorf("summary table missing the panel:\n%s", sum)
	}
}

// TestSaturationStudyQuick covers the saturation-study wrappers.
func TestSaturationStudyQuick(t *testing.T) {
	rows, err := SaturationStudy([]int{8, 16}, []int{8}, []float64{0.05}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("got %d rows, want 2", len(rows))
	}
	for _, r := range rows {
		if r.SatRate <= 0 || r.Capacity <= 0 {
			t.Errorf("row %+v has non-positive saturation", r)
		}
	}
	table := SatTable(rows)
	if !strings.Contains(table, "8") {
		t.Errorf("saturation table empty:\n%s", table)
	}
}

// TestPanelsTrackSimulator is the paper's claim as a gate: on every panel
// of Figs. 6 and 7 the analytical model tracks the simulator over the core
// region (rates up to 70% of saturation). The ceilings are the mean
// relative errors this grid records (quick effort, 4 points, default
// seed) plus two percentage points.
func TestPanelsTrackSimulator(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweeps in -short mode")
	}
	ceilings := map[string][2]float64{ // unicast, multicast
		"fig6-a": {0.046, 0.045}, "fig6-b": {0.060, 0.113},
		"fig6-c": {0.062, 0.085}, "fig6-d": {0.078, 0.132},
		"fig7-a": {0.046, 0.072}, "fig7-b": {0.033, 0.071},
		"fig7-c": {0.102, 0.100}, "fig7-d": {0.110, 0.115},
	}
	panels := FigurePanels()
	if len(panels) != len(ceilings) {
		t.Fatalf("%d panels, %d ceilings", len(panels), len(ceilings))
	}
	for _, p := range panels {
		p.Points = 4
		t.Run(p.ID, func(t *testing.T) {
			res, err := RunFigurePanels([]Panel{p}, QuickEffort(), 1)
			if err != nil {
				t.Fatal(err)
			}
			a := res[0].agreementCore()
			if a.Compared < 3 {
				t.Fatalf("only %d comparable points", a.Compared)
			}
			if c := ceilings[p.ID]; a.MeanUnicastErr > c[0] || a.MeanMulticastErr > c[1] {
				t.Errorf("core error unicast %.4f, multicast %.4f exceeds the ceilings %v", a.MeanUnicastErr, a.MeanMulticastErr, c)
			}
		})
	}
}

// nonFinitePanel is a one-point result with nothing finite to draw: a
// saturated model and a simulator with no samples.
func nonFinitePanel() PanelResult {
	nan := math.NaN()
	return PanelResult{
		panel: Panel{ID: "x", Figure: "6", N: 16, MsgLen: 16, Random: true},
		sweep: SweepResult{Points: []SweepPoint{{Rate: 0.5, Results: []Result{
			{Evaluator: "model", Unicast: math.Inf(1), Multicast: math.Inf(1), Saturated: true},
			{Evaluator: "simulator", Unicast: nan, Multicast: nan, UnicastCI: nan, MulticastCI: nan, Saturated: true},
		}}}},
	}
}

func TestAsciiPlotHandlesNoData(t *testing.T) {
	if out := nonFinitePanel().AsciiPlot(40, 10); !strings.Contains(out, "no finite data") {
		t.Errorf("degenerate plot output: %q", out)
	}
}

func TestWriteFiguresJSONEncodesNonFiniteAsNull(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFiguresJSON(&buf, []PanelResult{nonFinitePanel()}); err != nil {
		t.Fatal(err)
	}
	var decoded []struct {
		Points []struct {
			ModelUnicast *float64 `json:"model_unicast"`
			SimUnicast   *float64 `json:"sim_unicast"`
			SimUnicastCI *float64 `json:"sim_unicast_ci95"`
		} `json:"points"`
	}
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatal(err)
	}
	if pt := decoded[0].Points[0]; pt.ModelUnicast != nil || pt.SimUnicast != nil || pt.SimUnicastCI != nil {
		t.Errorf("non-finite values not encoded as null: %s", buf.String())
	}
}
