package noc

import (
	"bytes"
	"encoding/json"
	"math"
	"slices"
	"strings"
	"testing"

	"quarc/internal/core"
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

// TestFig6PanelPointFromTheWire resolves one point of each Fig. 6 panel
// from its canonical JSON document, the form quarcd and quarcsim -spec
// read, and holds the model's and the simulator's Results there to the
// panel's curves at that rate: the document's set_stream states the
// panel's destination draw.
func TestFig6PanelPointFromTheWire(t *testing.T) {
	e := Effort{Warmup: 500, Measure: 4000, Seed: 11}
	for _, p := range Fig6Panels() {
		p.Points = 2
		res, err := RunFigurePanels([]Panel{p}, e, 1)
		if err != nil {
			t.Fatal(err)
		}
		pt := res[0].points[1]
		sp := atEffort(p.spec(), e)
		sp.Rate = pt.rate
		doc, err := sp.CanonicalJSON()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Contains(doc, []byte(`"set_stream":1511`)) {
			t.Errorf("%s: document %s does not state the panel's stream", p.ID, doc)
		}
		wire, err := ParseSpec(doc)
		if err != nil {
			t.Fatalf("%s: %v", p.ID, err)
		}
		s, err := wire.Scenario()
		if err != nil {
			t.Fatalf("%s: %v", p.ID, err)
		}
		if got := s.SetString(); got != res[0].set {
			t.Errorf("%s: the document draws {%s}, the panel ran {%s}", p.ID, got, res[0].set)
		}
		model, err := Model{}.Evaluate(s)
		if err != nil {
			t.Fatal(err)
		}
		sim, err := Simulator{}.Evaluate(s)
		if err != nil {
			t.Fatal(err)
		}
		fromWire := newPanelResult(p, SweepResult{Points: []SweepPoint{{Rate: pt.rate, Results: []Result{model, sim}}}})
		if got := fromWire.points[0]; !same(got, pt) {
			t.Errorf("%s at rate %v: from the wire\n%+v\nin the panel\n%+v", p.ID, pt.rate, got, pt)
		}
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
	return newPanelResult(Panel{ID: "x", Figure: "6", N: 16, MsgLen: 16, Random: true},
		SweepResult{Points: []SweepPoint{{Rate: 0.5, Results: []Result{
			{Evaluator: "model", Unicast: math.Inf(1), Multicast: math.Inf(1), Saturated: true},
			{Evaluator: "simulator", Unicast: nan, Multicast: nan, UnicastCI: nan, MulticastCI: nan, Saturated: true},
		}}}})
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

// TestModelMonotoneInRate pins the shape SaturationRate's bisection
// assumes, on every figure panel: across 100 rates up to 1.2× the
// saturation rate, the model's verdict is one stable→saturated step, at
// SaturationRate itself and below it every point is stable and has
// converged, from 1.002× it every point is saturated, and unicast and
// multicast latency never fall as the rate rises. The N=128 panels take
// most of the time and are skipped under -short.
func TestModelMonotoneInRate(t *testing.T) {
	for _, p := range FigurePanels() {
		t.Run(p.ID, func(t *testing.T) {
			if testing.Short() && p.N >= 128 {
				t.Skip("N=128 panel skipped under -short")
			}
			s, err := p.spec().Scenario()
			if err != nil {
				t.Fatal(err)
			}
			sat, err := SaturationRate(s)
			if err != nil {
				t.Fatal(err)
			}
			in := modelInput(s)
			in.Spec.Arrival = ""
			m, err := core.NewModel(in)
			if err != nil {
				t.Fatal(err)
			}
			const points = 100
			rates := []float64{sat, 1.002 * sat}
			for i := 1; i <= points; i++ {
				rates = append(rates, 1.2*sat*float64(i)/points)
			}
			slices.Sort(rates)
			var prev core.Prediction
			saturated := false
			for _, r := range rates {
				pred, err := m.SolveAt(r)
				if err != nil {
					t.Fatalf("rate %g: %v", r, err)
				}
				switch {
				case r <= sat && pred.Saturated:
					t.Fatalf("rate %g (≤ saturation %g) is saturated", r, sat)
				case r >= 1.002*sat && !pred.Saturated:
					t.Fatalf("rate %g (≥ 1.002 × saturation %g) is stable", r, sat)
				case saturated && !pred.Saturated:
					t.Fatalf("rate %g is stable after a lower rate saturated", r)
				case !pred.Saturated && !pred.Converged:
					t.Fatalf("rate %g: stable but the fixed point did not converge", r)
				case !pred.Saturated && (pred.UnicastLatency < prev.UnicastLatency || pred.MulticastLatency < prev.MulticastLatency):
					t.Fatalf("rate %g: latency fell to %g/%g from %g/%g", r,
						pred.UnicastLatency, pred.MulticastLatency, prev.UnicastLatency, prev.MulticastLatency)
				}
				saturated = pred.Saturated
				if !saturated {
					prev = pred
				}
			}
		})
	}
}
