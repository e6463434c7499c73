package experiments

import (
	"math"
	"testing"
)

func TestRunPanelsMatchesSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweeps in -short mode")
	}
	panels := []Panel{}
	for _, id := range []string{"fig6-a", "fig7-a"} {
		p, err := PanelByID(id)
		if err != nil {
			t.Fatal(err)
		}
		p.Points = 3
		panels = append(panels, p)
	}
	cfg := tinySim()

	par, err := RunPanels(panels, cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(par) != len(panels) {
		t.Fatalf("results = %d, want %d", len(par), len(panels))
	}
	for i, p := range panels {
		seq, err := RunPanel(p, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if par[i].Panel.ID != p.ID {
			t.Fatalf("result %d is panel %s, want %s (ordering lost)", i, par[i].Panel.ID, p.ID)
		}
		for j := range seq.Points {
			a, b := par[i].Points[j], seq.Points[j]
			if a.SimUnicast != b.SimUnicast || a.ModelUnicast != b.ModelUnicast {
				t.Fatalf("panel %s point %d differs between parallel and sequential: %+v vs %+v",
					p.ID, j, a, b)
			}
		}
	}
}

func TestRunPanelsEmpty(t *testing.T) {
	res, err := RunPanels(nil, tinySim(), 2)
	if err != nil || res != nil {
		t.Fatalf("empty input: res=%v err=%v", res, err)
	}
}

func TestRunPanelsPropagatesErrors(t *testing.T) {
	bad := Panel{ID: "bad", N: 7, MsgLen: 16, Alpha: 0, Points: 2} // invalid N
	if _, err := RunPanels([]Panel{bad}, tinySim(), 2); err == nil {
		t.Fatal("invalid panel did not error")
	}
}

func TestSaturationStudyMonotone(t *testing.T) {
	rows, err := SaturationStudy([]int{16, 32, 64}, []int{16, 32}, []float64{0.0, 0.05}, 3)
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
	if out := SatTable(rows); len(out) == 0 {
		t.Error("empty table")
	}
}
