package core

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sync/atomic"
	"testing"

	"quarc/internal/routing"
	"quarc/internal/topology"
	"quarc/internal/traffic"
)

// saturationRateReference is SaturationRate as it bisected before the
// predicted bracket, every verdict from the solver, with the row-sweeps
// of its solves counted. It is the oracle of the two-pass search.
func saturationRateReference(m *Model, tol float64) (float64, int, error) {
	if !(tol > 0 && tol < 1) {
		return 0, 0, fmt.Errorf("core: saturation tolerance %v out of (0,1)", tol)
	}
	rowSweeps := 0
	lo := 0.0
	hi := 1.0 / float64(m.in.MsgLen) // one message per drain time is far beyond capacity
	for hi-lo > tol*hi {
		mid := (lo + hi) / 2
		if mid == lo || mid == hi {
			break // no float lies strictly between lo and hi
		}
		// Only the verdict matters, and a stable one fails where SolveAt's
		// latency sums would.
		pred, err := m.verdict(mid)
		rowSweeps += pred.Iterations * len(m.rows)
		if err == nil && !pred.Saturated {
			err = m.missingBranches()
		}
		if err != nil {
			return 0, rowSweeps, err
		}
		if pred.Saturated {
			hi = mid
		} else {
			lo = mid
		}
	}
	if lo == 0 {
		return 0, rowSweeps, fmt.Errorf("core: no stable rate found below %v", hi)
	}
	return lo, rowSweeps, nil
}

// checkSearch runs the two-pass search on a fresh model of in and the
// oracle on another, fails unless both end at the same rate bits with
// the same error, and returns the search's work and the oracle's
// row-sweeps.
func checkSearch(t testing.TB, in Input, tol float64, name string) (searchStats, int) {
	t.Helper()
	got, st, gotErr := must(NewModel(in)).saturationRate(tol)
	want, refSweeps, wantErr := saturationRateReference(must(NewModel(in)), tol)
	if math.Float64bits(got) != math.Float64bits(want) || fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
		t.Fatalf("%s tol %v: search %v (%v), reference %v (%v)", name, tol, got, gotErr, want, wantErr)
	}
	return st, refSweeps
}

type figurePanel struct {
	name string
	in   Input
}

// figurePanels are the paper's eight figure panels (noc.FigurePanels) as
// model inputs: Fig. 6 draws its random set from PCG stream 0x5e7 (seed >
// 0), Fig. 7 localizes it on one rim.
func figurePanels(tb testing.TB) []figurePanel {
	var out []figurePanel
	for _, p := range []struct {
		name        string
		n, msg      int
		alpha       float64
		seed        uint64
		port, dests int
	}{
		{"fig6-a", 16, 32, 0.05, 61, 0, 5},
		{"fig6-b", 32, 16, 0.10, 62, 0, 6},
		{"fig6-c", 64, 48, 0.05, 63, 0, 8},
		{"fig6-d", 128, 64, 0.03, 64, 0, 10},
		{"fig7-a", 16, 32, 0.05, 0, topology.PortL, 3},
		{"fig7-b", 32, 64, 0.03, 0, topology.PortR, 5},
		{"fig7-c", 64, 16, 0.10, 0, topology.PortCL, 6},
		{"fig7-d", 128, 32, 0.05, 0, topology.PortL, 8},
	} {
		rt := quarcRouter(tb, p.n)
		var set routing.MulticastSet
		if p.seed > 0 {
			set = must(rt.RandomSet(rand.New(rand.NewPCG(p.seed, 0x5e7)), p.dests))
		} else {
			set = must(rt.LocalizedSet(p.port, p.dests))
		}
		out = append(out, figurePanel{p.name, Input{Router: rt, Spec: traffic.Spec{MulticastFrac: p.alpha, Set: set}, MsgLen: p.msg}})
	}
	return out
}

// The two-pass search ends exactly where bisecting with the solver
// throughout ends, rate bits and error, over the battery: every router
// family and spatial pattern, multicast fractions 0, 0.05 and 1, both
// formulas, non-default damping and iteration caps (a cap of 1 or 7
// stops every solve mid-flight, where the predictor's bracket is often
// refused), tolerances down to one below the float spacing, and the
// eight figure panels under both formulas. The solver must refuse some
// bracket somewhere, so the fallback is exercised. A -race build runs
// the battery at one tolerance and leaves the panels to
// TestSaturationRateWork.
func TestSaturationRateMatchesColdBisection(t *testing.T) {
	type knobs struct {
		damping float64
		maxIter int
	}
	var searches, fellBack atomic.Int64
	t.Run("battery", func(t *testing.T) {
		for _, tp := range batteryTopos() {
			t.Run(tp.name, func(t *testing.T) {
				t.Parallel()
				tols := []float64{1e-2, 1e-3, 1e-6, 1e-18}
				switch {
				case raceBuild:
					tols = tols[:1]
				case tp.rt.Graph().Nodes() > 16:
					tols = tols[:2] // the panels search quarc-64 at 1e-6
				}
				spatial := batterySpatial(tp.rt.Graph().Nodes())
				for _, alpha := range []float64{0, 0.05, 1} {
					for pattern, spec := range spatial {
						for _, sf := range []ServiceFormula{PaperEq6, TailRelease} {
							for _, wf := range []WaitFormula{PKStandard, PaperEq3Literal} {
								spec.MulticastFrac, spec.Set = alpha, tp.set
								ks := []knobs{{}}
								if pattern == "uniform" || pattern == "hotspot" {
									ks = append(ks, knobs{damping: 0.3}, knobs{damping: 1}, knobs{maxIter: 1}, knobs{maxIter: 7})
								}
								for _, k := range ks {
									in := Input{Router: tp.rt, Spec: spec, MsgLen: 16, ServiceFormula: sf, WaitFormula: wf,
										Damping: k.damping, MaxIter: k.maxIter}
									name := fmt.Sprintf("alpha=%v/%s/service=%d/wait=%d/damping=%v/maxiter=%d",
										alpha, pattern, sf, wf, k.damping, k.maxIter)
									for _, tol := range tols {
										searches.Add(1)
										if st, _ := checkSearch(t, in, tol, name); st.fellBack {
											fellBack.Add(1)
										}
									}
								}
							}
						}
					}
				}
			})
		}
	})
	t.Logf("%d of %d battery searches fell back", fellBack.Load(), searches.Load())
	if fellBack.Load() == 0 {
		t.Error("the solver confirmed every predicted bracket: the fallback never ran")
	}
	if raceBuild {
		return
	}
	for _, p := range figurePanels(t) {
		for _, sf := range []ServiceFormula{PaperEq6, TailRelease} {
			for _, wf := range []WaitFormula{PKStandard, PaperEq3Literal} {
				in := p.in
				in.ServiceFormula, in.WaitFormula = sf, wf
				for _, tol := range []float64{1e-3, 1e-6} {
					checkSearch(t, in, tol, fmt.Sprintf("%s/service=%d/wait=%d", p.name, sf, wf))
				}
			}
		}
	}
}

// The search's exact work on the eight figure panels: the row-sweeps of
// its predictor and confirmation solves against the solver-only
// bisection's, logged per panel. No panel may fall back, and the panels
// in total must need at most 35 % of the reference's row-sweeps, so a
// search that silently bisects with the solver again fails here.
func TestSaturationRateWork(t *testing.T) {
	total, refTotal := 0, 0
	for _, p := range figurePanels(t) {
		st, ref := checkSearch(t, p.in, 1e-3, p.name)
		t.Logf("%s: %d row-sweeps, reference %d (%.1f %%)", p.name, st.rowSweeps, ref, 100*float64(st.rowSweeps)/float64(ref))
		if st.fellBack {
			t.Errorf("%s: the solver refused the predicted bracket", p.name)
		}
		total += st.rowSweeps
		refTotal += ref
	}
	t.Logf("eight panels: %d row-sweeps, reference %d (%.1f %%)", total, refTotal, 100*float64(total)/float64(refTotal))
	if 100*total > 35*refTotal {
		t.Errorf("the search takes %d row-sweeps over the eight panels, more than 35 %% of the reference's %d", total, refTotal)
	}
}

// FuzzSaturationRateMatchesCold drives the battery's comparison over
// arbitrary multicast fractions, damping factors, iteration caps,
// formulas and tolerances in [1e-6, 0.5), on the hotspot pattern of
// each battery topology.
func FuzzSaturationRateMatchesCold(f *testing.F) {
	f.Add(uint8(0), 0.05, 0.0, 0, false, false, 1e-3)
	f.Add(uint8(1), 0.05, 0.3, 0, true, false, 1e-6)
	f.Add(uint8(2), 1.0, 1.0, 7, false, true, 0.1)
	f.Add(uint8(3), 0.0, 0.0, 1, true, true, 0.49)
	f.Add(uint8(4), 0.5, 0.7, 0, false, false, 1e-2)
	f.Add(uint8(5), 0.2, 0.0, -3, true, false, 3e-5)
	f.Add(uint8(6), math.NaN(), 0.0, 0, false, false, math.NaN())
	f.Fuzz(func(t *testing.T, topo uint8, alpha, damping float64, maxIter int, tail, eq3 bool, tol float64) {
		loadFuzzTopos()
		tp := fuzzTopos[int(topo)%len(fuzzTopos)]
		if !(alpha >= 0 && alpha <= 1) {
			alpha = 0
		}
		if !(damping > 0 && damping <= 1) {
			damping = 0
		}
		if !(tol >= 1e-6 && tol < 0.5) {
			tol = 1e-3
		}
		in := Input{Router: tp.rt, MsgLen: 16, Damping: damping, MaxIter: maxIter % 500}
		in.Spec = batterySpatial(tp.rt.Graph().Nodes())["hotspot"]
		in.Spec.MulticastFrac, in.Spec.Set = alpha, tp.set
		if tail {
			in.ServiceFormula = TailRelease
		}
		if eq3 {
			in.WaitFormula = PaperEq3Literal
		}
		checkSearch(t, in, tol, fmt.Sprintf("%s/alpha=%v/damping=%v/maxiter=%d/tail=%v/eq3=%v",
			tp.name, alpha, damping, in.MaxIter, tail, eq3))
	})
}
