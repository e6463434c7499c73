package core

import (
	"fmt"
	"math"
	"testing"

	"quarc/internal/topology"
	"quarc/internal/traffic"
)

// MG1Wait returns the Pollaczek-Khinchine mean waiting time of an M/G/1
// queue with arrival rate lambda, mean service time xbar and service-time
// standard deviation sigma:
//
//	W = λ·x̄²·(1 + σ²/x̄²) / (2(1-λx̄)) = λ·E[x²] / (2(1-ρ))
//
// Note: the paper's Eq. 3 prints the numerator as λρ, which is
// dimensionally inconsistent (see DESIGN.md §2); this is the standard P-K
// formula from the paper's cited source (Kleinrock vol. I). It returns +Inf
// when the queue is unstable (ρ >= 1).
func MG1Wait(lambda, xbar, sigma float64) float64 {
	if lambda < 0 || xbar < 0 {
		panic(fmt.Sprintf("core: negative M/G/1 parameters λ=%v x̄=%v", lambda, xbar))
	}
	if lambda == 0 || xbar == 0 {
		return 0
	}
	rho := lambda * xbar
	if rho >= 1 {
		return math.Inf(1)
	}
	ex2 := xbar*xbar + sigma*sigma
	return lambda * ex2 / (2 * (1 - rho))
}

// MG1WaitPaperEq3 evaluates Eq. 3 exactly as printed in the paper,
//
//	W = λρ·(1 + σ²/x̄²) / (2(1-λx̄))
//
// whose numerator λρ = λ²x̄ differs from the standard Pollaczek-Khinchine
// numerator λ·x̄² by a factor λ/x̄. Since ρ = λx̄ < 1 in the stable region,
// the printed formula underestimates waits by roughly x̄/λ ≫ 1. It is kept
// only so the reproduction can demonstrate the discrepancy empirically
// (see the WaitFormula option and DESIGN.md §2); the model defaults to the
// standard form, which is what the paper's cited source gives.
func MG1WaitPaperEq3(lambda, xbar, sigma float64) float64 {
	if lambda < 0 || xbar < 0 {
		panic(fmt.Sprintf("core: negative M/G/1 parameters λ=%v x̄=%v", lambda, xbar))
	}
	if lambda == 0 || xbar == 0 {
		return 0
	}
	rho := lambda * xbar
	if rho >= 1 {
		return math.Inf(1)
	}
	cv := 1 + sigma*sigma/(xbar*xbar)
	return lambda * rho * cv / (2 * (1 - rho))
}

// ServiceSigma returns the paper's service-time standard deviation
// heuristic σ = x̄ − msg (Eq. 5): the variable part of a channel's holding
// time is its excess over the bare message drain time.
func ServiceSigma(xbar, msgLen float64) float64 {
	s := xbar - msgLen
	if s < 0 {
		return 0
	}
	return s
}

// TestPaperEq3LiteralUnderestimates demonstrates the typo documented in
// DESIGN.md §2: evaluating Eq. 3 exactly as printed (numerator λρ instead
// of the standard λ·x̄²) produces waiting times smaller by a factor ~x̄/λ,
// so the literal formula's latency barely rises with load while the
// standard P-K form — and the simulator — climb steeply.
func TestPaperEq3LiteralUnderestimates(t *testing.T) {
	rt := quarcRouter(t, 16)
	set, err := rt.LocalizedSet(topology.PortL, 3)
	if err != nil {
		t.Fatal(err)
	}
	spec := traffic.Spec{Rate: 0.006, MulticastFrac: 0.05, Set: set}
	std, err := Predict(Input{Router: rt, Spec: spec, MsgLen: 32})
	if err != nil {
		t.Fatal(err)
	}
	lit, err := Predict(Input{Router: rt, Spec: spec, MsgLen: 32, WaitFormula: PaperEq3Literal})
	if err != nil {
		t.Fatal(err)
	}
	if std.Saturated || lit.Saturated {
		t.Fatal("unexpected saturation")
	}
	zeroLoadish := 37.0 // mean depth + msg for this configuration
	stdExcess := std.UnicastLatency - zeroLoadish
	litExcess := lit.UnicastLatency - zeroLoadish
	if !(stdExcess > 5) {
		t.Fatalf("standard P-K queueing excess %v suspiciously small", stdExcess)
	}
	// The literal formula's queueing excess must be at least 10x smaller:
	// it is the standard value scaled by λ/x̄ ≈ 0.006/35.
	if !(litExcess < stdExcess/10) {
		t.Errorf("literal Eq. 3 excess %v not dramatically below standard %v", litExcess, stdExcess)
	}
}

// TestWaitFormulaPointwise pins the two formulas' algebraic relationship:
// paper-literal = standard × λ/x̄.
func TestWaitFormulaPointwise(t *testing.T) {
	lambda, xbar, sigma := 0.004, 40.0, 8.0
	std := MG1Wait(lambda, xbar, sigma)
	lit := MG1WaitPaperEq3(lambda, xbar, sigma)
	want := std * lambda / xbar
	if math.Abs(lit-want) > 1e-12*want {
		t.Fatalf("literal = %v, want standard×λ/x̄ = %v", lit, want)
	}
}

func TestPaperEq3Edges(t *testing.T) {
	if MG1WaitPaperEq3(0, 10, 0) != 0 {
		t.Error("zero arrivals must give zero wait")
	}
	if !math.IsInf(MG1WaitPaperEq3(0.2, 10, 0), 1) {
		t.Error("ρ >= 1 must give infinite wait")
	}
	defer func() {
		if recover() == nil {
			t.Error("negative λ did not panic")
		}
	}()
	MG1WaitPaperEq3(-1, 1, 0)
}
