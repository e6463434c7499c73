package core

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func TestMaxExpSingle(t *testing.T) {
	// One exponential: E[max] = 1/μ.
	for _, mu := range []float64{0.1, 1, 5, 100} {
		if got, want := MaxExpRecursive([]float64{mu}), 1/mu; math.Abs(got-want) > 1e-12 {
			t.Errorf("E[max{Exp(%v)}] = %v, want %v", mu, got, want)
		}
	}
}

func TestMaxExpEmpty(t *testing.T) {
	if MaxExpRecursive(nil) != 0 || MaxExpClosedForm(nil) != 0 {
		t.Fatal("empty set must have zero expected max")
	}
}

func TestMaxExpTwoEqualRates(t *testing.T) {
	// For m iid Exp(μ), E[max] = H_m/μ. For m=2: 1.5/μ.
	if got := MaxExpRecursive([]float64{2, 2}); math.Abs(got-0.75) > 1e-12 {
		t.Errorf("E[max of 2 iid Exp(2)] = %v, want 0.75", got)
	}
}

func TestMaxExpEqualRatesHarmonic(t *testing.T) {
	// H_m/μ for m equal rates — the classic order-statistics result.
	mu := 3.0
	for m := 1; m <= 8; m++ {
		rates := make([]float64, m)
		h := 0.0
		for i := range rates {
			rates[i] = mu
			h += 1 / float64(i+1)
		}
		want := h / mu
		if got := MaxExpRecursive(rates); math.Abs(got-want) > 1e-10 {
			t.Errorf("m=%d: E[max] = %v, want H_m/μ = %v", m, got, want)
		}
	}
}

func TestMaxExpTwoRatesClosedForm(t *testing.T) {
	// E[max{Exp(a),Exp(b)}] = 1/a + 1/b − 1/(a+b) (Eq. 11 expanded).
	a, b := 0.7, 2.3
	want := 1/a + 1/b - 1/(a+b)
	if got := MaxExpRecursive([]float64{a, b}); math.Abs(got-want) > 1e-12 {
		t.Errorf("recursive = %v, want %v", got, want)
	}
	if got := MaxExpClosedForm([]float64{a, b}); math.Abs(got-want) > 1e-12 {
		t.Errorf("closed form = %v, want %v", got, want)
	}
}

// Property: the paper's recursion (Eq. 12) and the inclusion-exclusion
// closed form agree for arbitrary positive rates.
func TestMaxExpRecursiveMatchesClosedForm(t *testing.T) {
	f := func(seed uint64, mRaw uint8) bool {
		rng := rand.New(rand.NewPCG(seed, 1))
		m := int(mRaw)%8 + 1
		rates := make([]float64, m)
		for i := range rates {
			rates[i] = math.Exp(rng.Float64()*8 - 4) // 0.018 .. 54
		}
		a := MaxExpRecursive(rates)
		b := MaxExpClosedForm(rates)
		return math.Abs(a-b) <= 1e-9*(1+math.Abs(a))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: E[max] is at least the largest individual mean and at most the
// sum of the means.
func TestMaxExpBounds(t *testing.T) {
	f := func(seed uint64, mRaw uint8) bool {
		rng := rand.New(rand.NewPCG(seed, 2))
		m := int(mRaw)%6 + 1
		rates := make([]float64, m)
		largestMean, sumMeans := 0.0, 0.0
		for i := range rates {
			rates[i] = math.Exp(rng.Float64()*6 - 3)
			mean := 1 / rates[i]
			sumMeans += mean
			if mean > largestMean {
				largestMean = mean
			}
		}
		e := MaxExpRecursive(rates)
		return e >= largestMean-1e-12 && e <= sumMeans+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: adding a stream never decreases the expected max.
func TestMaxExpMonotoneInStreams(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 3))
		m := rng.IntN(5) + 1
		rates := make([]float64, m)
		for i := range rates {
			rates[i] = math.Exp(rng.Float64()*4 - 2)
		}
		base := MaxExpRecursive(rates)
		more := MaxExpRecursive(append(append([]float64(nil), rates...), math.Exp(rng.Float64()*4-2)))
		return more >= base-1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Monte-Carlo check: the analytical expectation matches simulation of
// actual exponential maxima.
func TestMaxExpMatchesMonteCarlo(t *testing.T) {
	rates := []float64{0.5, 1.0, 2.0, 4.0}
	want := MaxExpRecursive(rates)
	rng := rand.New(rand.NewPCG(11, 13))
	const n = 200000
	var sum float64
	for i := 0; i < n; i++ {
		mx := 0.0
		for _, mu := range rates {
			if x := rng.ExpFloat64() / mu; x > mx {
				mx = x
			}
		}
		sum += mx
	}
	got := sum / n
	if math.Abs(got-want)/want > 0.02 {
		t.Fatalf("Monte Carlo mean %v differs from analytical %v by >2%%", got, want)
	}
}

func TestMaxExpPanicsOnNonPositiveRate(t *testing.T) {
	for _, rates := range [][]float64{{0}, {-1}, {1, 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("rates %v did not panic", rates)
				}
			}()
			MaxExpRecursive(rates)
		}()
	}
}

func TestMulticastWaitFiltersZeroBranches(t *testing.T) {
	// A branch with zero expected wait is deterministic at 0 and cannot be
	// the last event; only the positive-wait branches matter.
	w := MulticastWait([]float64{0, 4, 0})
	if w != 4 {
		t.Fatalf("MulticastWait = %v, want 4", w)
	}
	if MulticastWait([]float64{0, 0}) != 0 {
		t.Fatal("all-zero waits must give zero")
	}
	if MulticastWait(nil) != 0 {
		t.Fatal("no branches must give zero")
	}
	if !math.IsInf(MulticastWait([]float64{1, math.Inf(1)}), 1) {
		t.Fatal("infinite branch wait must propagate")
	}
}

func TestMulticastWaitExceedsWorstBranch(t *testing.T) {
	waits := []float64{3, 5, 7, 2}
	w := MulticastWait(waits)
	if w < 7 {
		t.Fatalf("expected max %v below the worst branch mean 7", w)
	}
	if w > 3+5+7+2 {
		t.Fatalf("expected max %v above the sum of means", w)
	}
}

func TestMG1WaitKnownValues(t *testing.T) {
	// M/M/1: σ = x̄ ⇒ E[x²] = 2x̄² ⇒ W = λ·2x̄²/(2(1−ρ)) = ρx̄/(1−ρ).
	lambda, xbar := 0.05, 10.0
	rho := lambda * xbar
	want := rho * xbar / (1 - rho)
	if got := MG1Wait(lambda, xbar, xbar); math.Abs(got-want) > 1e-12 {
		t.Errorf("M/M/1 wait = %v, want %v", got, want)
	}
	// M/D/1: σ = 0 ⇒ W = ρx̄/(2(1−ρ)), half the M/M/1 wait.
	if got := MG1Wait(lambda, xbar, 0); math.Abs(got-want/2) > 1e-12 {
		t.Errorf("M/D/1 wait = %v, want %v", got, want/2)
	}
}

func TestMG1WaitEdges(t *testing.T) {
	if MG1Wait(0, 10, 0) != 0 {
		t.Error("zero arrival rate must give zero wait")
	}
	if !math.IsInf(MG1Wait(0.2, 10, 0), 1) {
		t.Error("ρ >= 1 must give infinite wait")
	}
	if !math.IsInf(MG1Wait(0.1, 10, 0), 1) {
		t.Error("ρ == 1 must give infinite wait")
	}
}

func TestMG1WaitPanicsOnNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative λ did not panic")
		}
	}()
	MG1Wait(-1, 1, 0)
}

func TestServiceSigma(t *testing.T) {
	if got := ServiceSigma(20, 16); got != 4 {
		t.Errorf("σ = %v, want 4", got)
	}
	// Holding time can never be below msg at the fixed point, but guard
	// transient undershoot anyway.
	if got := ServiceSigma(10, 16); got != 0 {
		t.Errorf("σ clamp = %v, want 0", got)
	}
}

func TestUtilization(t *testing.T) {
	if got := Utilization(0.01, 20); got != 0.2 {
		t.Errorf("ρ = %v, want 0.2", got)
	}
}

var maxExpSink float64

// BenchmarkMaxExp compares the paper's Eq. 12 recursion against the
// closed-form inclusion-exclusion identity (abl-maxexp in DESIGN.md).
func BenchmarkMaxExp(b *testing.B) {
	rates := []float64{0.3, 1.1, 2.7, 0.9, 1.4, 3.2, 0.5, 2.1}
	for _, c := range []struct {
		name string
		fn   func([]float64) float64
		m    int
	}{
		{"recursive-m4", MaxExpRecursive, 4},
		{"closedform-m4", MaxExpClosedForm, 4},
		{"recursive-m8", MaxExpRecursive, 8},
		{"closedform-m8", MaxExpClosedForm, 8},
	} {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				maxExpSink = c.fn(rates[:c.m])
			}
		})
	}
}
