package stats

import (
	"math"
	"math/rand/v2"
	"sort"
	"testing"
	"testing/quick"
)

// Quantiles computes an exact set of quantiles from a finite sample by
// sorting a copy of the data. Convenient for tests and small experiment
// outputs; qs must each be in [0,1].
func Quantiles(data []float64, qs ...float64) []float64 {
	if len(data) == 0 {
		out := make([]float64, len(qs))
		for i := range out {
			out[i] = math.NaN()
		}
		return out
	}
	s := append([]float64(nil), data...)
	sort.Float64s(s)
	out := make([]float64, len(qs))
	for i, q := range qs {
		if q <= 0 {
			out[i] = s[0]
			continue
		}
		if q >= 1 {
			out[i] = s[len(s)-1]
			continue
		}
		// Linear interpolation between closest ranks.
		pos := q * float64(len(s)-1)
		lo := int(math.Floor(pos))
		hi := int(math.Ceil(pos))
		if lo == hi {
			out[i] = s[lo]
		} else {
			f := pos - float64(lo)
			out[i] = s[lo]*(1-f) + s[hi]*f
		}
	}
	return out
}

func almostEq(a, b, tol float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return math.IsNaN(a) && math.IsNaN(b)
	}
	return math.Abs(a-b) <= tol*(1+math.Abs(a)+math.Abs(b))
}

func TestRunningEmpty(t *testing.T) {
	var r Running
	if r.N() != 0 {
		t.Fatalf("N = %d, want 0", r.N())
	}
	if !math.IsNaN(r.Mean()) || !math.IsNaN(r.Var()) || !math.IsNaN(r.Min()) || !math.IsNaN(r.Max()) {
		t.Fatalf("empty estimator must return NaN, got mean=%v var=%v min=%v max=%v",
			r.Mean(), r.Var(), r.Min(), r.Max())
	}
}

func TestRunningSingle(t *testing.T) {
	var r Running
	r.Add(42)
	if r.Mean() != 42 || r.Min() != 42 || r.Max() != 42 {
		t.Fatalf("single-sample stats wrong: %+v", r)
	}
	if !math.IsNaN(r.Var()) {
		t.Fatalf("variance of one sample must be NaN, got %v", r.Var())
	}
}

func TestRunningKnownValues(t *testing.T) {
	var r Running
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		r.Add(x)
	}
	if got := r.Mean(); got != 5 {
		t.Errorf("mean = %v, want 5", got)
	}
	// Population variance is 4; sample variance is 32/7.
	if got, want := r.Var(), 32.0/7.0; !almostEq(got, want, 1e-12) {
		t.Errorf("var = %v, want %v", got, want)
	}
	if r.Min() != 2 || r.Max() != 9 {
		t.Errorf("min/max = %v/%v, want 2/9", r.Min(), r.Max())
	}
}

func TestRunningReset(t *testing.T) {
	var r Running
	r.Add(1)
	r.Add(2)
	r.Reset()
	if r.N() != 0 {
		t.Fatalf("reset did not clear estimator: n=%d", r.N())
	}
}

func TestBatchMeansBasic(t *testing.T) {
	b := NewBatchMeans(10)
	for i := 0; i < 100; i++ {
		b.Add(float64(i % 10)) // each batch has mean 4.5
	}
	if len(b.batches) != 10 {
		t.Fatalf("batches = %d, want 10", len(b.batches))
	}
	if got := b.Mean(); got != 4.5 {
		t.Fatalf("grand mean = %v, want 4.5", got)
	}
	if hw := b.HalfWidth(1.96); hw != 0 {
		t.Fatalf("identical batches must give zero half-width, got %v", hw)
	}
}

func TestBatchMeansHalfWidthShrinks(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	small := NewBatchMeans(50)
	large := NewBatchMeans(50)
	for i := 0; i < 500; i++ {
		small.Add(rng.NormFloat64())
	}
	for i := 0; i < 50000; i++ {
		large.Add(rng.NormFloat64())
	}
	hs, hl := small.HalfWidth(1.96), large.HalfWidth(1.96)
	if !(hl < hs) {
		t.Fatalf("half-width did not shrink with more data: small=%v large=%v", hs, hl)
	}
	if math.Abs(large.Mean()) > 3*hl+0.05 {
		t.Fatalf("mean %v inconsistent with CI half-width %v", large.Mean(), hl)
	}
}

func TestBatchMeansNeedsTwoBatches(t *testing.T) {
	b := NewBatchMeans(100)
	for i := 0; i < 150; i++ {
		b.Add(1)
	}
	if len(b.batches) != 1 {
		t.Fatalf("batches = %d, want 1", len(b.batches))
	}
	if !math.IsNaN(b.HalfWidth(1.96)) {
		t.Fatal("half-width with one batch must be NaN")
	}
}

func TestBatchMeansPanicsOnBadSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for non-positive batch size")
		}
	}()
	NewBatchMeans(0)
}

func TestHistogramBinning(t *testing.T) {
	h := NewHistogram(0, 10, 10)
	for i := 0; i < 10; i++ {
		h.Add(float64(i) + 0.5)
	}
	h.Add(-1)
	h.Add(10)
	h.Add(123)
	if h.Count() != 13 {
		t.Fatalf("count = %d, want 13", h.Count())
	}
	if h.under != 1 || h.over != 2 {
		t.Fatalf("under/over = %d/%d, want 1/2", h.under, h.over)
	}
	for i := 0; i < 10; i++ {
		if h.bins[i] != 1 {
			t.Fatalf("bin %d = %d, want 1", i, h.bins[i])
		}
	}
}

func TestHistogramQuantile(t *testing.T) {
	h := NewHistogram(0, 100, 100)
	for i := 0; i < 1000; i++ {
		h.Add(float64(i % 100))
	}
	med := h.Quantile(0.5)
	if med < 45 || med > 55 {
		t.Fatalf("median = %v, want ~50", med)
	}
	if h.Quantile(0) != 0 || h.Quantile(1) != 100 {
		t.Fatalf("extreme quantiles wrong: %v %v", h.Quantile(0), h.Quantile(1))
	}
	if p := h.Percentile(90); p < 85 || p > 95 {
		t.Fatalf("p90 = %v, want ~90", p)
	}
}

func TestHistogramEmptyQuantile(t *testing.T) {
	h := NewHistogram(0, 1, 4)
	if !math.IsNaN(h.Quantile(0.5)) {
		t.Fatal("quantile of empty histogram must be NaN")
	}
}

func TestHistogramPanicsOnBadBounds(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for hi <= lo")
		}
	}()
	NewHistogram(1, 1, 4)
}

func TestQuantilesExact(t *testing.T) {
	data := []float64{5, 1, 3, 2, 4}
	qs := Quantiles(data, 0, 0.5, 1)
	if qs[0] != 1 || qs[1] != 3 || qs[2] != 5 {
		t.Fatalf("quantiles = %v, want [1 3 5]", qs)
	}
	// Input must not be mutated.
	if data[0] != 5 {
		t.Fatal("Quantiles mutated its input")
	}
}

func TestQuantilesInterpolates(t *testing.T) {
	got := Quantiles([]float64{0, 10}, 0.25)[0]
	if got != 2.5 {
		t.Fatalf("interpolated quantile = %v, want 2.5", got)
	}
}

func TestQuantilesEmpty(t *testing.T) {
	qs := Quantiles(nil, 0.5)
	if !math.IsNaN(qs[0]) {
		t.Fatal("quantile of empty slice must be NaN")
	}
}

// Property: Running mean always lies within [min, max].
func TestRunningMeanBounded(t *testing.T) {
	f := func(xs []float64) bool {
		var r Running
		for _, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e100 {
				continue // extreme magnitudes overflow intermediate sums
			}
			r.Add(x)
		}
		if r.N() == 0 {
			return true
		}
		return r.Mean() >= r.Min()-1e-9 && r.Mean() <= r.Max()+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestReplicates(t *testing.T) {
	var r Replicates
	if !math.IsNaN(r.Mean()) || !math.IsNaN(r.HalfWidth(1.96)) {
		t.Fatal("empty Replicates should report NaN mean and half-width")
	}
	for _, x := range []float64{10, 12, 14} {
		r.Add(x)
	}
	r.Add(math.NaN())
	if r.runs.N() != 3 || r.skipped != 1 {
		t.Fatalf("N=%d skipped=%d, want 3 and 1", r.runs.N(), r.skipped)
	}
	if got := r.Mean(); got != 12 {
		t.Fatalf("mean = %v, want 12", got)
	}
	// s = 2 over 3 reps: half-width = z * 2 / sqrt(3).
	want := 1.96 * 2 / math.Sqrt(3)
	if got := r.HalfWidth(1.96); math.Abs(got-want) > 1e-12 {
		t.Fatalf("half-width = %v, want %v", got, want)
	}

	var one Replicates
	one.Add(5)
	if !math.IsNaN(one.HalfWidth(1.96)) {
		t.Fatal("single replication must have NaN half-width")
	}
	if one.Mean() != 5 {
		t.Fatalf("single replication mean = %v, want 5", one.Mean())
	}
}
