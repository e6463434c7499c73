// Package stats provides streaming estimators used by the wormhole
// simulator and the experiment harness: running mean/variance (Welford),
// batch-means confidence intervals, and fixed-bin histograms.
//
// All estimators are single-writer; wrap them in your own synchronization
// if several goroutines feed the same estimator.
package stats

import "math"

// Running accumulates a sample mean and variance using Welford's
// numerically stable online algorithm. The zero value is ready to use.
type Running struct {
	n    int64
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Add records one observation.
func (r *Running) Add(x float64) {
	r.n++
	if r.n == 1 {
		r.min, r.max = x, x
	} else {
		if x < r.min {
			r.min = x
		}
		if x > r.max {
			r.max = x
		}
	}
	d := x - r.mean
	r.mean += d / float64(r.n)
	r.m2 += float64(d * (x - r.mean))
}

// N returns the number of observations recorded so far.
func (r Running) N() int64 { return r.n }

// Mean returns the sample mean, or NaN if no observations were recorded.
func (r Running) Mean() float64 {
	if r.n == 0 {
		return math.NaN()
	}
	return r.mean
}

// Var returns the unbiased sample variance, or NaN for fewer than two
// observations.
func (r Running) Var() float64 {
	if r.n < 2 {
		return math.NaN()
	}
	return r.m2 / float64(r.n-1)
}

// Std returns the sample standard deviation.
func (r Running) Std() float64 { return math.Sqrt(r.Var()) }

// Min returns the smallest observation, or NaN if empty.
func (r Running) Min() float64 {
	if r.n == 0 {
		return math.NaN()
	}
	return r.min
}

// Max returns the largest observation, or NaN if empty.
func (r Running) Max() float64 {
	if r.n == 0 {
		return math.NaN()
	}
	return r.max
}

// Reset discards all recorded observations.
func (r *Running) Reset() { *r = Running{} }

// Replicates combines the point estimates of independent simulation
// replications into a grand mean and a confidence half-width. Each
// replication contributes one observation (its own mean), which is IID
// across replications by construction — the textbook independent-
// replications method, giving tighter and less biased intervals than
// batch means over a single run. NaN observations (a replication that
// recorded no samples, e.g. multicast latency at alpha = 0) are skipped
// and counted separately.
type Replicates struct {
	runs    Running
	skipped int64
}

// Add records one replication's point estimate; NaN marks a replication
// with no samples and is skipped.
func (r *Replicates) Add(x float64) {
	if math.IsNaN(x) {
		r.skipped++
		return
	}
	r.runs.Add(x)
}

// Mean returns the grand mean over replications, or NaN if none
// contributed.
func (r *Replicates) Mean() float64 { return r.runs.Mean() }

// HalfWidth returns the half-width of the confidence interval for the
// mean at the given z value (e.g. 1.96 for 95%): z * s / sqrt(n) over the
// replication estimates. NaN with fewer than two replications.
func (r *Replicates) HalfWidth(z float64) float64 {
	n := r.runs.N()
	if n < 2 {
		return math.NaN()
	}
	return z * r.runs.Std() / math.Sqrt(float64(n))
}

// BatchMeans estimates a confidence interval for the mean of a correlated
// stationary series (such as successive message latencies) using the method
// of non-overlapping batch means.
type BatchMeans struct {
	batchSize int
	cur       Running
	batches   []float64
}

// NewBatchMeans returns a BatchMeans estimator grouping observations into
// batches of the given size. Batch size must be positive.
func NewBatchMeans(batchSize int) *BatchMeans {
	if batchSize <= 0 {
		panic("stats: batch size must be positive")
	}
	return &BatchMeans{batchSize: batchSize}
}

// Add records one observation.
func (b *BatchMeans) Add(x float64) {
	b.cur.Add(x)
	if int(b.cur.N()) >= b.batchSize {
		b.batches = append(b.batches, b.cur.Mean())
		b.cur.Reset()
	}
}

// Mean returns the grand mean over completed batches, or NaN if no batch
// has completed.
func (b *BatchMeans) Mean() float64 {
	if len(b.batches) == 0 {
		return math.NaN()
	}
	var s float64
	for _, m := range b.batches {
		s += m
	}
	return s / float64(len(b.batches))
}

// HalfWidth returns the half-width of an approximate confidence interval
// for the mean at the given z value (e.g. 1.96 for 95%). It returns NaN
// with fewer than two completed batches.
func (b *BatchMeans) HalfWidth(z float64) float64 {
	k := len(b.batches)
	if k < 2 {
		return math.NaN()
	}
	mean := b.Mean()
	var ss float64
	for _, m := range b.batches {
		d := m - mean
		ss += float64(d * d)
	}
	sd := math.Sqrt(ss / float64(k-1))
	return z * sd / math.Sqrt(float64(k))
}

// Histogram counts observations in uniform bins over [lo, hi); samples
// outside the range are tallied separately.
type Histogram struct {
	lo, hi float64
	width  float64
	bins   []int64
	under  int64
	over   int64
	total  int64
}

// NewHistogram creates a histogram with nbins uniform bins on [lo, hi).
func NewHistogram(lo, hi float64, nbins int) *Histogram {
	if !(hi > lo) || nbins <= 0 {
		panic("stats: invalid histogram bounds")
	}
	return &Histogram{lo: lo, hi: hi, width: (hi - lo) / float64(nbins), bins: make([]int64, nbins)}
}

// Add records one observation.
func (h *Histogram) Add(x float64) {
	h.total++
	switch {
	case x < h.lo:
		h.under++
	case x >= h.hi:
		h.over++
	default:
		i := int((x - h.lo) / h.width)
		if i >= len(h.bins) { // floating-point edge at hi
			i = len(h.bins) - 1
		}
		h.bins[i]++
	}
}

// Count returns the total number of observations including out-of-range.
func (h *Histogram) Count() int64 { return h.total }

// Quantile returns an approximate q-quantile (0 <= q <= 1) assuming
// observations are uniform within a bin. Out-of-range mass is treated as
// sitting at the bounds.
func (h *Histogram) Quantile(q float64) float64 {
	if h.total == 0 {
		return math.NaN()
	}
	if q <= 0 {
		return h.lo
	}
	if q >= 1 {
		return h.hi
	}
	target := float64(q * float64(h.total))
	cum := float64(h.under)
	if cum >= target {
		return h.lo
	}
	for i, c := range h.bins {
		next := cum + float64(c)
		if next >= target && c > 0 {
			frac := (target - cum) / float64(c)
			return h.lo + float64((float64(i)+frac)*h.width)
		}
		cum = next
	}
	return h.hi
}

// Percentile is shorthand for Quantile(p/100).
func (h *Histogram) Percentile(p float64) float64 { return h.Quantile(p / 100) }
