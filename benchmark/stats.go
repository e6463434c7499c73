package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of v.
func sorted(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// percentile returns the p-th percentile (0..100) of v by linear
// interpolation between order statistics; NaN for an empty sample.
func percentile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := sorted(v)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(v []float64) float64 { return percentile(v, 50) }

// iqm is the interquartile mean: the mean of the samples between the
// first and third quartile. Interference on a shared machine only ever
// makes an operation slower, so the upper quarter is discarded; the lower
// quarter goes with it to keep the estimator symmetric on a quiet one.
func iqm(v []float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := sorted(v)
	lo, hi := len(s)/4, len(s)-len(s)/4
	sum := 0.0
	for _, x := range s[lo:hi] {
		sum += x
	}
	return sum / float64(hi-lo)
}

// quartileSpread is the driver's steadiness measure: the distance
// between the first and third quartile as a share of the median, with
// the quartiles of Python's statistics.quantiles(v, n=4) (the exclusive
// method: position (n+1)q in the ordered sample).
func quartileSpread(v []float64) (q1, q2, q3, spread float64) {
	s := sorted(v)
	at := func(q float64) float64 {
		pos := q*float64(len(s)+1) - 1
		if pos <= 0 {
			return s[0]
		}
		if pos >= float64(len(s)-1) {
			return s[len(s)-1]
		}
		lo := int(pos)
		return s[lo] + (s[lo+1]-s[lo])*(pos-float64(lo))
	}
	q1, q2, q3 = at(0.25), at(0.5), at(0.75)
	return q1, q2, q3, (q3 - q1) / math.Abs(q2)
}
