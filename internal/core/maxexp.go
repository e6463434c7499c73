package core

import (
	"fmt"
	"math"
)

// maxExp computes the expected time of the last event among m
// independent exponential random variables with the given rates, using the
// paper's recursion (Eq. 12):
//
//	E[max(S)] = 1/Σμ + Σ_i (μ_i/Σμ)·E[max(S \ {i})]
//
// It evaluates the recursion for every subset of the rates, bottom-up over
// bitmasks (a subset's proper subsets are numerically smaller), in *memo,
// grown as needed; rates must number at most 30 and be positive.
func maxExp(rates []float64, memo *[]float64) float64 {
	m := len(rates)
	if m == 0 {
		return 0
	}
	if m > 30 {
		panic(fmt.Sprintf("core: MaxExpRecursive with %d rates", m))
	}
	for _, r := range rates {
		if !(r > 0) {
			panic(fmt.Sprintf("core: non-positive exponential rate %v", r))
		}
	}
	if len(*memo) < 1<<uint(m) {
		*memo = make([]float64, 1<<uint(m))
	}
	e := *memo
	e[0] = 0
	for mask := 1; mask < 1<<uint(m); mask++ {
		var sum float64
		for i := 0; i < m; i++ {
			if mask&(1<<uint(i)) != 0 {
				sum += rates[i]
			}
		}
		x := 1 / sum
		for i := 0; i < m; i++ {
			if mask&(1<<uint(i)) != 0 {
				x += float64(rates[i] / sum * e[mask&^(1<<uint(i))])
			}
		}
		e[mask] = x
	}
	return e[1<<uint(m)-1]
}

// multicastWait implements Eq. 13 over the caller's scratch: the expected
// waiting time of the last of m independent multicast streams, where
// waits[c] is branch c's expected total header wait, mapped to an
// exponential with rate 1/waits[c] (Eq. 8). Branches with (near-)zero wait
// are filtered out first. rates needs capacity len(waits); memo is maxExp's.
func multicastWait(waits, rates []float64, memo *[]float64) float64 {
	const eps = 1e-12
	rates = rates[:0]
	for _, w := range waits {
		if math.IsInf(w, 1) {
			return math.Inf(1)
		}
		if w < 0 || math.IsNaN(w) {
			panic(fmt.Sprintf("core: invalid branch wait %v", w))
		}
		if w > eps {
			rates = append(rates, 1/w)
		}
	}
	return maxExp(rates, memo)
}
