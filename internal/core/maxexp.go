package core

import (
	"fmt"
	"math"
)

// MaxExpRecursive computes the expected time of the last event among m
// independent exponential random variables with the given rates, using the
// paper's recursion (Eq. 12):
//
//	E[max(S)] = 1/Σμ + Σ_i (μ_i/Σμ)·E[max(S \ {i})]
//
// which follows from the memoryless property and the fact that the minimum
// of independent exponentials is exponential (Eqs. 9-11). Subset results
// are memoized over bitmasks, so the cost is O(2^m · m); rates must number
// at most 30. Non-positive rates panic: they indicate a caller bug (a
// deterministic-zero branch must be filtered out first, see MulticastWait).
func MaxExpRecursive(rates []float64) float64 {
	var memo []float64
	return maxExp(rates, &memo)
}

// maxExp is MaxExpRecursive over the caller's scratch: it evaluates Eq. 12
// for every subset of the rates, bottom-up over bitmasks (a subset's
// proper subsets are numerically smaller), in *memo, grown as needed.
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
				x += rates[i] / sum * e[mask&^(1<<uint(i))]
			}
		}
		e[mask] = x
	}
	return e[1<<uint(m)-1]
}

// MaxExpClosedForm computes the same expectation with the
// inclusion-exclusion identity
//
//	E[max] = Σ_{∅≠T⊆S} (−1)^{|T|+1} / Σ_{i∈T} μ_i
//
// It exists as an independent cross-check of the recursion (the two must
// agree to floating-point accuracy; this is property-tested).
func MaxExpClosedForm(rates []float64) float64 {
	m := len(rates)
	if m == 0 {
		return 0
	}
	if m > 30 {
		panic(fmt.Sprintf("core: MaxExpClosedForm with %d rates", m))
	}
	for _, r := range rates {
		if !(r > 0) {
			panic(fmt.Sprintf("core: non-positive exponential rate %v", r))
		}
	}
	var e float64
	for mask := 1; mask < 1<<uint(m); mask++ {
		var sum float64
		bits := 0
		for i := 0; i < m; i++ {
			if mask&(1<<uint(i)) != 0 {
				sum += rates[i]
				bits++
			}
		}
		if bits%2 == 1 {
			e += 1 / sum
		} else {
			e -= 1 / sum
		}
	}
	return e
}

// MulticastWait implements Eq. 13: the expected waiting time of the last
// of m independent multicast streams, where waits[c] is the expected total
// header waiting time ΣW along branch c's path. Each wait is mapped to an
// exponential with rate μ_c = 1/ΣW (Eq. 8). Branches with (near-)zero
// expected wait are deterministic at 0 and cannot be the last event unless
// all are zero, so they are filtered before the combination.
func MulticastWait(waits []float64) float64 {
	var memo []float64
	return multicastWait(waits, make([]float64, 0, len(waits)), &memo)
}

// multicastWait is MulticastWait over the caller's scratch: rates needs
// capacity len(waits); memo is maxExp's.
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
