// Package faultinject is a seeded, deterministic fault injector for the
// durable store's read and write seams. A test hands the store one
// Injector configured with rules — "fail the first read", "corrupt 40%
// of writes" — and the injected faults play out identically on every run
// with the same seed: each injection point draws from its own PCG stream
// derived from (seed, point), so the decision at call #k of a point is a
// pure function of the seed, never of goroutine interleaving at other
// points.
//
// The package fabricates failures only; it never changes what a correct
// component computes. The noc/service/store tests use it to prove the
// store's guarantee: under injected errors, torn writes and corruption,
// a read is either the Result that was written or a miss — never
// silently wrong.
package faultinject

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand/v2"
	"sync"
)

// ErrInjected marks every failure this package fabricates. Match with
// errors.Is to tell an injected fault from a real one in test asserts.
var ErrInjected = errors.New("faultinject: injected fault")

// Kind is the failure mode a rule injects.
type Kind int

const (
	// KindNone is the zero decision: no fault.
	KindNone Kind = iota
	// KindError fails the operation outright with ErrInjected.
	KindError
	// KindShortWrite truncates a write-path payload, simulating a torn
	// write (crash mid-write, full disk) that a checksum must catch.
	KindShortWrite
	// KindCorrupt flips a byte of a write-path payload, simulating
	// on-media corruption.
	KindCorrupt
)

// String names the kind for messages and test output.
func (k Kind) String() string {
	switch k {
	case KindNone:
		return "none"
	case KindError:
		return "error"
	case KindShortWrite:
		return "short-write"
	case KindCorrupt:
		return "corrupt"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Rule arms one failure mode at one injection point. A rule is eligible
// for a call when the point's call index is past After and the rule has
// fired fewer than First times (First <= 0 means unlimited); an eligible
// rule fires with probability Prob (Prob <= 0 or >= 1 means always).
// The first armed rule that fires wins the call.
type Rule struct {
	// Point names the seam, e.g. "store.put".
	Point string
	// Kind is the failure mode to inject.
	Kind Kind
	// Prob is the per-call fire probability in (0, 1); out-of-range
	// means fire on every eligible call.
	Prob float64
	// First caps how many times this rule fires; <= 0 is unlimited.
	First int
	// After skips the first After calls at the point before the rule
	// becomes eligible.
	After int
}

// pointState is one injection point's deterministic stream: a call
// counter, per-rule fire counts, and a PCG seeded from (seed, point).
type pointState struct {
	calls int
	fired map[int]int
	rng   *rand.Rand
}

// Injector decides, per call, whether a seam fails and how. A nil
// *Injector is valid and never injects, so production paths thread it
// through unconditionally.
type Injector struct {
	seed  uint64
	rules []Rule

	mu     sync.Mutex
	points map[string]*pointState
	total  map[string]int
}

// New builds an injector with the given seed and rules. The same seed
// and rules reproduce the same decision sequence at every point.
func New(seed uint64, rules ...Rule) *Injector {
	return &Injector{
		seed:   seed,
		rules:  append([]Rule(nil), rules...),
		points: make(map[string]*pointState),
		total:  make(map[string]int),
	}
}

// Decide consumes one call at point and returns the fault to apply, if
// any. Safe for concurrent use; nil receivers always decide KindNone.
func (in *Injector) Decide(point string) Kind {
	if in == nil {
		return KindNone
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	st := in.points[point]
	if st == nil {
		h := fnv.New64a()
		h.Write([]byte(point))
		st = &pointState{
			fired: make(map[int]int),
			rng:   rand.New(rand.NewPCG(in.seed, h.Sum64())),
		}
		in.points[point] = st
	}
	idx := st.calls
	st.calls++
	for ri, r := range in.rules {
		if r.Point != point || idx < r.After {
			continue
		}
		if r.First > 0 && st.fired[ri] >= r.First {
			continue
		}
		if r.Prob > 0 && r.Prob < 1 && st.rng.Float64() >= r.Prob {
			continue
		}
		st.fired[ri]++
		in.total[point]++
		return r.Kind
	}
	return KindNone
}

// Fired reports how many faults have fired at point so far.
func (in *Injector) Fired(point string) int {
	if in == nil {
		return 0
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.total[point]
}

// Err is the decision helper for error-only seams: it turns every fault
// kind into an ErrInjected failure. Nil receivers return nil.
func (in *Injector) Err(point string) error {
	if k := in.Decide(point); k != KindNone {
		return fmt.Errorf("%w: %s at %s", ErrInjected, k, point)
	}
	return nil
}

// Mangle applies a write-path fault to one encoded record: KindError
// fails the write cleanly, KindShortWrite truncates the payload to half
// (a torn write the caller will persist), KindCorrupt flips the middle
// byte. The damaged payload is a copy; the input is never modified.
func (in *Injector) Mangle(point string, data []byte) ([]byte, error) {
	switch in.Decide(point) {
	case KindError:
		return nil, fmt.Errorf("%w: error at %s", ErrInjected, point)
	case KindShortWrite:
		return append([]byte(nil), data[:len(data)/2]...), nil
	case KindCorrupt:
		damaged := append([]byte(nil), data...)
		if len(damaged) > 0 {
			damaged[len(damaged)/2] ^= 0xff
		}
		return damaged, nil
	}
	return data, nil
}
