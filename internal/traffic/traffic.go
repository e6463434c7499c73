// Package traffic generates the workloads the paper evaluates: every node
// produces messages according to a Poisson process; a fraction α of the
// messages are multicasts to a fixed relative destination set and the rest
// are unicasts to uniformly random destinations.
//
// Workload satisfies the wormhole simulator's Traffic interface. The
// analytical model reads the same Spec over the same routes, with the
// same rates — both sides of the validation therefore see exactly the
// same traffic specification.
package traffic

import (
	"fmt"
	"math"
	"math/rand/v2"

	"quarc/internal/routing"
	"quarc/internal/topology"
)

// Spec describes a workload independent of any RNG state.
type Spec struct {
	// Rate is the message generation rate per node, messages/cycle.
	Rate float64
	// MulticastFrac is α, the fraction of generated messages that are
	// multicasts (0 disables multicast).
	MulticastFrac float64
	// Set is the relative multicast destination set shared by all nodes.
	Set routing.MulticastSet

	// Arrival names the arrival process that paces injection (see
	// Arrivals); empty selects "poisson", the paper's assumption.
	Arrival string
	// BurstLen is the mean burst length in messages for the "onoff"
	// arrival process.
	BurstLen float64
	// DutyCycle is the on fraction in (0,1] for the "onoff" arrival
	// process; bursts inject at Rate/DutyCycle so the long-run rate stays
	// Rate.
	DutyCycle float64

	// Perm, when non-nil, fixes each source's unicast destination:
	// messages from src go to Perm[src] (the permutation traffic families
	// — transpose, bit-reversal, tornado, ...). A self-map silences the
	// node entirely (it generates no traffic, unicast or multicast), the
	// standard convention for permutation workloads. Mutually exclusive
	// with Weights.
	Perm []topology.NodeID
	// Weights, when non-nil, skews unicast destinations per source:
	// Weights[src][dst] is the relative probability that a unicast from
	// src targets dst (rows are normalized internally; the diagonal is
	// ignored). Hotspot traffic takes this form. Mutually exclusive
	// with Perm.
	Weights [][]float64
}

// Dest bundles the spatial (unicast-destination) side of a spec — the
// value a destination-pattern builder produces. Zero means uniform
// destinations.
type Dest struct {
	Perm    []topology.NodeID
	Weights [][]float64
}

// Validate checks the spec's numeric ranges, including the parameters of
// its arrival process (burst length, duty cycle, ...), which fail fast
// here rather than polluting a run with NaN gaps.
func (s Spec) Validate() error {
	if s.Rate < 0 || math.IsNaN(s.Rate) || math.IsInf(s.Rate, 0) {
		return fmt.Errorf("traffic: invalid rate %v", s.Rate)
	}
	if s.MulticastFrac < 0 || s.MulticastFrac > 1 || math.IsNaN(s.MulticastFrac) {
		return fmt.Errorf("traffic: invalid multicast fraction %v", s.MulticastFrac)
	}
	if s.MulticastFrac > 0 && s.Set.Empty() {
		return fmt.Errorf("traffic: multicast fraction %v with empty destination set", s.MulticastFrac)
	}
	proc, err := lookupArrival(s.Arrival)
	if err != nil {
		return err
	}
	if err := proc.ValidateSpec(s); err != nil {
		return err
	}
	if s.Perm != nil && s.Weights != nil {
		return fmt.Errorf("traffic: permutation and weight-matrix destinations are mutually exclusive")
	}
	return nil
}

// ValidateFor runs Validate plus the checks that need the network size:
// permutation destinations must name real nodes (an out-of-range one
// would alias another source's route) and weight rows must be
// well-formed. NewWorkload and Reset run it.
func (s Spec) ValidateFor(n int) error {
	if err := s.Validate(); err != nil {
		return err
	}
	if s.Perm != nil {
		if len(s.Perm) != n {
			return fmt.Errorf("traffic: permutation over %d nodes in a %d-node network", len(s.Perm), n)
		}
		for src, dst := range s.Perm {
			if dst < 0 || int(dst) >= n {
				return fmt.Errorf("traffic: permutation maps node %d outside the %d-node network (to %d)", src, n, dst)
			}
		}
	}
	if s.Weights != nil {
		if len(s.Weights) != n {
			return fmt.Errorf("traffic: weight matrix with %d rows in a %d-node network", len(s.Weights), n)
		}
		for src, row := range s.Weights {
			if len(row) != n {
				return fmt.Errorf("traffic: weight row %d has %d entries in a %d-node network", src, len(row), n)
			}
			sum := 0.0
			for dst, w := range row {
				if w < 0 || math.IsNaN(w) || math.IsInf(w, 0) {
					return fmt.Errorf("traffic: invalid weight %v at [%d][%d]", w, src, dst)
				}
				if dst != src {
					sum += w
				}
			}
			if sum <= 0 {
				return fmt.Errorf("traffic: weight row %d has no mass off the diagonal", src)
			}
		}
	}
	return nil
}

// Silent reports whether src generates no traffic under this spec: a
// permutation self-map silences the node (and a zero rate silences every
// node, which callers check separately via Rate).
func (s Spec) Silent(src topology.NodeID) bool {
	return s.Perm != nil && s.Perm[src] == src
}

// UnicastProbRow fills out[dst] with the probability that a unicast
// generated at src is destined for dst (zero for dst == src), for every
// destination in O(n): the weight-matrix row sum is computed once per
// source instead of once per (src, dst) pair, which keeps the analytical
// model's flow enumeration at O(n²) under weighted destinations. out
// must have length n. The analytical model enumerates flows with exactly
// these probabilities, so model and simulator describe the same traffic.
// Every entry is bitwise-identical to the tests' per-pair UnicastProb.
func (s Spec) UnicastProbRow(n int, src topology.NodeID, out []float64) {
	clear(out)
	if s.Perm != nil {
		if d := s.Perm[src]; d != src {
			out[d] = 1
		}
		return
	}
	if s.Weights != nil {
		row := s.Weights[src]
		sum := 0.0
		for d, w := range row {
			if topology.NodeID(d) != src {
				sum += w
			}
		}
		if sum <= 0 {
			return
		}
		for d, w := range row {
			if topology.NodeID(d) != src {
				out[d] = w / sum
			}
		}
		return
	}
	uniform := 1.0 / float64(n-1)
	for dst := range out {
		if topology.NodeID(dst) != src {
			out[dst] = uniform
		}
	}
}

// Workload is a reproducible Poisson workload over a router. It implements
// the wormhole simulator's Traffic interface.
type Workload struct {
	spec Spec
	// routes answers every route Next hands out. It is shared read-only
	// with the scenario (and every other workload over the same table),
	// so callers must treat the returned branches as read-only (the
	// simulator does).
	routes *routing.Table
	n      int
	rngs   []*rand.Rand
	// srcs are the rngs' underlying PCG sources, kept so ResetOn can
	// reseed in place (a rand.Rand holds no state beyond its source).
	srcs []*rand.PCG
	// proc is the resolved arrival process and arr its per-node states
	// (reset to zero by ResetOn, so a reset workload replays bitwise).
	proc ArrivalProcess
	arr  []ArrivalState
	// cdf holds per-source cumulative destination weights at index
	// src*n+dst when spec.Weights is set (diagonal mass forced to zero),
	// so weighted sampling is one Float64 draw plus a binary search —
	// allocation-free. It is empty without weights.
	cdf []float64
}

// NewWorkload builds a workload over the given router. Each node gets an
// independent RNG stream derived from seed, so runs are reproducible and
// node processes are mutually independent. A router that already is a
// routing.Table for the spec's set is used as is; any other is enumerated.
// It is ResetOn on a zero Workload.
func NewWorkload(router routing.Router, spec Spec, seed uint64) (*Workload, error) {
	w := &Workload{}
	if err := w.ResetOn(router, spec, seed); err != nil {
		return nil, err
	}
	return w, nil
}

// routeTable returns router's route table for set and checks that every
// source has branches for it: a set the router rejects fails here, with
// the router's error for the first source.
func routeTable(router routing.Router, set routing.MulticastSet) (*routing.Table, error) {
	routes, err := routing.NewTable(router, set)
	if err != nil {
		return nil, fmt.Errorf("traffic: %w", err)
	}
	for src := 0; !set.Empty() && src < routes.Graph().Nodes(); src++ {
		if _, err := routes.MulticastBranches(topology.NodeID(src), set); err != nil {
			return nil, fmt.Errorf("traffic: multicast branches for node %d: %w", src, err)
		}
	}
	return routes, nil
}

// Spec returns the workload specification.
func (w *Workload) Spec() Spec { return w.spec }

// ContinuousArrivals reports whether the arrival process draws its gaps
// from a continuous distribution ("poisson", "onoff"), so that almost
// surely no two messages are generated a whole number of cycles apart. "bernoulli" and
// "periodic" put injections on a shared lattice. The wormhole simulator's
// header flights rely on this (DESIGN.md §10).
func (w *Workload) ContinuousArrivals() bool {
	switch w.proc.(type) {
	case poissonArrival, onoffArrival:
		return true
	}
	return false
}

// Reset re-derives the workload in place for a new spec and seed over the
// same routes. The route table is kept whenever it already holds the
// spec's destination set (or the spec generates no multicasts); a new set
// re-enumerates only the multicast branches. So resetting a workload
// across the points of a sweep skips the O(n²) routing work. It is
// ResetOn over the workload's own routes.
func (w *Workload) Reset(spec Spec, seed uint64) error { return w.ResetOn(w.routes, spec, seed) }

// ResetOn re-derives the workload in place over router, for a spec and a
// seed: the one construction path, which NewWorkload runs on a zero
// Workload. The per-node RNG sources, arrival states and weight CDF are
// regrown to router's node count reusing their storage (a node that stays
// keeps its source, reseeded), so a workload behaves bitwise-identically
// to a fresh NewWorkload(router, spec, seed) whatever it ran before. On
// an error the workload is left as it was.
func (w *Workload) ResetOn(router routing.Router, spec Spec, seed uint64) error {
	n := router.Graph().Nodes()
	if err := spec.ValidateFor(n); err != nil {
		return err
	}
	var set routing.MulticastSet // routed only when multicasts are drawn
	if spec.MulticastFrac > 0 {
		set = spec.Set
	}
	routes, err := routeTable(router, set)
	if err != nil {
		return err
	}
	w.routes = routes
	w.n = n
	w.spec = spec
	w.proc, _ = lookupArrival(spec.Arrival) // validated above
	w.srcs = regrow(w.srcs, n)
	w.rngs = regrow(w.rngs, n)
	w.arr = regrow(w.arr, n)
	for i, src := range w.srcs {
		if src == nil { // srcs and rngs grow together, so rngs[i] is nil too
			src = new(rand.PCG)
			w.srcs[i], w.rngs[i] = src, rand.New(src)
		}
		src.Seed(seed, uint64(i)*0x9e3779b97f4a7c15+1)
		w.arr[i] = ArrivalState{}
	}
	w.buildCDF(spec.Weights)
	return nil
}

// regrow returns s with length n, in place when its capacity allows
// (elements past its length come back as they were left) and otherwise in
// a new array of exactly n that keeps s's elements.
func regrow[T any](s []T, n int) []T {
	if n <= cap(s) {
		return s[:n]
	}
	t := make([]T, n)
	copy(t, s)
	return t
}

// buildCDF (re)derives the per-source cumulative destination weights
// into the reused cdf buffer, and leaves it empty without weights. It
// always rebuilds — an identity- or value-based cache could serve a stale
// distribution if a caller mutated the matrix in place between Resets,
// and the O(n²) fill is trivial next to the simulation run a Reset
// precedes. A buffer beyond maxRetainedCDF cells that the spec does not
// need is released, so a workload that once served a large weighted
// network does not pin its matrix.
func (w *Workload) buildCDF(weights [][]float64) {
	cells := 0
	if weights != nil {
		cells = w.n * w.n
	}
	if cap(w.cdf) > max(cells, maxRetainedCDF) {
		w.cdf = nil
	}
	w.cdf = regrow(w.cdf, cells)
	for src := 0; src < w.n && cells > 0; src++ {
		sum := 0.0
		for dst := 0; dst < w.n; dst++ {
			if dst != src {
				sum += weights[src][dst]
			}
			w.cdf[src*w.n+dst] = sum
		}
	}
}

// maxRetainedCDF caps the weight CDF cells a workload keeps across
// ResetOn: a 256-node matrix, 512 KiB.
const maxRetainedCDF = 1 << 16

// Interarrival draws the gap until node's next message from the spec's
// arrival process (exponential under the default "poisson").
//
//quarc:hotpath
func (w *Workload) Interarrival(node topology.NodeID) float64 {
	if w.spec.Rate <= 0 || w.spec.Silent(node) {
		return math.Inf(1)
	}
	return w.proc.Gap(&w.spec, w.rngs[node], &w.arr[node])
}

// Next draws the next message generated at node: a multicast with
// probability α, otherwise a unicast whose destination comes from the
// spec's spatial pattern: one draw, uniform or under a weight matrix (the
// form hotspot traffic takes), or none under a permutation.
//
//quarc:hotpath
func (w *Workload) Next(node topology.NodeID) ([]routing.Branch, bool) {
	rng := w.rngs[node]
	if w.spec.MulticastFrac > 0 && rng.Float64() < w.spec.MulticastFrac {
		return w.routes.Multicast(node), true
	}
	if w.spec.Perm != nil {
		return w.routes.Unicast(node, w.spec.Perm[node]), false
	}
	if len(w.cdf) > 0 {
		return w.routes.Unicast(node, w.weightedDest(rng, node)), false
	}
	return w.routes.Unicast(node, w.uniformDest(rng, node)), false
}

//quarc:hotpath
func (w *Workload) uniformDest(rng *rand.Rand, src topology.NodeID) topology.NodeID {
	d := topology.NodeID(rng.IntN(w.n - 1))
	if d >= src {
		d++
	}
	return d
}

// weightedDest samples a destination from the source's cumulative weight
// row: one uniform draw inverted by binary search. The row's total mass is
// positive (ValidateFor rejects empty rows) and the diagonal carries no
// mass, so the result is never src.
//
//quarc:hotpath
func (w *Workload) weightedDest(rng *rand.Rand, src topology.NodeID) topology.NodeID {
	row := w.cdf[int(src)*w.n : int(src)*w.n+w.n]
	u := rng.Float64() * row[w.n-1]
	lo, hi := 0, w.n-1
	for lo < hi {
		mid := (lo + hi) / 2
		if row[mid] <= u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return topology.NodeID(lo)
}
