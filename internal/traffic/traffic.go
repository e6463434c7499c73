// Package traffic generates the workloads the paper evaluates: every node
// produces messages according to a Poisson process; a fraction α of the
// messages are multicasts to a fixed relative destination set and the rest
// are unicasts to uniformly random destinations.
//
// Workload satisfies the wormhole simulator's Traffic interface and is also
// consumed by the analytical model, which enumerates the same routes with
// the same rates — both sides of the validation therefore see exactly the
// same traffic specification.
package traffic

import (
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"sync"

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
	// HotspotFrac skews unicast destinations: with this probability a
	// unicast goes to HotspotNode instead of a uniform destination (the
	// classic hotspot traffic pattern; 0 keeps the paper's uniform
	// assumption). Sources equal to the hotspot fall back to uniform.
	HotspotFrac float64
	// HotspotNode is the hotspot destination.
	HotspotNode topology.NodeID

	// Arrival names the registered arrival process that paces injection;
	// empty selects "poisson", the paper's assumption and the pre-registry
	// behavior (see RegisterArrival).
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
	// with Weights and HotspotFrac.
	Perm []topology.NodeID
	// Weights, when non-nil, skews unicast destinations per source:
	// Weights[src][dst] is the relative probability that a unicast from
	// src targets dst (rows are normalized internally; the diagonal is
	// ignored). This is the general weight-matrix form of hotspot
	// traffic. Mutually exclusive with Perm and HotspotFrac.
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
	if s.HotspotFrac < 0 || s.HotspotFrac > 1 || math.IsNaN(s.HotspotFrac) {
		return fmt.Errorf("traffic: invalid hotspot fraction %v", s.HotspotFrac)
	}
	proc, err := lookupArrival(s.Arrival)
	if err != nil {
		return err
	}
	if err := proc.ValidateSpec(s); err != nil {
		return err
	}
	exclusive := 0
	if s.Perm != nil {
		exclusive++
	}
	if s.Weights != nil {
		exclusive++
	}
	if s.HotspotFrac > 0 {
		exclusive++
	}
	if exclusive > 1 {
		return fmt.Errorf("traffic: permutation, weight-matrix and hotspot destinations are mutually exclusive")
	}
	return nil
}

// ValidateFor runs Validate plus the checks that need the network size:
// hotspot/permutation destinations must name real nodes and weight rows
// must be well-formed. NewWorkload and Reset run it, so a workload is
// always internally consistent with its network.
func (s Spec) ValidateFor(n int) error {
	if err := s.Validate(); err != nil {
		return err
	}
	if err := checkHotspot(s, n); err != nil {
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

// UnicastProb returns the probability that a unicast generated at src is
// destined for dst under this spec (zero for dst == src). The analytical
// model enumerates flows with exactly these probabilities, so model and
// simulator always describe the same traffic.
func (s Spec) UnicastProb(n int, src, dst topology.NodeID) float64 {
	if src == dst {
		return 0
	}
	if s.Perm != nil {
		if s.Perm[src] == dst {
			return 1
		}
		return 0
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
			return 0
		}
		return row[dst] / sum
	}
	uniform := 1.0 / float64(n-1)
	if s.HotspotFrac == 0 || src == s.HotspotNode {
		return uniform
	}
	p := (1 - s.HotspotFrac) * uniform
	if dst == s.HotspotNode {
		p += s.HotspotFrac
	}
	return p
}

// UnicastProbRow fills out[dst] with UnicastProb(n, src, dst) for every
// destination in O(n): the weight-matrix row sum is computed once per
// source instead of once per (src, dst) pair, which keeps the analytical
// model's flow enumeration at O(n²) under weighted destinations. out
// must have length n. Every entry is bitwise-identical to the per-pair
// UnicastProb.
func (s Spec) UnicastProbRow(n int, src topology.NodeID, out []float64) {
	for i := range out {
		out[i] = 0
	}
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
	for dst := 0; dst < n; dst++ {
		if topology.NodeID(dst) == src {
			continue
		}
		if s.HotspotFrac == 0 || src == s.HotspotNode {
			out[dst] = uniform
			continue
		}
		p := (1 - s.HotspotFrac) * uniform
		if topology.NodeID(dst) == s.HotspotNode {
			p += s.HotspotFrac
		}
		out[dst] = p
	}
}

// Workload is a reproducible Poisson workload over a router. It implements
// the wormhole simulator's Traffic interface.
type Workload struct {
	spec   Spec
	router routing.Router
	n      int
	rngs   []*rand.Rand
	// srcs are the rngs' underlying PCG sources, kept so Reset can reseed
	// in place (a rand.Rand holds no state beyond its source).
	srcs []*rand.PCG
	// branches caches the multicast branches per source (the set is
	// relative, so they are fixed for the whole run); branchSet records
	// the destination set the cache was built from, which can lag behind
	// spec.Set across Resets while MulticastFrac is zero.
	branches  [][]routing.Branch
	branchSet routing.MulticastSet
	// uni caches the single-branch route of every ordered unicast pair at
	// index src*n+dst. Routes are deterministic, so precomputing them once
	// keeps Next allocation-free on the simulator's hot path; callers must
	// treat the returned branches as read-only (the simulator does).
	uni [][]routing.Branch
	// proc is the resolved arrival process and arr its per-node states
	// (reset to zero by Reset, so a reset workload replays bitwise).
	proc ArrivalProcess
	arr  []ArrivalState
	// cdf holds per-source cumulative destination weights at index
	// src*n+dst when spec.Weights is set (diagonal mass forced to zero),
	// so weighted sampling is one Float64 draw plus a binary search —
	// allocation-free.
	cdf []float64
}

// NewWorkload builds a workload over the given router. Each node gets an
// independent RNG stream derived from seed, so runs are reproducible and
// node processes are mutually independent.
func NewWorkload(router routing.Router, spec Spec, seed uint64) (*Workload, error) {
	n := router.Graph().Nodes()
	if err := spec.ValidateFor(n); err != nil {
		return nil, err
	}
	w := &Workload{spec: spec, router: router, n: n,
		rngs: make([]*rand.Rand, n), srcs: make([]*rand.PCG, n),
		arr: make([]ArrivalState, n)}
	w.proc, _ = lookupArrival(spec.Arrival) // validated above
	w.buildCDF(spec.Weights)
	for i := 0; i < n; i++ {
		w.srcs[i] = rand.NewPCG(seed, uint64(i)*0x9e3779b97f4a7c15+1)
		w.rngs[i] = rand.New(w.srcs[i])
	}
	if spec.MulticastFrac > 0 {
		b, err := multicastTable(router, spec.Set)
		if err != nil {
			return nil, err
		}
		w.branches = b
		// Clone the bits: MulticastSet.Add mutates in place, so keeping a
		// reference would let a caller-side mutation defeat the Equal check.
		w.branchSet = routing.MulticastSet{Bits: slices.Clone(spec.Set.Bits)}
	}
	uni, err := unicastTable(router)
	if err != nil {
		return nil, err
	}
	w.uni = uni
	return w, nil
}

// Route-table caches. Routes are a pure function of the (immutable)
// router, so every workload over the same router — every point of a
// sweep, every replication — shares one read-only table instead of
// re-deriving it. Keys are router identities, which a long-lived process
// can mint without bound (every noc.NewScenario resolves a fresh
// router), so both caches flush wholesale when they exceed
// maxCachedTables entries: a flush only costs recomputation, never
// correctness.
var (
	//quarcflow:shared mutex-guarded memo cache; a hit and a miss return bitwise-identical tables (routes are a pure function of the router), so the cache never changes a Result — concurrent Sweep and replication workers share it as-is
	routeMu sync.Mutex
	//quarcflow:shared see routeMu: pure-memoization cache guarded by routeMu, value identity never affects results
	unicastTables = map[routing.Router][][]routing.Branch{}
	//quarcflow:shared see routeMu: pure-memoization cache guarded by routeMu, value identity never affects results
	multicastTables = map[multicastKey][][]routing.Branch{}
)

const maxCachedTables = 64

func unicastTable(router routing.Router) ([][]routing.Branch, error) {
	routeMu.Lock()
	if t, ok := unicastTables[router]; ok {
		routeMu.Unlock()
		return t, nil
	}
	routeMu.Unlock()
	n := router.Graph().Nodes()
	uni := make([][]routing.Branch, n*n)
	for src := 0; src < n; src++ {
		for dst := 0; dst < n; dst++ {
			if src == dst {
				continue
			}
			s, d := topology.NodeID(src), topology.NodeID(dst)
			path, err := router.UnicastPath(s, d)
			if err != nil {
				return nil, fmt.Errorf("traffic: unicast path %d->%d: %w", src, dst, err)
			}
			port, err := router.UnicastPort(s, d)
			if err != nil {
				return nil, fmt.Errorf("traffic: unicast port %d->%d: %w", src, dst, err)
			}
			uni[src*n+dst] = []routing.Branch{{Port: port, Path: path, Targets: []topology.NodeID{d}}}
		}
	}
	routeMu.Lock()
	if len(unicastTables) >= maxCachedTables {
		unicastTables = map[routing.Router][][]routing.Branch{}
	}
	unicastTables[router] = uni
	routeMu.Unlock()
	return uni, nil
}

// multicastKey identifies a multicast branch table: the router plus the
// destination-set bits.
type multicastKey struct {
	router routing.Router
	bits   string
}

func setKey(router routing.Router, set routing.MulticastSet) multicastKey {
	var b []byte
	for _, w := range set.Bits {
		for s := 0; s < 64; s += 8 {
			b = append(b, byte(w>>s))
		}
	}
	return multicastKey{router: router, bits: string(b)}
}

func multicastTable(router routing.Router, set routing.MulticastSet) ([][]routing.Branch, error) {
	key := setKey(router, set)
	routeMu.Lock()
	if t, ok := multicastTables[key]; ok {
		routeMu.Unlock()
		return t, nil
	}
	routeMu.Unlock()
	n := router.Graph().Nodes()
	branches := make([][]routing.Branch, n)
	for src := 0; src < n; src++ {
		b, err := router.MulticastBranches(topology.NodeID(src), set)
		if err != nil {
			return nil, fmt.Errorf("traffic: multicast branches for node %d: %w", src, err)
		}
		branches[src] = b
	}
	routeMu.Lock()
	if len(multicastTables) >= maxCachedTables {
		multicastTables = map[multicastKey][][]routing.Branch{}
	}
	multicastTables[key] = branches
	routeMu.Unlock()
	return branches, nil
}

// Spec returns the workload specification.
func (w *Workload) Spec() Spec { return w.spec }

// Reset re-derives the workload in place for a new spec and seed over the
// same router. The unicast route cache is always kept (routes depend only
// on the router) and the multicast branch cache is kept whenever the
// destination set is unchanged, so resetting a workload across the points
// of a sweep skips the O(n²) routing work. A reset workload behaves
// bitwise-identically to a fresh NewWorkload(router, spec, seed).
func (w *Workload) Reset(spec Spec, seed uint64) error {
	if err := spec.ValidateFor(w.n); err != nil {
		return err
	}
	// Compare against the set the cache was actually built from, not
	// spec.Set of the previous reset: a zero-MulticastFrac reset updates
	// the spec without touching the cache, and the cache must not be
	// trusted for a set it never saw.
	if spec.MulticastFrac > 0 && (w.branches == nil || !w.branchSet.Equal(spec.Set)) {
		b, err := multicastTable(w.router, spec.Set)
		if err != nil {
			return err
		}
		w.branches = b
		// Clone the bits: MulticastSet.Add mutates in place, so keeping a
		// reference would let a caller-side mutation defeat the Equal check.
		w.branchSet = routing.MulticastSet{Bits: slices.Clone(spec.Set.Bits)}
	}
	w.spec = spec
	w.proc, _ = lookupArrival(spec.Arrival) // validated above
	w.buildCDF(spec.Weights)
	for i := 0; i < w.n; i++ {
		w.srcs[i].Seed(seed, uint64(i)*0x9e3779b97f4a7c15+1)
		w.arr[i] = ArrivalState{}
	}
	return nil
}

// buildCDF (re)derives the per-source cumulative destination weights
// into the reused cdf buffer. It always rebuilds — an identity- or
// value-based cache could serve a stale distribution if a caller
// mutated the matrix in place between Resets, and the O(n²) fill is
// trivial next to the simulation run a Reset precedes.
func (w *Workload) buildCDF(weights [][]float64) {
	if weights == nil {
		w.cdf = nil
		return
	}
	if cap(w.cdf) < w.n*w.n {
		w.cdf = make([]float64, w.n*w.n)
	}
	w.cdf = w.cdf[:w.n*w.n]
	for src := 0; src < w.n; src++ {
		sum := 0.0
		for dst := 0; dst < w.n; dst++ {
			if dst != src {
				sum += weights[src][dst]
			}
			w.cdf[src*w.n+dst] = sum
		}
	}
}

// checkHotspot rejects a hotspot destination outside the network: before
// the unicast route cache, an out-of-range node panicked at generation
// time; with the cache the aliased index would silently return another
// source's route, so fail fast at construction instead.
func checkHotspot(spec Spec, n int) error {
	if spec.HotspotFrac > 0 && (spec.HotspotNode < 0 || int(spec.HotspotNode) >= n) {
		return fmt.Errorf("traffic: hotspot node %d outside the %d-node network", spec.HotspotNode, n)
	}
	return nil
}

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
// spec's spatial pattern (uniform by default; fixed under a permutation;
// weighted under a weight matrix; hotspot-skewed under HotspotFrac).
//
//quarc:hotpath
func (w *Workload) Next(node topology.NodeID) ([]routing.Branch, bool) {
	rng := w.rngs[node]
	if w.spec.MulticastFrac > 0 && rng.Float64() < w.spec.MulticastFrac {
		return w.branches[node], true
	}
	if w.spec.Perm != nil {
		return w.uni[int(node)*w.n+int(w.spec.Perm[node])], false
	}
	if w.cdf != nil {
		return w.uni[int(node)*w.n+int(w.weightedDest(rng, node))], false
	}
	dst := w.uniformDest(rng, node)
	if w.spec.HotspotFrac > 0 && node != w.spec.HotspotNode &&
		rng.Float64() < w.spec.HotspotFrac {
		dst = w.spec.HotspotNode
	}
	return w.uni[int(node)*w.n+int(dst)], false
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

// MulticastBranchesOf exposes the cached branches of a source node (used
// by the analytical model to enumerate flows, and by tests).
func (w *Workload) MulticastBranchesOf(src topology.NodeID) []routing.Branch {
	if w.branches == nil {
		return nil
	}
	return w.branches[src]
}
