package routing

import (
	"fmt"
	"math/bits"
	"math/rand/v2"

	"quarc/internal/topology"
)

// SpidergonRouter implements the Spidergon's deterministic Across-First
// routing: destinations within a quarter of the ring are reached directly
// along the rim; all others take the cross link first and then travel the
// rim on the opposite side.
//
// The Spidergon has no hardware multicast: as the paper notes, deadlock-
// free broadcast/multicast "can only be achieved by consecutive unicast
// transmissions". MulticastBranches therefore expands a destination set
// into one unicast worm per destination, all funneled through the single
// injection port — the broadcast-by-unicast baseline the Quarc is compared
// against.
type SpidergonRouter struct {
	s *topology.Spidergon
}

// NewSpidergonRouter returns a router over the given Spidergon topology.
func NewSpidergonRouter(s *topology.Spidergon) *SpidergonRouter { return &SpidergonRouter{s: s} }

// Graph returns the underlying channel graph.
func (rt *SpidergonRouter) Graph() *topology.Graph { return rt.s.Graph }

// UnicastPort returns 0: the Spidergon router is one-port.
func (rt *SpidergonRouter) UnicastPort(src, dst topology.NodeID) (int, error) {
	if src == dst {
		return 0, fmt.Errorf("routing: no port for self destination %d", src)
	}
	return 0, nil
}

// AppendUnicastPath appends the Across-First channel path from src to
// dst.
func (rt *SpidergonRouter) AppendUnicastPath(buf Path, src, dst topology.NodeID) (Path, error) {
	s := rt.s
	g := s.Graph
	if src == dst {
		return nil, fmt.Errorf("routing: self destination %d", src)
	}
	n := s.Nodes()
	r := s.Rel(src, dst)
	quarter := n / 4
	buf = append(buf, g.Injection(src, 0))

	var err error
	switch {
	case r <= quarter:
		buf, err = appendRim(buf, g, src, r, topology.RimPlus)
	case n-r <= quarter:
		buf, err = appendRim(buf, g, src, n-r, topology.RimMinus)
	default:
		if buf, err = appendLink(buf, g, src, topology.CrossL, 0); err != nil {
			return nil, err
		}
		// The rest is a rim walk from the opposite node, empty when the
		// destination is the opposite node itself.
		opp := (src + topology.NodeID(n/2)) % topology.NodeID(n)
		if rem := s.Rel(opp, dst); rem <= n/2 {
			buf, err = appendRim(buf, g, opp, rem, topology.RimPlus)
		} else {
			buf, err = appendRim(buf, g, opp, n-rem, topology.RimMinus)
		}
	}
	if err != nil {
		return nil, err
	}
	return append(buf, g.Ejection(dst, 0)), nil
}

// AppendMulticastBranches expands the relative destination set into
// consecutive unicasts. The set uses a single bitstring (port 0): bit k-1
// selects the node at relative position k clockwise from the source.
func (rt *SpidergonRouter) AppendMulticastBranches(a *Arena, src topology.NodeID, set MulticastSet) error {
	if len(set.Bits) != 1 {
		return fmt.Errorf("routing: spidergon multicast set must have 1 port, got %d", len(set.Bits))
	}
	if set.Bits[0] == 0 {
		return fmt.Errorf("routing: empty multicast set")
	}
	n := rt.s.Nodes()
	for b := set.Bits[0]; b != 0; b &= b - 1 {
		k := bits.TrailingZeros64(b) + 1
		if k >= n {
			return fmt.Errorf("routing: relative position %d out of range", k)
		}
		dst := (src + topology.NodeID(k)) % topology.NodeID(n)
		lo, tlo := len(a.Paths), len(a.Targets)
		var err error
		if a.Paths, err = rt.AppendUnicastPath(a.Paths, src, dst); err != nil {
			return err
		}
		a.Targets = append(a.Targets, dst)
		a.add(0, lo, tlo)
	}
	return nil
}

// BroadcastSet returns the set covering every node: relative positions
// 1..N-1, i.e. N-1 consecutive unicasts (the paper's point about the
// Spidergon needing N-1 transmissions).
func (rt *SpidergonRouter) BroadcastSet() MulticastSet {
	set := NewMulticastSet(1)
	for k := 1; k < rt.s.Nodes(); k++ {
		set = set.Add(0, k)
	}
	return set
}

// RandomSet draws k distinct relative positions uniformly from 1..N-1,
// the Spidergon counterpart of the Quarc's Fig. 6 destination regime.
func (rt *SpidergonRouter) RandomSet(rng *rand.Rand, k int) (MulticastSet, error) {
	n := rt.s.Nodes()
	if k < 1 || k > n-1 {
		return MulticastSet{}, fmt.Errorf("routing: random set size %d out of range [1,%d]", k, n-1)
	}
	if n-1 > 64 {
		return MulticastSet{}, fmt.Errorf("routing: spidergon sets support up to 65 nodes, got %d", n)
	}
	pos := make([]int, n-1)
	for i := range pos {
		pos[i] = i + 1
	}
	rng.Shuffle(len(pos), func(i, j int) { pos[i], pos[j] = pos[j], pos[i] })
	set := NewMulticastSet(1)
	for _, p := range pos[:k] {
		set = set.Add(0, p)
	}
	return set, nil
}

// LocalizedSet marks the k nearest clockwise neighbours, the counterpart
// of the Quarc's Fig. 7 same-rim regime.
func (rt *SpidergonRouter) LocalizedSet(k int) (MulticastSet, error) {
	n := rt.s.Nodes()
	if k < 1 || k > n-1 || k > 64 {
		return MulticastSet{}, fmt.Errorf("routing: localized set size %d out of range", k)
	}
	set := NewMulticastSet(1)
	for p := 1; p <= k; p++ {
		set = set.Add(0, p)
	}
	return set, nil
}

var _ Router = (*SpidergonRouter)(nil)
