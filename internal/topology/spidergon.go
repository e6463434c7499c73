package topology

import "fmt"

// Spidergon is the STMicroelectronics Spidergon NoC the Quarc improves on:
// a ring of N nodes (N even) with clockwise and counter-clockwise rim
// links plus a single cross link from every node to the diametrically
// opposite node, attached to a classic one-port router.
//
// Rim links carry two virtual channels with a dateline at node 0, as in
// the original design; the single cross link (class CrossL) is always a
// worm's first network hop and needs no VCs.
type Spidergon struct {
	*Graph
	n int
}

// NewSpidergon constructs the Spidergon topology with n nodes. n must be
// even and at least 6; sizes that are multiples of 4 match the Quarc
// configurations and are what the comparison experiments use.
func NewSpidergon(n int) (*Spidergon, error) {
	if n < 6 || n%2 != 0 {
		return nil, fmt.Errorf("topology: spidergon size must be even and >= 6, got %d", n)
	}
	g := NewGraph(fmt.Sprintf("spidergon-%d", n), n, 1)
	for node := NodeID(0); int(node) < n; node++ {
		g.AddInjection(node, 0)
		g.AddEjection(node, 0)
	}
	half := NodeID(n / 2)
	for node := NodeID(0); int(node) < n; node++ {
		next := (node + 1) % NodeID(n)
		prev := (node - 1 + NodeID(n)) % NodeID(n)
		for vc := 0; vc < 2; vc++ {
			g.AddLink(node, next, RimPlus, vc)
			g.AddLink(node, prev, RimMinus, vc)
		}
		g.AddLink(node, (node+half)%NodeID(n), CrossL, 0)
	}
	return &Spidergon{Graph: g, n: n}, nil
}

// Rel returns the relative position (dst-src) mod N.
func (s *Spidergon) Rel(src, dst NodeID) int {
	return int((dst - src + NodeID(s.n)) % NodeID(s.n))
}

// Dist returns the unicast hop count of the Across-First route from a
// node to a destination at relative position r: destinations within a
// quarter in either rim direction are reached directly; all others cross
// first and then travel the rim.
func (s *Spidergon) DistRel(r int) int {
	n := s.n
	quarter := n / 4
	switch {
	case r == 0:
		return 0
	case r <= quarter:
		return r
	case n-r <= quarter:
		return n - r
	default:
		// Cross (1 hop) then rim to the remainder.
		d := r - n/2
		if d < 0 {
			d = -d
		}
		return 1 + d
	}
}

// Dist returns the unicast hop count from src to dst.
func (s *Spidergon) Dist(src, dst NodeID) int { return s.DistRel(s.Rel(src, dst)) }
