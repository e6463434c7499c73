package routing

import (
	"fmt"
	"math/bits"

	"quarc/internal/topology"
)

// HypercubeRouter implements e-cube (ascending dimension-order) unicast
// routing on a binary hypercube with all-port routers, and software-style
// multicast by unicast fan-out: one independent worm per destination, the
// scheme one-port machines without hardware multicast fall back to.
type HypercubeRouter struct {
	h *topology.Hypercube
}

// NewHypercubeRouter returns a router over the given hypercube.
func NewHypercubeRouter(h *topology.Hypercube) *HypercubeRouter { return &HypercubeRouter{h: h} }

// Graph returns the underlying channel graph.
func (rt *HypercubeRouter) Graph() *topology.Graph { return rt.h.Graph }

// UnicastPort returns the first dimension the e-cube route corrects: the
// lowest set bit of src XOR dst.
func (rt *HypercubeRouter) UnicastPort(src, dst topology.NodeID) (int, error) {
	if src == dst {
		return 0, fmt.Errorf("routing: no port for self destination %d", src)
	}
	diff := uint32(src ^ dst)
	for d := 0; d < rt.h.Dims(); d++ {
		if diff&(1<<uint(d)) != 0 {
			return d, nil
		}
	}
	return 0, fmt.Errorf("routing: unreachable destination %d", dst)
}

// AppendUnicastPath appends the e-cube channel path from src to dst,
// flipping differing address bits from lowest to highest dimension.
func (rt *HypercubeRouter) AppendUnicastPath(buf Path, src, dst topology.NodeID) (Path, error) {
	if src == dst {
		return nil, fmt.Errorf("routing: self destination %d", src)
	}
	g := rt.h.Graph
	port, err := rt.UnicastPort(src, dst)
	if err != nil {
		return nil, err
	}
	buf = append(buf, g.Injection(src, port))
	cur := src
	lastDim := port
	for d := 0; d < rt.h.Dims(); d++ {
		if (cur^dst)&(1<<uint(d)) != 0 {
			if buf, err = appendLink(buf, g, cur, d, 0); err != nil {
				return nil, err
			}
			cur ^= 1 << uint(d)
			lastDim = d
		}
	}
	return append(buf, g.Ejection(dst, lastDim)), nil
}

// AppendMulticastBranches expands a relative destination set into
// unicast fan-out. The set uses a single bitstring (port 0): bit k-1
// selects the node src XOR k, so the same relative set works from every
// source (hypercubes are vertex-symmetric under XOR translation).
func (rt *HypercubeRouter) AppendMulticastBranches(a *Arena, src topology.NodeID, set MulticastSet) error {
	if len(set.Bits) != 1 {
		return fmt.Errorf("routing: hypercube multicast set must have 1 port, got %d", len(set.Bits))
	}
	if set.Bits[0] == 0 {
		return fmt.Errorf("routing: empty multicast set")
	}
	n := rt.h.Nodes()
	for b := set.Bits[0]; b != 0; b &= b - 1 {
		k := bits.TrailingZeros64(b) + 1
		if k >= n {
			return fmt.Errorf("routing: XOR offset %d out of range (N=%d)", k, n)
		}
		dst := src ^ topology.NodeID(k)
		port, err := rt.UnicastPort(src, dst)
		if err != nil {
			return err
		}
		lo, tlo := len(a.Paths), len(a.Targets)
		if a.Paths, err = rt.AppendUnicastPath(a.Paths, src, dst); err != nil {
			return err
		}
		a.Targets = append(a.Targets, dst)
		a.add(port, lo, tlo)
	}
	return nil
}

var _ Router = (*HypercubeRouter)(nil)
