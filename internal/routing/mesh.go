package routing

import (
	"fmt"
	"math/bits"

	"quarc/internal/topology"
)

// MeshRouter implements deterministic dimension-order (XY) unicast routing
// on a mesh or torus with all-port routers, plus dual-path Hamilton
// multicast (Lin-Ni style): multicast worms snake along a Hamilton path of
// the mesh in their own virtual-channel plane, absorbing-and-forwarding at
// target nodes, exactly like the Quarc's BRCP streams do on the rim.
//
// This is the "future work" extension the paper's conclusion names: the
// analytical model is topology-agnostic, so pointing it at this router
// checks its validity on multi-port mesh and torus networks.
type MeshRouter struct {
	m *topology.Mesh
}

// NewMeshRouter returns a router over the given mesh or torus.
func NewMeshRouter(m *topology.Mesh) *MeshRouter { return &MeshRouter{m: m} }

// Graph returns the underlying channel graph.
func (rt *MeshRouter) Graph() *topology.Graph { return rt.m.Graph }

// Mesh returns the underlying topology.
func (rt *MeshRouter) Mesh() *topology.Mesh { return rt.m }

// xSteps plans the moves of one dimension: returns the direction class and
// hop count. On a torus the shorter way around is taken (ties clockwise).
func (rt *MeshRouter) steps(from, to, size int, plusClass, minusClass int) (class, hops int) {
	if from == to {
		return plusClass, 0
	}
	if !rt.m.Wrap() {
		if to > from {
			return plusClass, to - from
		}
		return minusClass, from - to
	}
	fwd := (to - from + size) % size
	if fwd <= size-fwd {
		return plusClass, fwd
	}
	return minusClass, size - fwd
}

// UnicastPort returns the injection port: the direction of the route's
// first link (X dimension first).
func (rt *MeshRouter) UnicastPort(src, dst topology.NodeID) (int, error) {
	if src == dst {
		return 0, fmt.Errorf("routing: no port for self destination %d", src)
	}
	sx, sy := rt.m.XY(src)
	dx, dy := rt.m.XY(dst)
	if sx != dx {
		class, _ := rt.steps(sx, dx, rt.m.W(), topology.XPlus, topology.XMinus)
		return class, nil
	}
	class, _ := rt.steps(sy, dy, rt.m.H(), topology.YPlus, topology.YMinus)
	return class, nil
}

// AppendUnicastPath appends the XY channel path from src to dst. On a
// torus the route switches to the wrapped VC plane after crossing a
// ring's dateline (the wrap link), which keeps dimension-order routing
// deadlock-free.
func (rt *MeshRouter) AppendUnicastPath(buf Path, src, dst topology.NodeID) (Path, error) {
	if src == dst {
		return nil, fmt.Errorf("routing: self destination %d", src)
	}
	m := rt.m
	sx, sy := m.XY(src)
	dx, dy := m.XY(dst)

	port, err := rt.UnicastPort(src, dst)
	if err != nil {
		return nil, err
	}
	buf = append(buf, m.Graph.Injection(src, port))
	if buf, err = rt.appendWalk(buf, sy, sx, dx, true); err != nil {
		return nil, err
	}
	if buf, err = rt.appendWalk(buf, dx, sy, dy, false); err != nil {
		return nil, err
	}
	// The worm ejects through the port its last link arrived on.
	return append(buf, m.Graph.Ejection(dst, m.Graph.Channel(buf[len(buf)-1]).Class)), nil
}

// appendWalk appends one dimension's leg of an XY route: along the row
// fixed (isX) or the column fixed, from coordinate from to coordinate to.
func (rt *MeshRouter) appendWalk(buf Path, fixed, from, to int, isX bool) (Path, error) {
	m := rt.m
	size, plusClass, minusClass := m.W(), topology.XPlus, topology.XMinus
	if !isX {
		size, plusClass, minusClass = m.H(), topology.YPlus, topology.YMinus
	}
	class, hops := rt.steps(from, to, size, plusClass, minusClass)
	vc := topology.MeshVCUnicast
	cur := from
	var err error
	for i := 0; i < hops; i++ {
		node := m.ID(cur, fixed)
		if !isX {
			node = m.ID(fixed, cur)
		}
		if buf, err = appendLink(buf, m.Graph, node, class, vc); err != nil {
			return nil, err
		}
		if class == plusClass {
			cur++
			if cur == size { // crossed the wrap link: switch planes
				cur = 0
				vc = topology.TorusVCUnicastWrapped
			}
		} else {
			cur--
			if cur < 0 {
				cur = size - 1
				vc = topology.TorusVCUnicastWrapped
			}
		}
	}
	return buf, nil
}

// AppendMulticastBranches expands a mesh multicast set. Bits[0] ("high
// path") bit k-1 selects the node k positions ahead of the source on the
// Hamilton path; Bits[1] ("low path") bit k-1 selects the node k
// positions behind. Ports 2 and 3 must be empty. Positions beyond the
// path ends are skipped (the mesh is not vertex-symmetric), so border
// sources may serve fewer targets.
func (rt *MeshRouter) AppendMulticastBranches(a *Arena, src topology.NodeID, set MulticastSet) error {
	if len(set.Bits) != topology.MeshPorts {
		return fmt.Errorf("routing: mesh multicast set must have %d ports, got %d",
			topology.MeshPorts, len(set.Bits))
	}
	if set.Bits[2] != 0 || set.Bits[3] != 0 {
		return fmt.Errorf("routing: mesh multicast uses ports 0 (high) and 1 (low) only")
	}
	m := rt.m
	n := m.Nodes()
	base := m.HamiltonIndex(src)
	branches := len(a.Branches)
	for dir := 0; dir < 2; dir++ {
		sign := 1 - 2*dir
		tlo := len(a.Targets)
		last := 0
		for b := set.Bits[dir]; b != 0; b &= b - 1 {
			k := bits.TrailingZeros64(b) + 1
			idx := base + sign*k
			if idx < 0 || idx >= n {
				continue // clipped at the path end
			}
			a.Targets = append(a.Targets, m.HamiltonNode(idx))
			last = k
		}
		if last == 0 {
			continue
		}
		lo := len(a.Paths)
		var err error
		if a.Paths, err = rt.appendHamilton(a.Paths, src, sign, last); err != nil {
			return err
		}
		a.add(int(m.Graph.Channel(a.Paths[lo]).Class), lo, tlo)
	}
	if len(a.Branches) == branches {
		return fmt.Errorf("routing: multicast set has no reachable targets from node %d", src)
	}
	return nil
}

// appendHamilton appends the multicast-plane channel path from src along
// the Hamilton path (sign = +1 high, -1 low) for the given number of
// steps (>= 1). The injection port is the first link's direction.
func (rt *MeshRouter) appendHamilton(buf Path, src topology.NodeID, sign, steps int) (Path, error) {
	m := rt.m
	g := m.Graph
	base := m.HamiltonIndex(src)
	cur := src
	class := 0
	for i := 1; i <= steps; i++ {
		next := m.HamiltonNode(base + sign*i)
		var err error
		if class, err = rt.neighborClass(cur, next); err != nil {
			return nil, err
		}
		if i == 1 {
			buf = append(buf, g.Injection(src, class))
		}
		if buf, err = appendLink(buf, g, cur, class, topology.MeshVCMulticast); err != nil {
			return nil, err
		}
		cur = next
	}
	return append(buf, g.Ejection(cur, class)), nil
}

// neighborClass returns the direction class of the link from a to its
// mesh neighbour b.
func (rt *MeshRouter) neighborClass(a, b topology.NodeID) (int, error) {
	ax, ay := rt.m.XY(a)
	bx, by := rt.m.XY(b)
	switch {
	case bx == ax+1 && by == ay:
		return topology.XPlus, nil
	case bx == ax-1 && by == ay:
		return topology.XMinus, nil
	case by == ay+1 && bx == ax:
		return topology.YPlus, nil
	case by == ay-1 && bx == ax:
		return topology.YMinus, nil
	}
	return 0, fmt.Errorf("routing: nodes %d and %d are not mesh neighbours", a, b)
}

// HighLowSet builds a mesh multicast set with the given relative Hamilton
// offsets ahead (high) and behind (low) the source.
func (rt *MeshRouter) HighLowSet(high, low []int) (MulticastSet, error) {
	set := NewMulticastSet(topology.MeshPorts)
	for _, k := range high {
		if k < 1 || k > 64 {
			return set, fmt.Errorf("routing: high offset %d out of range 1..64", k)
		}
		set = set.Add(0, k)
	}
	for _, k := range low {
		if k < 1 || k > 64 {
			return set, fmt.Errorf("routing: low offset %d out of range 1..64", k)
		}
		set = set.Add(1, k)
	}
	return set, nil
}

var _ Router = (*MeshRouter)(nil)
