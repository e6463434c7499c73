package routing

import (
	"fmt"
	"math/bits"

	"quarc/internal/topology"
)

// QuarcRouter implements the Quarc NoC's deterministic routing: the source
// transceiver computes the destination quadrant and injects into the
// corresponding port; intermediate switches only forward (no routing
// logic), exactly as described in Sec. 3.3 of the paper.
//
// Broadcast/multicast follows the BRCP (Base Routing Conformed Path)
// scheme: each branch follows the unicast route to the last node it must
// visit, and intermediate targets absorb-and-forward the stream.
type QuarcRouter struct {
	q *topology.Quarc
}

// NewQuarcRouter returns a router over the given Quarc topology.
func NewQuarcRouter(q *topology.Quarc) *QuarcRouter { return &QuarcRouter{q: q} }

// Graph returns the underlying channel graph.
func (rt *QuarcRouter) Graph() *topology.Graph { return rt.q.Graph }

// Quarc returns the underlying Quarc topology.
func (rt *QuarcRouter) Quarc() *topology.Quarc { return rt.q }

// UnicastPort returns the injection port for a unicast src -> dst.
func (rt *QuarcRouter) UnicastPort(src, dst topology.NodeID) (int, error) {
	return rt.q.PortFor(src, dst)
}

// AppendUnicastPath appends the full channel path of a unicast src -> dst.
func (rt *QuarcRouter) AppendUnicastPath(buf Path, src, dst topology.NodeID) (Path, error) {
	port, hop, err := rt.q.BranchHopOf(src, dst)
	if err != nil {
		return nil, err
	}
	return rt.appendBranch(buf, src, port, hop)
}

// appendBranch appends the channel path from src along the given port's
// stream up to branch-hop distance lastHop (>= 1), ending with the
// ejection channel at the node reached there.
func (rt *QuarcRouter) appendBranch(buf Path, src topology.NodeID, port, lastHop int) (Path, error) {
	q := rt.q
	g := q.Graph
	n := topology.NodeID(q.Nodes())
	opp := (src + n/2) % n
	// One-port routers funnel every quadrant through the single PE port.
	injPort := port
	if g.Ports() == 1 {
		injPort = 0
	}
	buf = append(buf, g.Injection(src, injPort))

	var ejectPort int
	var err error
	switch port {
	case topology.PortL:
		buf, err = appendRim(buf, g, src, lastHop, topology.RimPlus)
		ejectPort = topology.RimPlus
	case topology.PortR:
		buf, err = appendRim(buf, g, src, lastHop, topology.RimMinus)
		ejectPort = topology.RimMinus
	case topology.PortCL:
		if buf, err = appendLink(buf, g, src, topology.CrossL, 0); err == nil {
			buf, err = appendRim(buf, g, opp, lastHop-1, topology.RimMinus)
		}
		ejectPort = topology.RimMinus
		if lastHop == 1 {
			ejectPort = topology.CrossL
		}
	case topology.PortCR:
		if buf, err = appendLink(buf, g, src, topology.CrossR, 0); err == nil {
			buf, err = appendRim(buf, g, opp, lastHop-1, topology.RimPlus)
		}
		ejectPort = topology.RimPlus
		if lastHop == 1 {
			ejectPort = topology.CrossR
		}
	default:
		return nil, fmt.Errorf("routing: invalid quarc port %d", port)
	}
	if err != nil {
		return nil, err
	}

	end, err := q.BranchNode(src, port, lastHop)
	if err != nil {
		return nil, err
	}
	if g.Ports() == 1 {
		ejectPort = 0
	}
	return append(buf, g.Ejection(end, ejectPort)), nil
}

// appendRim appends hops rim links of the given class (RimPlus or
// RimMinus) walked from start, each on the virtual channel the dateline
// rule assigns. The Quarc and the Spidergon share the rim.
func appendRim(buf Path, g *topology.Graph, start topology.NodeID, hops, class int) (Path, error) {
	n := topology.NodeID(g.Nodes())
	cur := start
	var err error
	for i := 0; i < hops; i++ {
		var vc int
		var next topology.NodeID
		if class == topology.RimPlus {
			vc, next = topology.RimPlusVC(start, cur), (cur+1)%n
		} else {
			vc, next = topology.RimMinusVC(start, cur), (cur-1+n)%n
		}
		if buf, err = appendLink(buf, g, cur, class, vc); err != nil {
			return nil, err
		}
		cur = next
	}
	return buf, nil
}

// AppendMulticastBranches expands a relative multicast set into one
// branch per active port. Branch paths end at the last target of the
// port, matching the Quarc header format where the destination address
// is the last node to be visited and the bitstring selects the
// absorbing nodes.
func (rt *QuarcRouter) AppendMulticastBranches(a *Arena, src topology.NodeID, set MulticastSet) error {
	if len(set.Bits) != topology.QuarcPorts {
		return fmt.Errorf("routing: quarc multicast set must have %d ports, got %d",
			topology.QuarcPorts, len(set.Bits))
	}
	for port := 0; port < topology.QuarcPorts; port++ {
		last := set.LastHop(port)
		if last == 0 {
			continue
		}
		lo, hi := rt.q.BranchHopRange(port)
		if first := bits.TrailingZeros64(set.Bits[port]) + 1; first < lo {
			return fmt.Errorf("routing: port %s target at hop %d below minimum %d",
				topology.QuarcPortName(port), first, lo)
		}
		if last > hi {
			return fmt.Errorf("routing: port %s target at hop %d beyond quadrant end %d",
				topology.QuarcPortName(port), last, hi)
		}
		plo, tlo := len(a.Paths), len(a.Targets)
		var err error
		if a.Paths, err = rt.appendBranch(a.Paths, src, port, last); err != nil {
			return err
		}
		for b := set.Bits[port]; b != 0; b &= b - 1 {
			node, err := rt.q.BranchNode(src, port, bits.TrailingZeros64(b)+1)
			if err != nil {
				return err
			}
			a.Targets = append(a.Targets, node)
		}
		a.add(port, plo, tlo)
	}
	return nil
}

// BroadcastSet returns the multicast set that covers every node of the
// Quarc network, reproducing the paper's Fig. 3 broadcast: the four branch
// endpoints from node 0 in a 16-node network are nodes 4, 5, 11 and 12.
func (rt *QuarcRouter) BroadcastSet() MulticastSet {
	set := NewMulticastSet(topology.QuarcPorts)
	for port := 0; port < topology.QuarcPorts; port++ {
		lo, hi := rt.q.BranchHopRange(port)
		for hop := lo; hop <= hi; hop++ {
			set = set.Add(port, hop)
		}
	}
	return set
}

var _ Router = (*QuarcRouter)(nil)
