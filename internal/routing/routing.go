// Package routing turns (source, destination) pairs and multicast
// destination sets into explicit channel paths over a topology.Graph.
//
// All routing here is deterministic, as the paper's model assumes: the
// route is fully determined by the injection port the source transceiver
// selects. A Path is the complete ordered channel sequence a header flit
// acquires — injection channel first, ejection channel last — so that
// len(Path) is exactly the zero-load pipeline depth of the header.
package routing

import (
	"fmt"
	"math/bits"
	"slices"

	"quarc/internal/topology"
)

// Path is the ordered sequence of channels a worm acquires, from the
// injection channel at the source to the ejection channel at the final
// destination.
type Path []topology.ChannelID

// Branch is one stream of a multicast operation: the worm a source injects
// into one port. Intermediate Targets absorb-and-forward the stream; the
// last target is the stream's endpoint (the header's destination address).
type Branch struct {
	// Port is the injection port the branch leaves through.
	Port int
	// Path is the full channel path to the branch's last target.
	Path Path
	// Targets lists the absorbing nodes in visit order; the final element
	// is the branch endpoint.
	Targets []topology.NodeID
}

// Unicaster produces deterministic unicast routes.
type Unicaster interface {
	// AppendUnicastPath appends the channel path from src to dst
	// (src != dst) to buf and returns the extended slice, in the manner of
	// strconv.AppendInt. It never retains buf; on error it returns nil.
	AppendUnicastPath(buf Path, src, dst topology.NodeID) (Path, error)
	// UnicastPort returns the injection port a unicast src->dst takes.
	UnicastPort(src, dst topology.NodeID) (int, error)
}

// Multicaster produces the per-port branches of a multicast operation.
type Multicaster interface {
	// AppendMulticastBranches appends to a one branch per injection port
	// that has at least one target in the given relative destination
	// set, writing the branches' paths and targets into a as well. It
	// never retains a; on error a holds a partial answer to discard.
	AppendMulticastBranches(a *Arena, src topology.NodeID, set MulticastSet) error
}

// Router combines unicast and multicast routing over one topology.
type Router interface {
	Unicaster
	Multicaster
	// Graph returns the channel graph the router routes over.
	Graph() *topology.Graph
}

// Arena is append-only route storage: branches, and the channel paths
// and target lists they hold. Each branch's Path and Targets are capped
// spans of Paths and Targets, and a span is never rewritten, so a
// branch stays valid however the arena grows after it.
type Arena struct {
	Branches []Branch
	Paths    Path
	Targets  []topology.NodeID
}

// add appends the branch through port whose path and targets are what
// the arena gained since Paths held lo channels and Targets tlo nodes.
func (a *Arena) add(port, lo, tlo int) {
	p, t := len(a.Paths), len(a.Targets)
	a.Branches = append(a.Branches, Branch{Port: port, Path: a.Paths[lo:p:p], Targets: a.Targets[tlo:t:t]})
}

// MulticastBranches returns src's branches for set, built into an arena
// of their own.
func MulticastBranches(m Multicaster, src topology.NodeID, set MulticastSet) ([]Branch, error) {
	var a Arena
	if err := m.AppendMulticastBranches(&a, src, set); err != nil {
		return nil, err
	}
	return a.Branches, nil
}

// appendLink appends the link leaving node with the given class and vc.
// Every router family treats a missing link the same way: as an error.
func appendLink(buf Path, g *topology.Graph, node topology.NodeID, class, vc int) (Path, error) {
	id := g.LinkFrom(node, class, vc)
	if id == topology.None {
		return nil, fmt.Errorf("routing: missing link at node %d class %d vc %d", node, class, vc)
	}
	return append(buf, id), nil
}

// MulticastSet is a relative multicast destination set expressed exactly as
// in the paper's figures: one bitstring per injection port, where bit k-1
// set means "the node at branch-hop distance k on this port's stream is a
// target". The same relative set is used by every source node, which
// preserves the vertex symmetry of the network.
type MulticastSet struct {
	// Bits[port] holds the bitstring for that port; bit (hop-1) selects
	// the node at branch-hop distance hop.
	Bits []uint64
}

// NewMulticastSet returns an empty set for a router with the given number
// of ports.
func NewMulticastSet(ports int) MulticastSet {
	return MulticastSet{Bits: make([]uint64, ports)}
}

// Add marks the node at branch-hop distance hop (>= 1) on the given port.
func (s MulticastSet) Add(port, hop int) MulticastSet {
	s.Bits[port] |= 1 << uint(hop-1)
	return s
}

// LastHop returns the largest marked hop distance on port, or 0 if the
// port has no targets.
func (s MulticastSet) LastHop(port int) int { return bits.Len64(s.Bits[port]) }

// Size returns the total number of targets across all ports.
func (s MulticastSet) Size() int {
	total := 0
	for _, b := range s.Bits {
		for ; b != 0; b &= b - 1 {
			total++
		}
	}
	return total
}

// Empty reports whether no port has any target.
func (s MulticastSet) Empty() bool { return s.Size() == 0 }

// Equal reports whether both sets mark exactly the same targets.
func (s MulticastSet) Equal(o MulticastSet) bool { return slices.Equal(s.Bits, o.Bits) }

// String renders the set with the paper's L/LO/RO/R labels when it has four
// ports, and generic port labels otherwise.
func (s MulticastSet) String() string {
	out := ""
	for p, b := range s.Bits {
		if p > 0 {
			out += " "
		}
		label := fmt.Sprintf("P%d", p)
		if len(s.Bits) == topology.QuarcPorts {
			label = topology.QuarcPortName(p)
		}
		out += fmt.Sprintf("%s=%b", label, b)
	}
	return out
}
