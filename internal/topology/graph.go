// Package topology describes direct interconnection networks as explicit
// sets of unidirectional channels: network links between neighbouring
// routers plus the injection and ejection channels that connect each router
// to its local processing element.
//
// Both the wormhole simulator and the analytical model operate on this
// channel-level view: a message's route is simply an ordered list of
// ChannelIDs (injection channel, network links, ejection channel). Concrete
// topologies (Quarc, Spidergon, mesh, torus, hypercube, ring) construct a
// Graph and expose their geometry to the routing package.
package topology

import "fmt"

// NodeID identifies a router/PE pair. Nodes are numbered 0..N-1.
type NodeID int32

// ChannelID identifies one unidirectional channel (or one virtual channel
// of a physical link) within a Graph.
type ChannelID int32

// None is the invalid channel sentinel.
const None ChannelID = -1

// ChannelKind distinguishes the three channel roles.
type ChannelKind uint8

const (
	// Injection channels connect a PE's transceiver to its router. An
	// all-port router has one injection channel per port.
	Injection ChannelKind = iota
	// Ejection channels connect a router to its local sink.
	Ejection
	// Link channels connect neighbouring routers.
	Link
)

func (k ChannelKind) String() string {
	switch k {
	case Injection:
		return "inj"
	case Ejection:
		return "ej"
	case Link:
		return "link"
	}
	return "?"
}

// Channel is one unidirectional communication resource.
type Channel struct {
	ID   ChannelID
	Kind ChannelKind
	// Src and Dst are the routers the channel connects. For Injection and
	// Ejection channels both equal the local node.
	Src, Dst NodeID
	// Class is a topology-specific direction label (e.g. rim+, cross-left,
	// X+, hypercube dimension). For Injection/Ejection channels it is the
	// port index.
	Class int
	// VC is the virtual-channel index on the physical link (0 for links
	// without virtual channels and for injection/ejection channels).
	VC int
}

// String renders a channel for debugging.
func (c Channel) String() string {
	switch c.Kind {
	case Injection:
		return fmt.Sprintf("inj(%d,p%d)", c.Src, c.Class)
	case Ejection:
		return fmt.Sprintf("ej(%d,p%d)", c.Src, c.Class)
	default:
		return fmt.Sprintf("link(%d->%d,c%d,vc%d)", c.Src, c.Dst, c.Class, c.VC)
	}
}

// Graph is a concrete network: a set of channels with lookup indices. Build
// one with NewGraph and the Add* methods; afterwards treat it as read-only.
type Graph struct {
	name     string
	n        int
	ports    int
	channels []Channel
	inj      [][]ChannelID // [node][port]
	ej       [][]ChannelID // [node][port]
	out      [][]ChannelID // [node]: the links leaving node, in creation order
}

// NewGraph creates an empty graph for n nodes with the given number of
// injection/ejection ports per node.
func NewGraph(name string, n, ports int) *Graph {
	if n <= 0 || ports <= 0 {
		panic("topology: nodes and ports must be positive")
	}
	g := &Graph{
		name:  name,
		n:     n,
		ports: ports,
		inj:   make([][]ChannelID, n),
		ej:    make([][]ChannelID, n),
		out:   make([][]ChannelID, n),
	}
	for i := range g.inj {
		g.inj[i] = make([]ChannelID, ports)
		g.ej[i] = make([]ChannelID, ports)
		for p := 0; p < ports; p++ {
			g.inj[i][p] = None
			g.ej[i][p] = None
		}
	}
	return g
}

// Name returns the topology name.
func (g *Graph) Name() string { return g.name }

// Nodes returns the node count.
func (g *Graph) Nodes() int { return g.n }

// Ports returns the number of injection (and ejection) ports per node.
func (g *Graph) Ports() int { return g.ports }

// NumChannels returns the total channel count.
func (g *Graph) NumChannels() int { return len(g.channels) }

// Channel returns the channel with the given id.
func (g *Graph) Channel(id ChannelID) Channel { return g.channels[id] }

// Channels returns the full channel list (do not mutate).
func (g *Graph) Channels() []Channel { return g.channels }

func (g *Graph) add(c Channel) ChannelID {
	c.ID = ChannelID(len(g.channels))
	g.channels = append(g.channels, c)
	return c.ID
}

// AddInjection creates the injection channel for (node, port).
func (g *Graph) AddInjection(node NodeID, port int) ChannelID {
	if g.inj[node][port] != None {
		panic(fmt.Sprintf("topology: duplicate injection channel node=%d port=%d", node, port))
	}
	id := g.add(Channel{Kind: Injection, Src: node, Dst: node, Class: port})
	g.inj[node][port] = id
	return id
}

// AddEjection creates the ejection channel for (node, port).
func (g *Graph) AddEjection(node NodeID, port int) ChannelID {
	if g.ej[node][port] != None {
		panic(fmt.Sprintf("topology: duplicate ejection channel node=%d port=%d", node, port))
	}
	id := g.add(Channel{Kind: Ejection, Src: node, Dst: node, Class: port})
	g.ej[node][port] = id
	return id
}

// AddLink creates a network link src->dst with the given direction class
// and virtual-channel index. A node may have at most one outgoing link per
// (class, vc) pair.
func (g *Graph) AddLink(src, dst NodeID, class, vc int) ChannelID {
	if g.LinkFrom(src, class, vc) != None {
		panic(fmt.Sprintf("topology: duplicate link src=%d class=%d vc=%d", src, class, vc))
	}
	id := g.add(Channel{Kind: Link, Src: src, Dst: dst, Class: class, VC: vc})
	g.out[src] = append(g.out[src], id)
	return id
}

// Injection returns the injection channel of (node, port).
func (g *Graph) Injection(node NodeID, port int) ChannelID { return g.inj[node][port] }

// Ejection returns the ejection channel of (node, port).
func (g *Graph) Ejection(node NodeID, port int) ChannelID { return g.ej[node][port] }

// LinkFrom returns the link leaving node with the given class and vc, or
// None if absent. A router has a handful of output links, so a linear
// scan of the node's list beats hashing the key.
func (g *Graph) LinkFrom(node NodeID, class, vc int) ChannelID {
	for _, id := range g.out[node] {
		if c := &g.channels[id]; c.Class == class && c.VC == vc {
			return id
		}
	}
	return None
}

// Validate checks structural invariants: every node has all injection and
// ejection channels, link endpoints are in range, and channel IDs are
// consistent with their index.
func (g *Graph) Validate() error {
	for node := 0; node < g.n; node++ {
		for p := 0; p < g.ports; p++ {
			if g.inj[node][p] == None {
				return fmt.Errorf("topology %s: node %d missing injection port %d", g.name, node, p)
			}
			if g.ej[node][p] == None {
				return fmt.Errorf("topology %s: node %d missing ejection port %d", g.name, node, p)
			}
		}
	}
	for i, c := range g.channels {
		if int(c.ID) != i {
			return fmt.Errorf("topology %s: channel %d has inconsistent id %d", g.name, i, c.ID)
		}
		if c.Src < 0 || int(c.Src) >= g.n || c.Dst < 0 || int(c.Dst) >= g.n {
			return fmt.Errorf("topology %s: channel %v endpoint out of range", g.name, c)
		}
	}
	return nil
}
