package topology

import "fmt"

// Quarc port indices. The Quarc all-port router has four injection ports,
// one per quadrant of the network as seen from the local node, and four
// ejection ports, one per physical input direction.
const (
	// PortL serves the "left" quadrant: relative positions 1..N/4 reached
	// clockwise (+1) along the rim.
	PortL = 0
	// PortCL serves the cross-left quadrant: relative positions
	// N/4+1..N/2, reached by the cross-left link followed by rim -1 hops.
	PortCL = 1
	// PortCR serves the cross-right quadrant: relative positions
	// N/2+1..3N/4-1, reached by the cross-right link followed by rim +1
	// hops.
	PortCR = 2
	// PortR serves the "right" quadrant: relative positions 3N/4..N-1
	// reached counter-clockwise (-1) along the rim.
	PortR = 3

	// QuarcPorts is the number of injection/ejection ports per node.
	QuarcPorts = 4
)

// Quarc link direction classes.
const (
	// RimPlus is the clockwise rim link node -> node+1.
	RimPlus = 0
	// RimMinus is the counter-clockwise rim link node -> node-1.
	RimMinus = 1
	// CrossL is the cross link dedicated to cross-left traffic.
	CrossL = 2
	// CrossR is the cross link dedicated to cross-right traffic.
	CrossR = 3
)

// QuarcPortName returns a short human-readable port label matching the
// paper's figure annotations (L, LO, RO, R).
func QuarcPortName(port int) string {
	switch port {
	case PortL:
		return "L"
	case PortCL:
		return "LO"
	case PortCR:
		return "RO"
	case PortR:
		return "R"
	}
	return "?"
}

// Quarc is the Quarc network-on-chip topology (Moadeli et al., 2008): a
// ring of N nodes with clockwise and counter-clockwise rim links plus two
// parallel cross links from every node to the diametrically opposite node,
// attached to an all-port (4-port) router.
//
// Rim links carry two virtual channels with a dateline at node 0 so that
// wormhole routing is deadlock-free, as in the Spidergon. Cross links are
// always a worm's first network hop and need no VCs.
type Quarc struct {
	*Graph
	n int
}

// NewQuarc constructs the Quarc topology with n nodes. n must be a
// multiple of 4 and at least 8 so that the four quadrants are non-empty.
func NewQuarc(n int) (*Quarc, error) { return newQuarc(n, QuarcPorts) }

// NewQuarcOnePort constructs a Quarc variant whose routers have a single
// injection and ejection port, as in the classic one-port architecture of
// the paper's Fig. 1(a). The network links are identical to the all-port
// Quarc; only the PE attachment differs, which is exactly the ablation the
// paper's introduction motivates (multi-port routers remove the injection
// bottleneck of collective operations).
func NewQuarcOnePort(n int) (*Quarc, error) { return newQuarc(n, 1) }

func newQuarc(n, ports int) (*Quarc, error) {
	if n < 8 || n%4 != 0 {
		return nil, fmt.Errorf("topology: quarc size must be a multiple of 4 and >= 8, got %d", n)
	}
	name := fmt.Sprintf("quarc-%d", n)
	if ports == 1 {
		name = fmt.Sprintf("quarc1p-%d", n)
	}
	g := NewGraph(name, n, ports)
	for node := NodeID(0); int(node) < n; node++ {
		for p := 0; p < ports; p++ {
			g.AddInjection(node, p)
			g.AddEjection(node, p)
		}
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
		g.AddLink(node, (node+half)%NodeID(n), CrossR, 0)
	}
	return &Quarc{Graph: g, n: n}, nil
}

// Quadrant returns the quadrant size N/4.
func (q *Quarc) Quadrant() int { return q.n / 4 }

// Rel returns the relative position (dst-src) mod N, in 1..N-1 for
// distinct nodes and 0 for dst == src.
func (q *Quarc) Rel(src, dst NodeID) int {
	return int((dst - src + NodeID(q.n)) % NodeID(q.n))
}

// PortFor returns the injection port a unicast from src to dst must take.
func (q *Quarc) PortFor(src, dst NodeID) (int, error) {
	r := q.Rel(src, dst)
	if r == 0 {
		return 0, fmt.Errorf("topology: no port for self destination %d", src)
	}
	return q.PortForRel(r), nil
}

// PortForRel returns the injection port for a destination at relative
// position r (1 <= r <= N-1).
func (q *Quarc) PortForRel(r int) int {
	quad := q.Quadrant()
	switch {
	case r <= quad:
		return PortL
	case r <= 2*quad:
		return PortCL
	case r < 3*quad:
		return PortCR
	default:
		return PortR
	}
}

// DistRel returns the hop count (network link crossings) from a node to a
// destination at relative position r.
func (q *Quarc) DistRel(r int) int {
	quad := q.Quadrant()
	switch {
	case r == 0:
		return 0
	case r <= quad:
		return r
	case r <= 2*quad:
		return 2*quad - r + 1
	case r < 3*quad:
		return r - 2*quad + 1
	default:
		return q.n - r
	}
}

// Dist returns the unicast hop count from src to dst.
func (q *Quarc) Dist(src, dst NodeID) int { return q.DistRel(q.Rel(src, dst)) }

// BranchHopRange returns the inclusive range of branch-hop distances at
// which the given port has receiver nodes. Cross-right streams pass the
// opposite node (hop 1) without it being a member of their quadrant, so
// their receivers start at hop 2.
func (q *Quarc) BranchHopRange(port int) (min, max int) {
	if port == PortCR {
		return 2, q.Quadrant()
	}
	return 1, q.Quadrant()
}

// BranchNode returns the node visited at branch-hop distance hop (>= 1) on
// the given port's stream from src.
func (q *Quarc) BranchNode(src NodeID, port, hop int) (NodeID, error) {
	lo, hi := q.BranchHopRange(port)
	// The CR stream physically visits the opposite node at hop 1 even
	// though that node belongs to the CL quadrant, so hop 1 is still a
	// valid physical position for CR.
	if port == PortCR {
		lo = 1
	}
	if hop < lo || hop > hi {
		return 0, fmt.Errorf("topology: hop %d out of range [%d,%d] for port %s", hop, lo, hi, QuarcPortName(port))
	}
	n := NodeID(q.n)
	half := NodeID(q.n / 2)
	switch port {
	case PortL:
		return (src + NodeID(hop)) % n, nil
	case PortR:
		return (src - NodeID(hop) + n) % n, nil
	case PortCL:
		return (src + half - NodeID(hop-1) + n) % n, nil
	case PortCR:
		return (src + half + NodeID(hop-1)) % n, nil
	}
	return 0, fmt.Errorf("topology: invalid port %d", port)
}

// BranchHopOf returns the branch-hop distance at which dst is visited by
// the stream leaving src on the port that owns dst's quadrant, together
// with that port.
func (q *Quarc) BranchHopOf(src, dst NodeID) (port, hop int, err error) {
	r := q.Rel(src, dst)
	if r == 0 {
		return 0, 0, fmt.Errorf("topology: self destination %d", src)
	}
	port = q.PortForRel(r)
	return port, q.DistRel(r), nil
}

// RimPlusVC returns the virtual channel a worm that started its rim +1
// journey at node start must use on the rim+ link leaving node linkSrc.
// Worms use VC0 until they cross the dateline link (N-1 -> 0), then VC1.
// The Quarc and the Spidergon share this rule.
func RimPlusVC(start, linkSrc NodeID) int {
	if linkSrc < start {
		return 1 // wrapped past node 0
	}
	return 0
}

// RimMinusVC is the analogous rule for the rim -1 direction, whose
// dateline is the link 0 -> N-1.
func RimMinusVC(start, linkSrc NodeID) int {
	if linkSrc > start {
		return 1 // wrapped past node 0 going downwards
	}
	return 0
}
