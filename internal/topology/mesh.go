package topology

import "fmt"

// Mesh/torus link direction classes and port indices. All-port mesh and
// torus routers have one injection/ejection port per direction.
const (
	XPlus  = 0
	XMinus = 1
	YPlus  = 2
	YMinus = 3

	// MeshPorts is the number of injection/ejection ports of the all-port
	// mesh and torus routers.
	MeshPorts = 4
)

// Mesh virtual-channel planes. Unicast XY traffic needs no VCs on a mesh;
// path-based (Hamilton) multicast runs in its own VC plane so the two
// routing schemes cannot form deadlock cycles through each other. The
// torus additionally splits the unicast plane across a dateline.
const (
	// MeshVCUnicast is the unicast plane (XY routing).
	MeshVCUnicast = 0
	// TorusVCUnicastWrapped is the post-dateline unicast plane (torus only).
	TorusVCUnicastWrapped = 1
	// MeshVCMulticast is the Hamilton-path multicast plane.
	MeshVCMulticast = 2
)

// Mesh is a W x H 2D mesh with an all-port (4-port) router per node.
// Node (x, y) has ID y*W + x.
type Mesh struct {
	*Graph
	w, h int
	wrap bool // torus
}

// NewMesh constructs a W x H mesh. Both dimensions must be at least 2.
func NewMesh(w, h int) (*Mesh, error) { return newMesh(w, h, false) }

// NewTorus constructs a W x H torus: a mesh whose rows and columns wrap
// around. Unicast traffic uses two VC planes with a dateline at index 0 in
// each ring, making dimension-order routing deadlock-free.
func NewTorus(w, h int) (*Mesh, error) { return newMesh(w, h, true) }

func newMesh(w, h int, wrap bool) (*Mesh, error) {
	if w < 2 || h < 2 {
		return nil, fmt.Errorf("topology: mesh dimensions must be >= 2, got %dx%d", w, h)
	}
	kind := "mesh"
	if wrap {
		kind = "torus"
	}
	g := NewGraph(fmt.Sprintf("%s-%dx%d", kind, w, h), w*h, MeshPorts)
	n := w * h
	for node := NodeID(0); int(node) < n; node++ {
		for p := 0; p < MeshPorts; p++ {
			g.AddInjection(node, p)
			g.AddEjection(node, p)
		}
	}
	m := &Mesh{Graph: g, w: w, h: h, wrap: wrap}
	vcs := []int{MeshVCUnicast, MeshVCMulticast}
	if wrap {
		vcs = []int{MeshVCUnicast, TorusVCUnicastWrapped, MeshVCMulticast}
	}
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			src := m.ID(x, y)
			addBoth := func(dst NodeID, class int) {
				for _, vc := range vcs {
					g.AddLink(src, dst, class, vc)
				}
			}
			if x+1 < w {
				addBoth(m.ID(x+1, y), XPlus)
			} else if wrap {
				addBoth(m.ID(0, y), XPlus)
			}
			if x > 0 {
				addBoth(m.ID(x-1, y), XMinus)
			} else if wrap {
				addBoth(m.ID(w-1, y), XMinus)
			}
			if y+1 < h {
				addBoth(m.ID(x, y+1), YPlus)
			} else if wrap {
				addBoth(m.ID(x, 0), YPlus)
			}
			if y > 0 {
				addBoth(m.ID(x, y-1), YMinus)
			} else if wrap {
				addBoth(m.ID(x, h-1), YMinus)
			}
		}
	}
	return m, nil
}

// W and H return the mesh dimensions.
func (m *Mesh) W() int { return m.w }

// H returns the mesh height.
func (m *Mesh) H() int { return m.h }

// Wrap reports whether the network is a torus.
func (m *Mesh) Wrap() bool { return m.wrap }

// ID returns the node at coordinates (x, y).
func (m *Mesh) ID(x, y int) NodeID { return NodeID(y*m.w + x) }

// XY returns the coordinates of a node.
func (m *Mesh) XY(id NodeID) (x, y int) { return int(id) % m.w, int(id) / m.w }

// Dist returns the dimension-order hop count from src to dst.
func (m *Mesh) Dist(src, dst NodeID) int {
	sx, sy := m.XY(src)
	dx, dy := m.XY(dst)
	return m.ringDist(sx, dx, m.w) + m.ringDist(sy, dy, m.h)
}

func (m *Mesh) ringDist(a, b, size int) int {
	d := b - a
	if d < 0 {
		d = -d
	}
	if m.wrap && size-d < d {
		d = size - d
	}
	return d
}

// HamiltonIndex returns a node's position on the snake-order Hamilton
// path used by dual-path multicast: even rows left-to-right, odd rows
// right-to-left, so consecutive indices are mesh neighbours.
func (m *Mesh) HamiltonIndex(id NodeID) int {
	x, y := m.XY(id)
	if y%2 == 0 {
		return y*m.w + x
	}
	return y*m.w + (m.w - 1 - x)
}

// HamiltonNode is the inverse of HamiltonIndex.
func (m *Mesh) HamiltonNode(idx int) NodeID {
	y := idx / m.w
	x := idx % m.w
	if y%2 == 1 {
		x = m.w - 1 - x
	}
	return m.ID(x, y)
}
