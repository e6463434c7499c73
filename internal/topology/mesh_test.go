package topology

import (
	"testing"
	"testing/quick"
)

func TestNewMeshRejectsBadSizes(t *testing.T) {
	for _, wh := range [][2]int{{1, 4}, {4, 1}, {0, 0}, {-2, 3}} {
		if _, err := NewMesh(wh[0], wh[1]); err == nil {
			t.Errorf("NewMesh(%d,%d) accepted", wh[0], wh[1])
		}
		if _, err := NewTorus(wh[0], wh[1]); err == nil {
			t.Errorf("NewTorus(%d,%d) accepted", wh[0], wh[1])
		}
	}
}

func TestMeshStructure(t *testing.T) {
	m, err := NewMesh(4, 3)
	if err != nil {
		t.Fatal(err)
	}
	if m.Nodes() != 12 {
		t.Fatalf("nodes = %d, want 12", m.Nodes())
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	// Interior node (1,1) has all four outgoing directions on both planes.
	for _, class := range []int{XPlus, XMinus, YPlus, YMinus} {
		if m.LinkFrom(m.ID(1, 1), class, MeshVCUnicast) == None {
			t.Errorf("interior node missing class %d unicast link", class)
		}
		if m.LinkFrom(m.ID(1, 1), class, MeshVCMulticast) == None {
			t.Errorf("interior node missing class %d multicast link", class)
		}
	}
	// Corner (0,0) has no X- or Y- links on a mesh.
	if m.LinkFrom(m.ID(0, 0), XMinus, MeshVCUnicast) != None {
		t.Error("corner has X- link on a mesh")
	}
	if m.LinkFrom(m.ID(0, 0), YMinus, MeshVCUnicast) != None {
		t.Error("corner has Y- link on a mesh")
	}
}

func TestTorusWrapLinks(t *testing.T) {
	tor, err := NewTorus(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := tor.Validate(); err != nil {
		t.Fatal(err)
	}
	// Corner (0,0) wraps in all directions on a torus.
	id := tor.LinkFrom(tor.ID(0, 0), XMinus, MeshVCUnicast)
	if id == None {
		t.Fatal("torus corner missing X- wrap link")
	}
	if c := tor.Channel(id); c.Dst != tor.ID(3, 0) {
		t.Errorf("X- wrap goes to %d, want %d", c.Dst, tor.ID(3, 0))
	}
	// Torus links also exist on the wrapped unicast plane.
	if tor.LinkFrom(tor.ID(0, 0), XPlus, TorusVCUnicastWrapped) == None {
		t.Error("torus missing wrapped-plane link")
	}
}

func TestMeshIDXYRoundTrip(t *testing.T) {
	m, err := NewMesh(5, 7)
	if err != nil {
		t.Fatal(err)
	}
	for y := 0; y < 7; y++ {
		for x := 0; x < 5; x++ {
			gx, gy := m.XY(m.ID(x, y))
			if gx != x || gy != y {
				t.Fatalf("XY(ID(%d,%d)) = (%d,%d)", x, y, gx, gy)
			}
		}
	}
}

func TestMeshDist(t *testing.T) {
	m, _ := NewMesh(4, 4)
	if d := m.Dist(m.ID(0, 0), m.ID(3, 3)); d != 6 {
		t.Errorf("mesh dist corner-corner = %d, want 6", d)
	}
	tor, _ := NewTorus(4, 4)
	if d := tor.Dist(tor.ID(0, 0), tor.ID(3, 3)); d != 2 {
		t.Errorf("torus dist corner-corner = %d, want 2 (wrap)", d)
	}
}

func TestHamiltonPathIsHamiltonian(t *testing.T) {
	m, err := NewMesh(5, 4)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[NodeID]bool{}
	prev := NodeID(-1)
	for i := 0; i < m.Nodes(); i++ {
		node := m.HamiltonNode(i)
		if seen[node] {
			t.Fatalf("Hamilton path revisits node %d", node)
		}
		seen[node] = true
		if m.HamiltonIndex(node) != i {
			t.Fatalf("HamiltonIndex(HamiltonNode(%d)) = %d", i, m.HamiltonIndex(node))
		}
		if prev >= 0 {
			// Consecutive Hamilton nodes must be mesh neighbours.
			if m.Dist(prev, node) != 1 {
				t.Fatalf("Hamilton nodes %d and %d not adjacent", prev, node)
			}
		}
		prev = node
	}
	if len(seen) != m.Nodes() {
		t.Fatalf("Hamilton path covers %d nodes, want %d", len(seen), m.Nodes())
	}
}

func TestHypercubeStructure(t *testing.T) {
	h, err := NewHypercube(4)
	if err != nil {
		t.Fatal(err)
	}
	if h.Nodes() != 16 {
		t.Fatalf("nodes = %d, want 16", h.Nodes())
	}
	if err := h.Validate(); err != nil {
		t.Fatal(err)
	}
	// Every node has one link per dimension, to the bit-flipped neighbour.
	for node := NodeID(0); node < 16; node++ {
		for d := 0; d < 4; d++ {
			id := h.LinkFrom(node, d, 0)
			if id == None {
				t.Fatalf("node %d missing dim %d link", node, d)
			}
			if c := h.Channel(id); c.Dst != node^NodeID(1<<uint(d)) {
				t.Fatalf("dim %d link from %d goes to %d", d, node, c.Dst)
			}
		}
	}
}

func TestHypercubeRejectsBadDims(t *testing.T) {
	for _, d := range []int{0, -1, 17} {
		if _, err := NewHypercube(d); err == nil {
			t.Errorf("NewHypercube(%d) accepted", d)
		}
	}
}

func TestHypercubeDist(t *testing.T) {
	h, _ := NewHypercube(4)
	if d := h.Dist(0, 15); d != 4 {
		t.Errorf("dist(0,15) = %d, want 4", d)
	}
	if d := h.Dist(5, 5); d != 0 {
		t.Errorf("dist(5,5) = %d, want 0", d)
	}
}

func TestSpidergonStructure(t *testing.T) {
	s, err := NewSpidergon(16)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	// Per node: 1 inj + 1 ej + 2x2 rim VCs + 1 cross = 7 channels.
	if got, want := s.NumChannels(), 16*7; got != want {
		t.Fatalf("channels = %d, want %d", got, want)
	}
}

func TestSpidergonRejectsBadSizes(t *testing.T) {
	for _, n := range []int{0, 5, 7, 4, -6} {
		if _, err := NewSpidergon(n); err == nil {
			t.Errorf("NewSpidergon(%d) accepted", n)
		}
	}
}

func TestSpidergonDistanceMatchesAcrossFirst(t *testing.T) {
	s, _ := NewSpidergon(16)
	cases := map[int]int{
		1: 1, 4: 4, // rim+
		15: 1, 12: 4, // rim-
		8: 1, 7: 2, 9: 2, 5: 4, 11: 4, 6: 3, 10: 3,
	}
	for r, want := range cases {
		if got := s.DistRel(r); got != want {
			t.Errorf("DistRel(%d) = %d, want %d", r, got, want)
		}
	}
}

func TestQuarcOnePortVariant(t *testing.T) {
	q, err := NewQuarcOnePort(16)
	if err != nil {
		t.Fatal(err)
	}
	if q.Ports() != 1 {
		t.Fatalf("one-port quarc has %d ports", q.Ports())
	}
	if err := q.Validate(); err != nil {
		t.Fatal(err)
	}
	// Network links identical to the all-port quarc: 14-2*4-... per node:
	// 1 inj + 1 ej + 4 rim VCs + 2 cross = 8.
	if got, want := q.NumChannels(), 16*8; got != want {
		t.Fatalf("channels = %d, want %d", got, want)
	}
	// Geometry helpers unchanged.
	if q.Quadrant() != 4 {
		t.Fatalf("quadrant = %d, want 4", q.Quadrant())
	}
}

// Property: torus distance is invariant under translation.
func TestTorusVertexSymmetry(t *testing.T) {
	tor, err := NewTorus(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	f := func(a, b, shift uint8) bool {
		src := NodeID(int(a) % 16)
		dst := NodeID(int(b) % 16)
		sx, sy := tor.XY(src)
		dx, dy := tor.XY(dst)
		tx, ty := int(shift)%4, int(shift/4)%4
		src2 := tor.ID((sx+tx)%4, (sy+ty)%4)
		dst2 := tor.ID((dx+tx)%4, (dy+ty)%4)
		return tor.Dist(src, dst) == tor.Dist(src2, dst2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
