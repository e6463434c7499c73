package routing

import (
	"math/rand/v2"
	"testing"
	"testing/quick"

	"quarc/internal/topology"
)

func meshRouter(t *testing.T, w, h int, wrap bool) *MeshRouter {
	t.Helper()
	var m *topology.Mesh
	var err error
	if wrap {
		m, err = topology.NewTorus(w, h)
	} else {
		m, err = topology.NewMesh(w, h)
	}
	if err != nil {
		t.Fatal(err)
	}
	return NewMeshRouter(m)
}

func TestMeshUnicastAllPairs(t *testing.T) {
	for _, wrap := range []bool{false, true} {
		rt := meshRouter(t, 4, 4, wrap)
		m := rt.Mesh()
		for src := topology.NodeID(0); int(src) < 16; src++ {
			for dst := topology.NodeID(0); int(dst) < 16; dst++ {
				if src == dst {
					if _, err := rt.AppendUnicastPath(nil, src, dst); err == nil {
						t.Fatal("self path accepted")
					}
					continue
				}
				p, err := rt.AppendUnicastPath(nil, src, dst)
				if err != nil {
					t.Fatalf("wrap=%v path %d->%d: %v", wrap, src, dst, err)
				}
				pathIsWellFormed(t, rt.Graph(), src, dst, p)
				if want := m.Dist(src, dst) + 2; len(p) != want {
					t.Fatalf("wrap=%v path %d->%d has %d channels, want %d (shortest)",
						wrap, src, dst, len(p), want)
				}
			}
		}
	}
}

func TestMeshXYOrder(t *testing.T) {
	rt := meshRouter(t, 4, 4, false)
	g := rt.Graph()
	// (0,0) -> (2,3): X+ twice then Y+ three times.
	p, err := rt.AppendUnicastPath(nil, rt.Mesh().ID(0, 0), rt.Mesh().ID(2, 3))
	if err != nil {
		t.Fatal(err)
	}
	classes := []int{}
	for _, id := range p[1 : len(p)-1] {
		classes = append(classes, g.Channel(id).Class)
	}
	want := []int{topology.XPlus, topology.XPlus, topology.YPlus, topology.YPlus, topology.YPlus}
	if len(classes) != len(want) {
		t.Fatalf("link classes %v, want %v", classes, want)
	}
	for i := range want {
		if classes[i] != want[i] {
			t.Fatalf("link classes %v, want %v (X before Y)", classes, want)
		}
	}
}

func TestMeshUnicastUsesUnicastPlane(t *testing.T) {
	rt := meshRouter(t, 4, 4, false)
	g := rt.Graph()
	p, _ := rt.AppendUnicastPath(nil, 0, 15)
	for _, id := range p[1 : len(p)-1] {
		if c := g.Channel(id); c.VC != topology.MeshVCUnicast {
			t.Fatalf("unicast link on VC %d, want %d", c.VC, topology.MeshVCUnicast)
		}
	}
}

func TestTorusDatelineVC(t *testing.T) {
	rt := meshRouter(t, 4, 4, true)
	g := rt.Graph()
	m := rt.Mesh()
	// (3,0) -> (1,0) wraps: links at x=3 (wrap link, VC0) then x=0 (VC1).
	p, err := rt.AppendUnicastPath(nil, m.ID(3, 0), m.ID(1, 0))
	if err != nil {
		t.Fatal(err)
	}
	links := p[1 : len(p)-1]
	if len(links) != 2 {
		t.Fatalf("wrap path has %d links, want 2", len(links))
	}
	if c := g.Channel(links[0]); c.VC != topology.MeshVCUnicast {
		t.Errorf("wrap link VC = %d, want %d", c.VC, topology.MeshVCUnicast)
	}
	if c := g.Channel(links[1]); c.VC != topology.TorusVCUnicastWrapped {
		t.Errorf("post-wrap link VC = %d, want %d", c.VC, topology.TorusVCUnicastWrapped)
	}
}

func TestMeshMulticastBranches(t *testing.T) {
	rt := meshRouter(t, 4, 4, false)
	set, err := rt.HighLowSet([]int{2, 5}, []int{3})
	if err != nil {
		t.Fatal(err)
	}
	src := rt.Mesh().ID(1, 1) // Hamilton index 6 (row 1 is reversed)
	branches, err := MulticastBranches(rt, src, set)
	if err != nil {
		t.Fatal(err)
	}
	if len(branches) != 2 {
		t.Fatalf("branches = %d, want 2", len(branches))
	}
	m := rt.Mesh()
	base := m.HamiltonIndex(src)
	for _, b := range branches {
		end := b.Targets[len(b.Targets)-1]
		pathIsWellFormed(t, rt.Graph(), src, end, b.Path)
		// All network links must ride the multicast plane.
		for _, id := range b.Path[1 : len(b.Path)-1] {
			if c := rt.Graph().Channel(id); c.VC != topology.MeshVCMulticast {
				t.Fatalf("multicast link on VC %d", c.VC)
			}
		}
		// Targets must sit at the requested Hamilton offsets.
		for _, target := range b.Targets {
			off := m.HamiltonIndex(target) - base
			if off < 0 {
				off = -off
			}
			if off == 0 {
				t.Fatalf("source is its own target")
			}
		}
	}
}

func TestMeshMulticastClipsAtPathEnds(t *testing.T) {
	rt := meshRouter(t, 4, 4, false)
	set, err := rt.HighLowSet([]int{1, 40}, nil) // 40 beyond the 16-node path
	if err != nil {
		t.Fatal(err)
	}
	branches, err := MulticastBranches(rt, 0, set)
	if err != nil {
		t.Fatal(err)
	}
	if len(branches) != 1 || len(branches[0].Targets) != 1 {
		t.Fatalf("clipping failed: %+v", branches)
	}
	// A set with no reachable targets errors.
	loSet, _ := rt.HighLowSet(nil, []int{5})
	if _, err := MulticastBranches(rt, 0, loSet); err == nil {
		t.Error("low-path targets from Hamilton start accepted")
	}
}

func TestMeshMulticastRejectsBadSets(t *testing.T) {
	rt := meshRouter(t, 4, 4, false)
	bad := NewMulticastSet(topology.MeshPorts).Add(2, 1)
	if _, err := MulticastBranches(rt, 0, bad); err == nil {
		t.Error("set using port 2 accepted")
	}
	if _, err := MulticastBranches(rt, 0, NewMulticastSet(1)); err == nil {
		t.Error("wrong port count accepted")
	}
	if _, err := rt.HighLowSet([]int{0}, nil); err == nil {
		t.Error("offset 0 accepted")
	}
	if _, err := rt.HighLowSet(nil, []int{65}); err == nil {
		t.Error("offset 65 accepted")
	}
}

func TestHypercubeUnicastAllPairs(t *testing.T) {
	h, err := topology.NewHypercube(4)
	if err != nil {
		t.Fatal(err)
	}
	rt := NewHypercubeRouter(h)
	for src := topology.NodeID(0); src < 16; src++ {
		for dst := topology.NodeID(0); dst < 16; dst++ {
			if src == dst {
				continue
			}
			p, err := rt.AppendUnicastPath(nil, src, dst)
			if err != nil {
				t.Fatal(err)
			}
			pathIsWellFormed(t, rt.Graph(), src, dst, p)
			if want := h.Dist(src, dst) + 2; len(p) != want {
				t.Fatalf("path %d->%d has %d channels, want %d", src, dst, len(p), want)
			}
		}
	}
}

func TestHypercubeECubeOrder(t *testing.T) {
	h, _ := topology.NewHypercube(4)
	rt := NewHypercubeRouter(h)
	p, err := rt.AppendUnicastPath(nil, 0, 0b1011)
	if err != nil {
		t.Fatal(err)
	}
	g := rt.Graph()
	dims := []int{}
	for _, id := range p[1 : len(p)-1] {
		dims = append(dims, g.Channel(id).Class)
	}
	want := []int{0, 1, 3} // ascending dimensions
	if len(dims) != 3 {
		t.Fatalf("dims %v, want %v", dims, want)
	}
	for i := range want {
		if dims[i] != want[i] {
			t.Fatalf("dims %v, want %v", dims, want)
		}
	}
	if port, _ := rt.UnicastPort(0, 0b1010); port != 1 {
		t.Errorf("port for 0->0b1010 = %d, want 1", port)
	}
}

func TestHypercubeFanoutMulticast(t *testing.T) {
	h, _ := topology.NewHypercube(3)
	rt := NewHypercubeRouter(h)
	set := NewMulticastSet(1).Add(0, 1).Add(0, 6) // XOR offsets 1 and 6
	branches, err := MulticastBranches(rt, 5, set)
	if err != nil {
		t.Fatal(err)
	}
	if len(branches) != 2 {
		t.Fatalf("branches = %d, want 2", len(branches))
	}
	got := map[topology.NodeID]bool{}
	for _, b := range branches {
		got[b.Targets[0]] = true
	}
	if !got[5^1] || !got[5^6] {
		t.Fatalf("fanout targets wrong: %v", got)
	}
	if _, err := MulticastBranches(rt, 0, NewMulticastSet(1)); err == nil {
		t.Error("empty set accepted")
	}
}

func TestSpidergonUnicastAllPairs(t *testing.T) {
	s, err := topology.NewSpidergon(16)
	if err != nil {
		t.Fatal(err)
	}
	rt := NewSpidergonRouter(s)
	for src := topology.NodeID(0); src < 16; src++ {
		for dst := topology.NodeID(0); dst < 16; dst++ {
			if src == dst {
				continue
			}
			p, err := rt.AppendUnicastPath(nil, src, dst)
			if err != nil {
				t.Fatal(err)
			}
			pathIsWellFormed(t, rt.Graph(), src, dst, p)
			if want := s.Dist(src, dst) + 2; len(p) != want {
				t.Fatalf("path %d->%d has %d channels, want %d", src, dst, len(p), want)
			}
		}
	}
}

func TestSpidergonCrossFirst(t *testing.T) {
	s, _ := topology.NewSpidergon(16)
	rt := NewSpidergonRouter(s)
	// 0 -> 6 is beyond a quarter: must cross first.
	p, err := rt.AppendUnicastPath(nil, 0, 6)
	if err != nil {
		t.Fatal(err)
	}
	if c := rt.Graph().Channel(p[1]); c.Class != topology.CrossL {
		t.Errorf("first link = %v, want cross", c)
	}
}

func TestSpidergonBroadcastIsNMinus1Unicasts(t *testing.T) {
	s, _ := topology.NewSpidergon(16)
	rt := NewSpidergonRouter(s)
	branches, err := MulticastBranches(rt, 3, rt.BroadcastSet())
	if err != nil {
		t.Fatal(err)
	}
	if len(branches) != 15 {
		t.Fatalf("broadcast branches = %d, want N-1 = 15", len(branches))
	}
	covered := map[topology.NodeID]bool{}
	for _, b := range branches {
		if len(b.Targets) != 1 {
			t.Fatalf("unicast branch with %d targets", len(b.Targets))
		}
		covered[b.Targets[0]] = true
		// All branches leave through the single injection port.
		if c := rt.Graph().Channel(b.Path[0]); c.Kind != topology.Injection || c.Class != 0 {
			t.Fatalf("branch injects via %v, want port 0", c)
		}
	}
	if len(covered) != 15 || covered[3] {
		t.Fatalf("broadcast covers %d nodes (self=%v)", len(covered), covered[3])
	}
}

func TestOnePortQuarcRouting(t *testing.T) {
	q, err := topology.NewQuarcOnePort(16)
	if err != nil {
		t.Fatal(err)
	}
	rt := NewQuarcRouter(q)
	// All unicast paths inject and eject through port 0, but still follow
	// the quadrant routes.
	for _, dst := range []topology.NodeID{3, 6, 10, 14} {
		p, err := rt.AppendUnicastPath(nil, 0, dst)
		if err != nil {
			t.Fatal(err)
		}
		g := rt.Graph()
		if c := g.Channel(p[0]); c.Class != 0 {
			t.Errorf("one-port injection class = %d, want 0", c.Class)
		}
		if c := g.Channel(p[len(p)-1]); c.Class != 0 {
			t.Errorf("one-port ejection class = %d, want 0", c.Class)
		}
		if want := q.Dist(0, dst) + 2; len(p) != want {
			t.Errorf("one-port path to %d has %d channels, want %d", dst, len(p), want)
		}
	}
	// Broadcast branches all share the single injection channel.
	branches, err := MulticastBranches(rt, 0, rt.BroadcastSet())
	if err != nil {
		t.Fatal(err)
	}
	inj := branches[0].Path[0]
	for _, b := range branches {
		if b.Path[0] != inj {
			t.Fatal("one-port broadcast branches use different injection channels")
		}
	}
}

// Property: mesh unicast paths are always shortest, on mesh and torus.
func TestMeshPathsShortestProperty(t *testing.T) {
	rtm := meshRouter(t, 5, 3, false)
	rtt := meshRouter(t, 5, 3, true)
	f := func(a, b uint8) bool {
		src := topology.NodeID(int(a) % 15)
		dst := topology.NodeID(int(b) % 15)
		if src == dst {
			return true
		}
		pm, err := rtm.AppendUnicastPath(nil, src, dst)
		if err != nil {
			return false
		}
		pt, err := rtt.AppendUnicastPath(nil, src, dst)
		if err != nil {
			return false
		}
		return len(pm) == rtm.Mesh().Dist(src, dst)+2 && len(pt) == rtt.Mesh().Dist(src, dst)+2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

func TestSpidergonSetBuilders(t *testing.T) {
	s, err := topology.NewSpidergon(16)
	if err != nil {
		t.Fatal(err)
	}
	rt := NewSpidergonRouter(s)
	loc, err := rt.LocalizedSet(3)
	if err != nil {
		t.Fatal(err)
	}
	if loc.Size() != 3 || loc.Bits[0]&0b101 != 0b101 {
		t.Fatalf("localized set wrong: %v", loc)
	}
	rng := rand.New(rand.NewPCG(4, 4))
	rnd, err := rt.RandomSet(rng, 5)
	if err != nil {
		t.Fatal(err)
	}
	if rnd.Size() != 5 {
		t.Fatalf("random set size = %d, want 5", rnd.Size())
	}
	branches, err := MulticastBranches(rt, 2, rnd)
	if err != nil {
		t.Fatal(err)
	}
	if len(branches) != 5 {
		t.Fatalf("branches = %d, want 5", len(branches))
	}
	if _, err := rt.RandomSet(rng, 16); err == nil {
		t.Error("oversized random set accepted")
	}
	if _, err := rt.LocalizedSet(0); err == nil {
		t.Error("empty localized set accepted")
	}
}
