package routing

import (
	"testing"
	"testing/quick"

	"quarc/internal/topology"
)

func mustRouter(t *testing.T, n int) *QuarcRouter {
	t.Helper()
	q, err := topology.NewQuarc(n)
	if err != nil {
		t.Fatalf("NewQuarc(%d): %v", n, err)
	}
	return NewQuarcRouter(q)
}

// pathIsWellFormed checks the structural invariants every path must have:
// injection first, ejection last, links in the middle, and physically
// consecutive (each link starts where the previous ended).
func pathIsWellFormed(t *testing.T, g *topology.Graph, src, dst topology.NodeID, p Path) {
	t.Helper()
	if len(p) < 2 {
		t.Fatalf("path %v too short", p)
	}
	first := g.Channel(p[0])
	last := g.Channel(p[len(p)-1])
	if first.Kind != topology.Injection || first.Src != src {
		t.Fatalf("path must start with injection at %d, got %v", src, first)
	}
	if last.Kind != topology.Ejection || last.Src != dst {
		t.Fatalf("path must end with ejection at %d, got %v", dst, last)
	}
	cur := src
	for _, id := range p[1 : len(p)-1] {
		c := g.Channel(id)
		if c.Kind != topology.Link {
			t.Fatalf("interior channel %v is not a link", c)
		}
		if c.Src != cur {
			t.Fatalf("link %v does not start at %d", c, cur)
		}
		cur = c.Dst
	}
	if cur != dst {
		t.Fatalf("path ends at %d, want %d", cur, dst)
	}
}

func TestUnicastPathsAllPairs(t *testing.T) {
	for _, n := range []int{8, 16, 32} {
		rt := mustRouter(t, n)
		q := rt.Quarc()
		for src := topology.NodeID(0); int(src) < n; src++ {
			for dst := topology.NodeID(0); int(dst) < n; dst++ {
				if src == dst {
					if _, err := rt.AppendUnicastPath(nil, src, dst); err == nil {
						t.Fatalf("self-path %d accepted", src)
					}
					continue
				}
				p, err := rt.AppendUnicastPath(nil, src, dst)
				if err != nil {
					t.Fatalf("UnicastPath(%d,%d): %v", src, dst, err)
				}
				pathIsWellFormed(t, rt.Graph(), src, dst, p)
				// Path = injection + dist links + ejection.
				if want := q.Dist(src, dst) + 2; len(p) != want {
					t.Fatalf("path %d->%d has %d channels, want %d", src, dst, len(p), want)
				}
			}
		}
	}
}

func TestUnicastPortMatchesQuadrant(t *testing.T) {
	rt := mustRouter(t, 16)
	cases := []struct {
		dst  topology.NodeID
		port int
	}{
		{1, topology.PortL}, {4, topology.PortL},
		{5, topology.PortCL}, {8, topology.PortCL},
		{9, topology.PortCR}, {11, topology.PortCR},
		{12, topology.PortR}, {15, topology.PortR},
	}
	for _, c := range cases {
		port, err := rt.UnicastPort(0, c.dst)
		if err != nil {
			t.Fatalf("UnicastPort(0,%d): %v", c.dst, err)
		}
		if port != c.port {
			t.Errorf("port for dst %d = %s, want %s", c.dst,
				topology.QuarcPortName(port), topology.QuarcPortName(c.port))
		}
	}
}

func TestCrossPathsUseCrossLinkFirst(t *testing.T) {
	rt := mustRouter(t, 16)
	g := rt.Graph()
	// 0 -> 6 is cross-left: inj, crossL, rim-, rim-, eject.
	p, err := rt.AppendUnicastPath(nil, 0, 6)
	if err != nil {
		t.Fatal(err)
	}
	if c := g.Channel(p[1]); c.Class != topology.CrossL {
		t.Errorf("first link of 0->6 = %v, want cross-left", c)
	}
	for _, id := range p[2 : len(p)-1] {
		if c := g.Channel(id); c.Class != topology.RimMinus {
			t.Errorf("post-cross link of 0->6 = %v, want rim-", c)
		}
	}
	// 0 -> 10 is cross-right: inj, crossR, rim+, rim+, eject.
	p, err = rt.AppendUnicastPath(nil, 0, 10)
	if err != nil {
		t.Fatal(err)
	}
	if c := g.Channel(p[1]); c.Class != topology.CrossR {
		t.Errorf("first link of 0->10 = %v, want cross-right", c)
	}
	for _, id := range p[2 : len(p)-1] {
		if c := g.Channel(id); c.Class != topology.RimPlus {
			t.Errorf("post-cross link of 0->10 = %v, want rim+", c)
		}
	}
}

func TestEjectionPortMatchesArrivalDirection(t *testing.T) {
	rt := mustRouter(t, 16)
	g := rt.Graph()
	eject := func(p Path) topology.Channel { return g.Channel(p[len(p)-1]) }

	p, _ := rt.AppendUnicastPath(nil, 0, 3) // L quadrant, arrives on rim+
	if c := eject(p); c.Class != topology.RimPlus {
		t.Errorf("L arrival ejection port = %d, want rim+", c.Class)
	}
	p, _ = rt.AppendUnicastPath(nil, 0, 13) // R quadrant, arrives on rim-
	if c := eject(p); c.Class != topology.RimMinus {
		t.Errorf("R arrival ejection port = %d, want rim-", c.Class)
	}
	p, _ = rt.AppendUnicastPath(nil, 0, 8) // opposite node, arrives on crossL
	if c := eject(p); c.Class != topology.CrossL {
		t.Errorf("cross arrival ejection port = %d, want crossL", c.Class)
	}
}

func TestVCDatelineOnWrappedPaths(t *testing.T) {
	rt := mustRouter(t, 16)
	g := rt.Graph()
	// 14 -> 2 travels rim+ 14,15,0,1: links at 14,15 on VC0, links at 0,1 on VC1.
	p, err := rt.AppendUnicastPath(nil, 14, 2)
	if err != nil {
		t.Fatal(err)
	}
	wantVC := []int{0, 0, 1, 1}
	links := p[1 : len(p)-1]
	if len(links) != 4 {
		t.Fatalf("14->2 has %d links, want 4", len(links))
	}
	for i, id := range links {
		if c := g.Channel(id); c.VC != wantVC[i] {
			t.Errorf("link %d of 14->2 VC = %d, want %d", i, c.VC, wantVC[i])
		}
	}
}

func TestBroadcastSetMatchesFig3(t *testing.T) {
	rt := mustRouter(t, 16)
	set := rt.BroadcastSet()
	if set.Size() != 15 {
		t.Fatalf("broadcast set covers %d nodes, want 15", set.Size())
	}
	branches, err := MulticastBranches(rt, 0, set)
	if err != nil {
		t.Fatal(err)
	}
	if len(branches) != 4 {
		t.Fatalf("broadcast has %d branches, want 4", len(branches))
	}
	endpoints := map[int]topology.NodeID{}
	covered := map[topology.NodeID]bool{}
	for _, b := range branches {
		endpoints[b.Port] = b.Targets[len(b.Targets)-1]
		for _, n := range b.Targets {
			if covered[n] {
				t.Fatalf("node %d covered twice", n)
			}
			covered[n] = true
		}
	}
	want := map[int]topology.NodeID{
		topology.PortL:  4,
		topology.PortCL: 5,
		topology.PortCR: 11,
		topology.PortR:  12,
	}
	for p, w := range want {
		if endpoints[p] != w {
			t.Errorf("branch %s endpoint = %d, want %d", topology.QuarcPortName(p), endpoints[p], w)
		}
	}
	if len(covered) != 15 {
		t.Fatalf("broadcast covers %d nodes, want 15", len(covered))
	}
}

func TestMulticastBranchPathsEndAtLastTarget(t *testing.T) {
	rt := mustRouter(t, 32)
	g := rt.Graph()
	set := NewMulticastSet(topology.QuarcPorts)
	set = set.Add(topology.PortL, 2).Add(topology.PortL, 5)
	set = set.Add(topology.PortCR, 3)
	branches, err := MulticastBranches(rt, 7, set)
	if err != nil {
		t.Fatal(err)
	}
	if len(branches) != 2 {
		t.Fatalf("branches = %d, want 2", len(branches))
	}
	for _, b := range branches {
		end := b.Targets[len(b.Targets)-1]
		pathIsWellFormed(t, g, 7, end, b.Path)
		switch b.Port {
		case topology.PortL:
			if end != 12 { // 7 + 5
				t.Errorf("L branch endpoint = %d, want 12", end)
			}
			if len(b.Targets) != 2 || b.Targets[0] != 9 {
				t.Errorf("L branch targets = %v, want [9 12]", b.Targets)
			}
		case topology.PortCR:
			if end != 7+16+2 { // src + N/2 + (hop-1)
				t.Errorf("CR branch endpoint = %d, want 25", end)
			}
		default:
			t.Errorf("unexpected branch on port %s", topology.QuarcPortName(b.Port))
		}
	}
}

func TestMulticastRejectsInvalidHops(t *testing.T) {
	rt := mustRouter(t, 16)
	// Hop beyond the quadrant.
	bad := NewMulticastSet(topology.QuarcPorts).Add(topology.PortL, 5)
	if _, err := MulticastBranches(rt, 0, bad); err == nil {
		t.Error("accepted L target beyond quadrant")
	}
	// CR hop 1 is the opposite node, which belongs to the CL quadrant.
	bad = NewMulticastSet(topology.QuarcPorts).Add(topology.PortCR, 1)
	if _, err := MulticastBranches(rt, 0, bad); err == nil {
		t.Error("accepted CR target at hop 1")
	}
	// Wrong port count.
	if _, err := MulticastBranches(rt, 0, NewMulticastSet(2)); err == nil {
		t.Error("accepted set with wrong port count")
	}
}

func TestMulticastSetHelpers(t *testing.T) {
	s := NewMulticastSet(4).Add(0, 1).Add(0, 3).Add(2, 2)
	if s.Bits[0] != 0b101 || s.Bits[2] != 0b10 {
		t.Errorf("Add gave wrong membership: %b", s.Bits)
	}
	if got := s.LastHop(0); got != 3 {
		t.Errorf("LastHop(0) = %d, want 3", got)
	}
	if got := s.LastHop(1); got != 0 {
		t.Errorf("LastHop(1) = %d, want 0", got)
	}
	if s.Size() != 3 {
		t.Errorf("Size = %d, want 3", s.Size())
	}
	if s.Empty() {
		t.Error("non-empty set reported Empty")
	}
	if NewMulticastSet(4).Size() != 0 || !NewMulticastSet(4).Empty() {
		t.Error("fresh set must be empty")
	}
}

func TestMulticastSetString(t *testing.T) {
	s := NewMulticastSet(4).Add(0, 1).Add(3, 2)
	if got := s.String(); got != "L=1 LO=0 RO=0 R=10" {
		t.Errorf("String = %q", got)
	}
	s2 := NewMulticastSet(2).Add(1, 1)
	if got := s2.String(); got != "P0=0 P1=1" {
		t.Errorf("String = %q", got)
	}
}

// Property: every broadcast branch path has at most N/4 + 2 channels and
// every covered node appears exactly once across the branches.
func TestBroadcastPropertyAllSizes(t *testing.T) {
	f := func(seed uint8) bool {
		sizes := []int{8, 16, 32, 64}
		n := sizes[int(seed)%len(sizes)]
		rt := mustRouter(t, n)
		src := topology.NodeID(int(seed) % n)
		branches, err := MulticastBranches(rt, src, rt.BroadcastSet())
		if err != nil {
			return false
		}
		covered := map[topology.NodeID]bool{}
		for _, b := range branches {
			if len(b.Path) > n/4+2 {
				return false
			}
			for _, node := range b.Targets {
				if covered[node] || node == src {
					return false
				}
				covered[node] = true
			}
		}
		return len(covered) == n-1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
