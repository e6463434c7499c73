package topology

import (
	"testing"
	"testing/quick"
)

func mustQuarc(t *testing.T, n int) *Quarc {
	t.Helper()
	q, err := NewQuarc(n)
	if err != nil {
		t.Fatalf("NewQuarc(%d): %v", n, err)
	}
	return q
}

func TestNewQuarcRejectsBadSizes(t *testing.T) {
	for _, n := range []int{0, 1, 4, 6, 10, 13, -8} {
		if _, err := NewQuarc(n); err == nil {
			t.Errorf("NewQuarc(%d) accepted an invalid size", n)
		}
	}
}

func TestNewQuarcAcceptsPaperSizes(t *testing.T) {
	for _, n := range []int{8, 16, 32, 64, 128} {
		q := mustQuarc(t, n)
		if q.Nodes() != n {
			t.Errorf("Nodes() = %d, want %d", q.Nodes(), n)
		}
		if err := q.Validate(); err != nil {
			t.Errorf("Validate failed for n=%d: %v", n, err)
		}
	}
}

func TestQuarcChannelCount(t *testing.T) {
	// Per node: 4 inj + 4 ej + 2 rim directions x 2 VCs + 2 cross = 14.
	q := mustQuarc(t, 16)
	if got, want := q.NumChannels(), 16*14; got != want {
		t.Fatalf("channel count = %d, want %d", got, want)
	}
}

func TestQuarcDiameterIsQuarter(t *testing.T) {
	for _, n := range []int{8, 16, 32, 64, 128} {
		q := mustQuarc(t, n)
		// The diameter, N/4, is attained and never exceeded.
		maxDist := 0
		for r := 1; r < n; r++ {
			if d := q.DistRel(r); d > maxDist {
				maxDist = d
			}
		}
		if maxDist != n/4 {
			t.Errorf("n=%d max unicast distance = %d, want %d", n, maxDist, n/4)
		}
	}
}

func TestQuarcQuadrantsPartitionNetwork(t *testing.T) {
	for _, n := range []int{8, 16, 64} {
		q := mustQuarc(t, n)
		counts := make(map[int]int)
		for r := 1; r < n; r++ {
			counts[q.PortForRel(r)]++
		}
		quad := n / 4
		want := map[int]int{PortL: quad, PortCL: quad, PortCR: quad - 1, PortR: quad}
		for p, w := range want {
			if counts[p] != w {
				t.Errorf("n=%d port %s covers %d nodes, want %d", n, QuarcPortName(p), counts[p], w)
			}
		}
	}
}

// The paper's Fig. 3 example: broadcasting from node 0 in a 16-node Quarc,
// the last nodes visited on the L, LO (cross-left), RO (cross-right) and R
// branches are 4, 5, 11 and 12 respectively.
func TestQuarcFig3BroadcastEndpoints(t *testing.T) {
	q := mustQuarc(t, 16)
	cases := []struct {
		port int
		want NodeID
	}{
		{PortL, 4},
		{PortCL, 5},
		{PortCR, 11},
		{PortR, 12},
	}
	for _, c := range cases {
		_, hi := q.BranchHopRange(c.port)
		got, err := q.BranchNode(0, c.port, hi)
		if err != nil {
			t.Fatalf("BranchNode(0,%s,%d): %v", QuarcPortName(c.port), hi, err)
		}
		if got != c.want {
			t.Errorf("port %s broadcast endpoint = %d, want %d", QuarcPortName(c.port), got, c.want)
		}
	}
}

func TestQuarcBranchNodesCoverNetworkExactlyOnce(t *testing.T) {
	for _, n := range []int{8, 16, 32} {
		q := mustQuarc(t, n)
		for src := NodeID(0); int(src) < n; src += NodeID(n / 4) {
			seen := make(map[NodeID]int)
			for port := 0; port < QuarcPorts; port++ {
				lo, hi := q.BranchHopRange(port)
				for hop := lo; hop <= hi; hop++ {
					node, err := q.BranchNode(src, port, hop)
					if err != nil {
						t.Fatalf("BranchNode(%d,%s,%d): %v", src, QuarcPortName(port), hop, err)
					}
					seen[node]++
				}
			}
			if len(seen) != n-1 {
				t.Fatalf("n=%d src=%d: branches reach %d distinct nodes, want %d", n, src, len(seen), n-1)
			}
			for node, c := range seen {
				if c != 1 {
					t.Fatalf("n=%d src=%d: node %d covered %d times", n, src, node, c)
				}
			}
			if _, dup := seen[src]; dup {
				t.Fatalf("n=%d src=%d: source covered by its own broadcast", n, src)
			}
		}
	}
}

func TestQuarcBranchHopOfRoundTrip(t *testing.T) {
	q := mustQuarc(t, 32)
	for src := NodeID(0); int(src) < 32; src++ {
		for dst := NodeID(0); int(dst) < 32; dst++ {
			if src == dst {
				if _, _, err := q.BranchHopOf(src, dst); err == nil {
					t.Fatalf("BranchHopOf(%d,%d) accepted self", src, dst)
				}
				continue
			}
			port, hop, err := q.BranchHopOf(src, dst)
			if err != nil {
				t.Fatalf("BranchHopOf(%d,%d): %v", src, dst, err)
			}
			back, err := q.BranchNode(src, port, hop)
			if err != nil {
				t.Fatalf("BranchNode(%d,%s,%d): %v", src, QuarcPortName(port), hop, err)
			}
			if back != dst {
				t.Fatalf("round trip %d->%d gave %d (port %s hop %d)", src, dst, back, QuarcPortName(port), hop)
			}
			if hop != q.Dist(src, dst) {
				t.Fatalf("hop %d != dist %d for %d->%d", hop, q.Dist(src, dst), src, dst)
			}
		}
	}
}

func TestQuarcDistRelSymmetryProperties(t *testing.T) {
	// Vertex symmetry: distance depends only on the relative position.
	q := mustQuarc(t, 64)
	f := func(src, dst uint8) bool {
		s := NodeID(int(src) % 64)
		d := NodeID(int(dst) % 64)
		if s == d {
			return q.Dist(s, d) == 0
		}
		dist := q.Dist(s, d)
		return dist >= 1 && dist <= 16 && dist == q.DistRel(q.Rel(s, d))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestQuarcVCAssignment(t *testing.T) {
	// A rim+ journey that does not wrap stays on VC0.
	if vc := RimPlusVC(3, 5); vc != 0 {
		t.Errorf("non-wrapping rim+ VC = %d, want 0", vc)
	}
	// After wrapping past node 0 the worm switches to VC1.
	if vc := RimPlusVC(14, 1); vc != 1 {
		t.Errorf("wrapped rim+ VC = %d, want 1", vc)
	}
	// Rim- journeys wrap in the other direction.
	if vc := RimMinusVC(3, 1); vc != 0 {
		t.Errorf("non-wrapping rim- VC = %d, want 0", vc)
	}
	if vc := RimMinusVC(1, 15); vc != 1 {
		t.Errorf("wrapped rim- VC = %d, want 1", vc)
	}
}

func TestQuarcBranchNodeRangeChecks(t *testing.T) {
	q := mustQuarc(t, 16)
	if _, err := q.BranchNode(0, PortL, 0); err == nil {
		t.Error("hop 0 accepted")
	}
	if _, err := q.BranchNode(0, PortL, 5); err == nil {
		t.Error("hop beyond quadrant accepted")
	}
	// CR hop 1 is a legal physical position (the opposite node) even though
	// it is not a CR receiver.
	if _, err := q.BranchNode(0, PortCR, 1); err != nil {
		t.Errorf("CR hop 1 rejected: %v", err)
	}
	if node, _ := q.BranchNode(0, PortCR, 1); node != 8 {
		t.Errorf("CR hop 1 from 0 = %v, want 8", node)
	}
}

func TestGraphValidateCatchesMissingPorts(t *testing.T) {
	g := NewGraph("broken", 2, 1)
	g.AddInjection(0, 0)
	g.AddEjection(0, 0)
	if err := g.Validate(); err == nil {
		t.Fatal("Validate accepted a graph with missing ports")
	}
}

func TestGraphDuplicateInjectionPanics(t *testing.T) {
	g := NewGraph("dup", 1, 1)
	g.AddInjection(0, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on duplicate injection channel")
		}
	}()
	g.AddInjection(0, 0)
}

func TestGraphDuplicateLinkPanics(t *testing.T) {
	g := NewGraph("dup", 2, 1)
	g.AddLink(0, 1, 0, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on duplicate link")
		}
	}()
	g.AddLink(0, 1, 0, 0)
}

// TestGraphLinkFromLookup pins the per-node link lists: on every family's
// graph, LinkFrom finds each link by its source, class and VC, and
// answers None for every (class, vc) pair a node has no link for.
func TestGraphLinkFromLookup(t *testing.T) {
	pair := NewGraph("lk", 2, 1)
	pair.AddLink(0, 1, 3, 1)
	check := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	one, err := NewQuarcOnePort(16)
	check(err)
	sg, err := NewSpidergon(16)
	check(err)
	mesh, err := NewMesh(4, 3)
	check(err)
	torus, err := NewTorus(4, 4)
	check(err)
	cube, err := NewHypercube(4)
	check(err)
	graphs := []*Graph{pair, mustQuarc(t, 16).Graph, one.Graph, sg.Graph, mesh.Graph, torus.Graph, cube.Graph}
	type key struct {
		src       NodeID
		class, vc int
	}
	for _, g := range graphs {
		links := map[key]ChannelID{}
		maxClass, maxVC := 0, 0
		for _, c := range g.Channels() {
			if c.Kind != Link {
				continue
			}
			links[key{c.Src, c.Class, c.VC}] = c.ID
			maxClass, maxVC = max(maxClass, c.Class), max(maxVC, c.VC)
			if got := g.LinkFrom(c.Src, c.Class, c.VC); got != c.ID {
				t.Fatalf("%s: LinkFrom(%d, %d, %d) = %d, want %v", g.Name(), c.Src, c.Class, c.VC, got, c)
			}
		}
		for node := NodeID(0); int(node) < g.Nodes(); node++ {
			for class := 0; class <= maxClass+1; class++ {
				for vc := 0; vc <= maxVC+1; vc++ {
					if _, ok := links[key{node, class, vc}]; !ok && g.LinkFrom(node, class, vc) != None {
						t.Fatalf("%s: LinkFrom(%d, %d, %d) = %d for an absent link", g.Name(), node, class, vc, g.LinkFrom(node, class, vc))
					}
				}
			}
		}
	}
}

func TestChannelStringForms(t *testing.T) {
	g := NewGraph("s", 2, 1)
	i := g.AddInjection(0, 0)
	e := g.AddEjection(1, 0)
	l := g.AddLink(0, 1, 2, 1)
	if s := g.Channel(i).String(); s != "inj(0,p0)" {
		t.Errorf("injection string = %q", s)
	}
	if s := g.Channel(e).String(); s != "ej(1,p0)" {
		t.Errorf("ejection string = %q", s)
	}
	if s := g.Channel(l).String(); s != "link(0->1,c2,vc1)" {
		t.Errorf("link string = %q", s)
	}
}

func TestQuarcPortNames(t *testing.T) {
	want := map[int]string{PortL: "L", PortCL: "LO", PortCR: "RO", PortR: "R", 9: "?"}
	for p, w := range want {
		if got := QuarcPortName(p); got != w {
			t.Errorf("QuarcPortName(%d) = %q, want %q", p, got, w)
		}
	}
}
