package routing

import (
	"fmt"
	"math/rand/v2"
	"reflect"
	"strings"
	"testing"

	"quarc/internal/topology"
)

// tableCase is one real router with the multicast sets its patterns build.
type tableCase struct {
	name string
	rt   Router
	sets []MulticastSet
}

func tableCases(t *testing.T) []tableCase {
	t.Helper()
	must := func(set MulticastSet, err error) MulticastSet {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return set
	}
	var cases []tableCase
	for _, n := range []int{8, 16, 32} {
		rt := mustRouter(t, n)
		cases = append(cases, tableCase{name: fmt.Sprintf("quarc-%d", n), rt: rt, sets: []MulticastSet{
			must(rt.LocalizedSet(topology.PortL, n/8)),
			must(rt.LocalizedSet(topology.PortCR, n/8)),
			must(rt.RandomSet(rand.New(rand.NewPCG(1, 2)), n/2)),
			rt.BroadcastSet(),
		}})
	}
	q1, err := topology.NewQuarcOnePort(16)
	if err != nil {
		t.Fatal(err)
	}
	one := NewQuarcRouter(q1)
	cases = append(cases, tableCase{name: "quarc-oneport-16", rt: one, sets: []MulticastSet{
		must(one.LocalizedSet(topology.PortR, 3)), one.BroadcastSet(),
	}})
	sg, err := topology.NewSpidergon(16)
	if err != nil {
		t.Fatal(err)
	}
	spider := NewSpidergonRouter(sg)
	cases = append(cases, tableCase{name: "spidergon-16", rt: spider, sets: []MulticastSet{
		must(spider.LocalizedSet(4)), must(spider.RandomSet(rand.New(rand.NewPCG(3, 4)), 5)), spider.BroadcastSet(),
	}})
	for _, m := range []struct {
		name  string
		w, h  int
		torus bool
	}{{"mesh-3x3", 3, 3, false}, {"mesh-4x2", 4, 2, false}, {"torus-4x4", 4, 4, true}} {
		build := topology.NewMesh
		if m.torus {
			build = topology.NewTorus
		}
		g, err := build(m.w, m.h)
		if err != nil {
			t.Fatal(err)
		}
		rt := NewMeshRouter(g)
		cases = append(cases, tableCase{name: m.name, rt: rt, sets: []MulticastSet{
			must(rt.HighLowSet([]int{1, 3}, []int{2})), must(rt.HighLowSet([]int{1, 40}, nil)),
		}})
	}
	hc, err := topology.NewHypercube(4)
	if err != nil {
		t.Fatal(err)
	}
	cases = append(cases, tableCase{name: "hypercube-4", rt: NewHypercubeRouter(hc), sets: []MulticastSet{
		NewMulticastSet(1).Add(0, 1).Add(0, 6), NewMulticastSet(1).Add(0, 15),
	}})
	return cases
}

// sameAnswer fails unless both calls returned deep-equal values and the
// same error (or both none).
func sameAnswer(t *testing.T, what string, got, want any, gerr, werr error) {
	t.Helper()
	if (gerr == nil) != (werr == nil) || (gerr != nil && gerr.Error() != werr.Error()) {
		t.Fatalf("%s: table error %v, router error %v", what, gerr, werr)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: table %v, router %v", what, got, want)
	}
}

// capped fails unless every path and target list of the branches has no
// spare capacity, so an append by a caller cannot reach a neighbour.
func capped(t *testing.T, what string, branches []Branch) {
	t.Helper()
	if cap(branches) != len(branches) {
		t.Fatalf("%s: branch slice cap %d > len %d", what, cap(branches), len(branches))
	}
	for _, b := range branches {
		if cap(b.Path) != len(b.Path) || cap(b.Targets) != len(b.Targets) {
			t.Fatalf("%s: path cap %d len %d, targets cap %d len %d",
				what, cap(b.Path), len(b.Path), cap(b.Targets), len(b.Targets))
		}
	}
}

// TestTableMatchesRouter pins Table to its base router on every built-in
// router family: each answer deep-equals the router's (errors included),
// each multicast set of the family's patterns is held, a second set
// shares the unicast half, stored storage is capped, and every stored
// path is well formed (injection at the source, consecutive links,
// ejection at the final target).
func TestTableMatchesRouter(t *testing.T) {
	for _, c := range tableCases(t) {
		t.Run(c.name, func(t *testing.T) {
			g := c.rt.Graph()
			n := g.Nodes()
			tab, err := NewTable(c.rt, MulticastSet{})
			if err != nil {
				t.Fatal(err)
			}
			if tab.Graph() != g {
				t.Fatal("table graph differs from the router's")
			}
			for src := topology.NodeID(0); int(src) < n; src++ {
				for dst := topology.NodeID(0); int(dst) < n; dst++ {
					gp, gerr := tab.AppendUnicastPath(nil, src, dst)
					wp, werr := c.rt.AppendUnicastPath(nil, src, dst)
					sameAnswer(t, "UnicastPath", gp, wp, gerr, werr)
					gport, gerr := tab.UnicastPort(src, dst)
					wport, werr := c.rt.UnicastPort(src, dst)
					sameAnswer(t, "UnicastPort", gport, wport, gerr, werr)
					if src == dst {
						if gerr == nil {
							t.Fatalf("self pair %d answered without error", src)
						}
						continue
					}
					uni := tab.Unicast(src, dst)
					want := []Branch{{Port: wport, Path: wp, Targets: []topology.NodeID{dst}}}
					sameAnswer(t, "Unicast", uni, want, nil, nil)
					capped(t, "Unicast", uni)
					pathIsWellFormed(t, g, src, dst, uni[0].Path)
				}
			}
			if tab.Multicast(0) != nil {
				t.Fatal("a table without a set holds multicast branches")
			}
			accepted := 0
			prev := tab
			for i, set := range c.sets {
				st, err := NewTable(tab, set)
				if err != nil {
					t.Fatal(err)
				}
				if &st.uni[1] != &tab.uni[1] {
					t.Fatalf("set %d: the table re-enumerated its unicast routes", i)
				}
				if again, _ := NewTable(st, set); again != st {
					t.Fatalf("set %d: an equal set built a new table", i)
				}
				if again, _ := NewTable(st, MulticastSet{}); again != st {
					t.Fatalf("set %d: an empty set built a new table", i)
				}
				// A set the router rejects at any source (a mesh offset
				// clipped at a path end) leaves the table without branches.
				rejected := false
				for src := topology.NodeID(0); int(src) < n; src++ {
					if _, err := MulticastBranches(c.rt, src, set); err != nil {
						rejected = true
					}
				}
				for src := topology.NodeID(0); int(src) < n; src++ {
					got, gerr := st.MulticastBranches(src, set)
					want, werr := MulticastBranches(c.rt, src, set)
					sameAnswer(t, "MulticastBranches", got, want, gerr, werr)
					other, oerr := prev.MulticastBranches(src, set) // a table for another set
					sameAnswer(t, "MulticastBranches of another set", other, want, oerr, werr)
					if rejected {
						if st.Multicast(src) != nil {
							t.Fatalf("set %d: a rejected set left branches at %d", i, src)
						}
						continue
					}
					accepted++
					sameAnswer(t, "Multicast", st.Multicast(src), want, nil, nil)
					capped(t, "Multicast", got)
					for _, b := range got {
						pathIsWellFormed(t, g, src, b.Targets[len(b.Targets)-1], b.Path)
					}
				}
				prev = st
			}
			if accepted == 0 {
				t.Fatal("no set was accepted: the multicast half went unchecked")
			}
		})
	}
}

// TestTableFallsThroughOnRejectedSet pins the lenient build: a set the
// base router rejects leaves the table without branches, and asking for
// them returns the router's own error.
func TestTableFallsThroughOnRejectedSet(t *testing.T) {
	rt := mustRouter(t, 16)
	bad := NewMulticastSet(topology.QuarcPorts).Add(topology.PortL, 10)
	tab, err := NewTable(rt, bad)
	if err != nil {
		t.Fatalf("a rejected set failed the table: %v", err)
	}
	if tab.Multicast(3) != nil {
		t.Fatal("a rejected set left branches in the table")
	}
	_, gerr := tab.MulticastBranches(3, bad)
	_, werr := MulticastBranches(rt, 3, bad)
	if gerr == nil || werr == nil || gerr.Error() != werr.Error() {
		t.Fatalf("table error %v, router error %v", gerr, werr)
	}
	if again, _ := NewTable(tab, bad); again != tab {
		t.Fatal("the same rejected set built a new table")
	}
}

// TestNewTableAllocs pins the arena build: NewTable allocates the same
// small number of times at two sizes of every router family, with and
// without a multicast set of the same shape, so no allocation is made
// per route, per branch or per source.
func TestNewTableAllocs(t *testing.T) {
	quarc := func(n int) (Router, MulticastSet) {
		rt := mustRouter(t, n)
		set, err := rt.LocalizedSet(topology.PortCR, 3)
		if err != nil {
			t.Fatal(err)
		}
		return rt, set
	}
	spidergon := func(n int) (Router, MulticastSet) {
		s, err := topology.NewSpidergon(n)
		if err != nil {
			t.Fatal(err)
		}
		return NewSpidergonRouter(s), NewMulticastSet(1).Add(0, 1).Add(0, 2).Add(0, 4)
	}
	mesh := func(build func(w, h int) (*topology.Mesh, error)) func(int) (Router, MulticastSet) {
		return func(w int) (Router, MulticastSet) {
			m, err := build(w, w)
			if err != nil {
				t.Fatal(err)
			}
			rt := NewMeshRouter(m)
			set, err := rt.HighLowSet([]int{1, 3}, []int{2})
			if err != nil {
				t.Fatal(err)
			}
			return rt, set
		}
	}
	hypercube := func(dims int) (Router, MulticastSet) {
		h, err := topology.NewHypercube(dims)
		if err != nil {
			t.Fatal(err)
		}
		return NewHypercubeRouter(h), NewMulticastSet(1).Add(0, 1).Add(0, 6)
	}
	for _, c := range []struct {
		name         string
		build        func(int) (Router, MulticastSet)
		small, large int
	}{
		{"quarc", quarc, 16, 64},
		{"spidergon", spidergon, 16, 64},
		{"mesh", mesh(topology.NewMesh), 4, 8},
		{"torus", mesh(topology.NewTorus), 4, 8},
		{"hypercube", hypercube, 4, 6},
	} {
		t.Run(c.name, func(t *testing.T) {
			for _, multicast := range []bool{false, true} {
				var allocs [2]float64
				for i, size := range []int{c.small, c.large} {
					rt, set := c.build(size)
					if !multicast {
						set = MulticastSet{}
					}
					allocs[i] = testing.AllocsPerRun(20, func() {
						tab, err := NewTable(rt, set)
						if err != nil || (multicast && tab.Multicast(1) == nil) {
							t.Fatalf("NewTable: %v (multicast half built: %v)", err, tab != nil && tab.Multicast(1) != nil)
						}
					})
				}
				if allocs[0] != allocs[1] || allocs[0] > 24 {
					t.Errorf("multicast=%v: NewTable allocates %v times at size %d and %v at %d, want one small constant",
						multicast, allocs[0], c.small, allocs[1], c.large)
				}
			}
		})
	}
}

// TestMissingLinkIsAnError pins the one missing-link rule: over a graph
// stripped of its links, every family's unicast and multicast builders
// fail instead of writing topology.None into a path.
func TestMissingLinkIsAnError(t *testing.T) {
	bare := func(g *topology.Graph) *topology.Graph {
		b := topology.NewGraph(g.Name(), g.Nodes(), g.Ports())
		for node := topology.NodeID(0); int(node) < g.Nodes(); node++ {
			for p := 0; p < g.Ports(); p++ {
				b.AddInjection(node, p)
				b.AddEjection(node, p)
			}
		}
		return b
	}
	q, err := topology.NewQuarc(16)
	if err != nil {
		t.Fatal(err)
	}
	sg, err := topology.NewSpidergon(16)
	if err != nil {
		t.Fatal(err)
	}
	m, err := topology.NewMesh(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	h, err := topology.NewHypercube(4)
	if err != nil {
		t.Fatal(err)
	}
	q.Graph, sg.Graph, m.Graph, h.Graph = bare(q.Graph), bare(sg.Graph), bare(m.Graph), bare(h.Graph)
	for _, c := range []struct {
		rt  Router
		set MulticastSet
	}{
		{NewQuarcRouter(q), NewMulticastSet(topology.QuarcPorts).Add(topology.PortCL, 2)},
		{NewSpidergonRouter(sg), NewMulticastSet(1).Add(0, 1)},
		{NewMeshRouter(m), NewMulticastSet(topology.MeshPorts).Add(0, 1)},
		{NewHypercubeRouter(h), NewMulticastSet(1).Add(0, 1)},
	} {
		name := c.rt.Graph().Name()
		if p, err := c.rt.AppendUnicastPath(nil, 0, 1); err == nil || !strings.Contains(err.Error(), "missing link") {
			t.Errorf("%s: unicast over missing links returned %v, %v", name, p, err)
		}
		if bs, err := MulticastBranches(c.rt, 0, c.set); err == nil || !strings.Contains(err.Error(), "missing link") {
			t.Errorf("%s: multicast over missing links returned %v, %v", name, bs, err)
		}
	}
}

// BenchmarkNewTable measures a quarc table's unicast build, the n² routes
// every scenario enumerates once.
func BenchmarkNewTable(b *testing.B) {
	for _, n := range []int{64, 512} {
		q, err := topology.NewQuarc(n)
		if err != nil {
			b.Fatal(err)
		}
		rt := NewQuarcRouter(q)
		b.Run(fmt.Sprintf("quarc-%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := NewTable(rt, MulticastSet{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
