package routing

import (
	"fmt"
	"math/rand/v2"
	"reflect"
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
					gp, gerr := tab.UnicastPath(src, dst)
					wp, werr := c.rt.UnicastPath(src, dst)
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
					if _, err := c.rt.MulticastBranches(src, set); err != nil {
						rejected = true
					}
				}
				for src := topology.NodeID(0); int(src) < n; src++ {
					got, gerr := st.MulticastBranches(src, set)
					want, werr := c.rt.MulticastBranches(src, set)
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
	_, werr := rt.MulticastBranches(3, bad)
	if gerr == nil || werr == nil || gerr.Error() != werr.Error() {
		t.Fatalf("table error %v, router error %v", gerr, werr)
	}
	if again, _ := NewTable(tab, bad); again != tab {
		t.Fatal("the same rejected set built a new table")
	}
}
