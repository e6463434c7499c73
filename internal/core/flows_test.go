package core

import (
	"math/rand/v2"
	"runtime"
	"strings"
	"testing"

	"quarc/internal/routing"
	"quarc/internal/topology"
	"quarc/internal/traffic"
)

// Every flow's path is the route table's own storage, not a copy: a
// model built over a table holds that table's spans, unicast pairs in
// (src, dst) order and multicast branches source by source.
func TestModelSharesTableRoutes(t *testing.T) {
	for _, tp := range batteryTopos() {
		tb := must(routing.NewTable(tp.rt, tp.set))
		n := tb.Graph().Nodes()
		for pattern, spec := range batterySpatial(n) {
			spec.MulticastFrac, spec.Set = 0.05, tp.set
			m := must(NewModel(Input{Router: tb, Spec: spec, MsgLen: 16}))
			shares := func(f flow, want routing.Path) bool {
				return len(f.path) == len(want) && &f.path[0] == &want[0]
			}
			k := 0
			probs := make([]float64, n)
			for src := topology.NodeID(0); int(src) < n; src++ {
				spec.UnicastProbRow(n, src, probs)
				for dst, p := range probs {
					if p == 0 {
						continue
					}
					if k >= len(m.unicast) || !shares(m.unicast[k], tb.Unicast(src, topology.NodeID(dst))[0].Path) {
						t.Fatalf("%s/%s: unicast flow %d (%d->%d) is not the table's route", tp.name, pattern, k, src, dst)
					}
					k++
				}
				got, want := m.mcast[m.mcastOf[src]:m.mcastOf[src+1]], tb.Multicast(src)
				if spec.Silent(src) {
					want = nil
				}
				if len(got) != len(want) {
					t.Fatalf("%s/%s: source %d has %d multicast flows, %d table branches", tp.name, pattern, src, len(got), len(want))
				}
				for i, b := range want {
					if !shares(got[i], b.Path) {
						t.Fatalf("%s/%s: multicast branch %d of source %d is not the table's", tp.name, pattern, i, src)
					}
				}
			}
			if k != len(m.unicast) {
				t.Fatalf("%s/%s: %d unicast flows, %d pairs with traffic", tp.name, pattern, len(m.unicast), k)
			}
		}
	}
}

// Building quarc-64's model allocates less than enumerating its unicast
// routes did: a flow holds the table's path, and the model adds one turn
// byte per hop. A private copy of the routes at even 4 B per hop fails;
// the 8-byte hops the model copied before came to about 1.5 times the
// table.
func TestNewModelBytes(t *testing.T) {
	rt := quarcRouter(t, 64)
	set := must(rt.RandomSet(rand.New(rand.NewPCG(63, 0x5e7)), 8))
	allocated := func(f func()) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	var uni *routing.Table
	table := allocated(func() { uni = must(routing.NewTable(rt, routing.MulticastSet{})) })
	// The multicast half is the table's storage too: enumerate it first.
	tb := must(routing.NewTable(uni, set))
	in := Input{Router: tb, Spec: traffic.Spec{MulticastFrac: 0.05, Set: set}, MsgLen: 32}
	model := allocated(func() { must(NewModel(in)) })
	if model >= table {
		t.Errorf("building the model allocates %d B, enumerating the unicast routes %d B: the model copies routes", model, table)
	}
}

// starRouter routes a star: node 0 links to every other node and back,
// so node 0's injection channel turns into n-1 links.
type starRouter struct{ g *topology.Graph }

func starNetwork(t *testing.T, n int) starRouter {
	t.Helper()
	g := topology.NewGraph("star", n, 1)
	for v := topology.NodeID(0); int(v) < n; v++ {
		g.AddInjection(v, 0)
		g.AddEjection(v, 0)
		if v > 0 {
			g.AddLink(0, v, int(v), 0)
			g.AddLink(v, 0, 0, 0)
		}
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	return starRouter{g}
}

func (r starRouter) Graph() *topology.Graph { return r.g }

func (r starRouter) AppendUnicastPath(buf routing.Path, src, dst topology.NodeID) (routing.Path, error) {
	buf = append(buf, r.g.Injection(src, 0))
	if src != 0 {
		buf = append(buf, r.g.LinkFrom(src, 0, 0))
	}
	if dst != 0 {
		buf = append(buf, r.g.LinkFrom(0, int(dst), 0))
	}
	return append(buf, r.g.Ejection(dst, 0)), nil
}

func (starRouter) UnicastPort(src, dst topology.NodeID) (int, error) { return 0, nil }

func (starRouter) AppendMulticastBranches(*routing.Arena, topology.NodeID, routing.MulticastSet) error {
	return nil
}

// A turn rank is one byte, with 0xff reserved for noTurn: a channel may
// turn into at most 254 others, and one more is a build error.
func TestTurnRankLimit(t *testing.T) {
	if _, err := NewModel(Input{Router: starNetwork(t, 255), MsgLen: 16}); err != nil {
		t.Errorf("254 turns out of one channel: %v", err)
	}
	_, err := NewModel(Input{Router: starNetwork(t, 256), MsgLen: 16})
	if err == nil || !strings.HasPrefix(err.Error(), "core: routes turn from channel ") ||
		!strings.HasSuffix(err.Error(), " into more than 254 channels") {
		t.Errorf("255 turns out of one channel: error %v", err)
	}
}
