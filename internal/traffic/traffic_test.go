package traffic

import (
	"math"
	"slices"
	"testing"

	"quarc/internal/routing"
	"quarc/internal/topology"
)

func quarcRouter(t testing.TB, n int) *routing.QuarcRouter {
	t.Helper()
	q, err := topology.NewQuarc(n)
	if err != nil {
		t.Fatal(err)
	}
	return routing.NewQuarcRouter(q)
}

func TestSpecValidate(t *testing.T) {
	good := Spec{Rate: 0.01}
	if err := good.Validate(); err != nil {
		t.Errorf("valid spec rejected: %v", err)
	}
	bad := []Spec{
		{Rate: -1},
		{Rate: math.NaN()},
		{Rate: math.Inf(1)},
		{Rate: 0.01, MulticastFrac: -0.1},
		{Rate: 0.01, MulticastFrac: 1.5},
		{Rate: 0.01, MulticastFrac: 0.5}, // empty set
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("bad spec %d accepted: %+v", i, s)
		}
	}
}

func TestInterarrivalMeanMatchesRate(t *testing.T) {
	rt := quarcRouter(t, 16)
	rate := 0.02
	w, err := NewWorkload(rt, Spec{Rate: rate}, 1)
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	const n = 50000
	for i := 0; i < n; i++ {
		sum += w.Interarrival(3)
	}
	mean := sum / n
	if math.Abs(mean-1/rate)/(1/rate) > 0.03 {
		t.Fatalf("mean interarrival = %v, want ~%v", mean, 1/rate)
	}
}

func TestInterarrivalZeroRateDisabled(t *testing.T) {
	rt := quarcRouter(t, 16)
	w, err := NewWorkload(rt, Spec{Rate: 0}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(w.Interarrival(0), 1) {
		t.Fatal("zero rate must return +Inf interarrival")
	}
}

func TestNextMixesUnicastAndMulticast(t *testing.T) {
	rt := quarcRouter(t, 16)
	set, err := rt.LocalizedSet(topology.PortL, 2)
	if err != nil {
		t.Fatal(err)
	}
	alpha := 0.3
	w, err := NewWorkload(rt, Spec{Rate: 0.01, MulticastFrac: alpha, Set: set}, 5)
	if err != nil {
		t.Fatal(err)
	}
	const n = 20000
	multicasts := 0
	for i := 0; i < n; i++ {
		branches, isMulti := w.Next(2)
		if isMulti {
			multicasts++
			if len(branches) != 1 { // localized set: one active port
				t.Fatalf("multicast branches = %d, want 1", len(branches))
			}
			if len(branches[0].Targets) != 2 {
				t.Fatalf("multicast targets = %d, want 2", len(branches[0].Targets))
			}
		} else {
			if len(branches) != 1 || len(branches[0].Targets) != 1 {
				t.Fatalf("unicast shape wrong: %+v", branches)
			}
			if branches[0].Targets[0] == 2 {
				t.Fatal("unicast to self")
			}
		}
	}
	frac := float64(multicasts) / n
	if math.Abs(frac-alpha) > 0.02 {
		t.Fatalf("multicast fraction = %v, want ~%v", frac, alpha)
	}
}

func TestUnicastDestinationsUniform(t *testing.T) {
	rt := quarcRouter(t, 16)
	w, err := NewWorkload(rt, Spec{Rate: 0.01}, 11)
	if err != nil {
		t.Fatal(err)
	}
	counts := make(map[topology.NodeID]int)
	const n = 30000
	for i := 0; i < n; i++ {
		branches, _ := w.Next(0)
		counts[branches[0].Targets[0]]++
	}
	if len(counts) != 15 {
		t.Fatalf("destinations cover %d nodes, want 15", len(counts))
	}
	want := float64(n) / 15
	for dst, c := range counts {
		if math.Abs(float64(c)-want)/want > 0.15 {
			t.Errorf("destination %d drawn %d times, want ~%.0f", dst, c, want)
		}
	}
}

func TestWorkloadDeterministicPerSeed(t *testing.T) {
	rt := quarcRouter(t, 16)
	mk := func(seed uint64) []float64 {
		w, err := NewWorkload(rt, Spec{Rate: 0.01}, seed)
		if err != nil {
			t.Fatal(err)
		}
		var out []float64
		for i := 0; i < 50; i++ {
			out = append(out, w.Interarrival(4))
		}
		return out
	}
	a, b := mk(9), mk(9)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed produced different sequences")
		}
	}
	c := mk(10)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical sequences")
	}
}

func TestNodeStreamsIndependent(t *testing.T) {
	rt := quarcRouter(t, 16)
	w, err := NewWorkload(rt, Spec{Rate: 0.01}, 3)
	if err != nil {
		t.Fatal(err)
	}
	a := w.Interarrival(0)
	b := w.Interarrival(1)
	if a == b {
		t.Fatal("distinct node streams produced identical first draws")
	}
}

func TestMulticastBranchesCached(t *testing.T) {
	rt := quarcRouter(t, 16)
	set, err := rt.LocalizedSet(topology.PortR, 3)
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewWorkload(rt, Spec{Rate: 0.01, MulticastFrac: 1, Set: set}, 2)
	if err != nil {
		t.Fatal(err)
	}
	for node := topology.NodeID(0); node < 16; node++ {
		b := w.routes.Multicast(node)
		if len(b) != 1 || len(b[0].Targets) != 3 {
			t.Fatalf("cached branches wrong at node %d: %+v", node, b)
		}
	}
	// Without multicast the cache is nil.
	w2, err := NewWorkload(rt, Spec{Rate: 0.01}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if w2.routes.Multicast(0) != nil {
		t.Fatal("unicast-only workload has multicast branches")
	}
}

func TestNewWorkloadRejectsBadSet(t *testing.T) {
	rt := quarcRouter(t, 16)
	// A set with an out-of-range hop must be rejected at construction.
	bad := routing.NewMulticastSet(topology.QuarcPorts).Add(topology.PortL, 10)
	if _, err := NewWorkload(rt, Spec{Rate: 0.01, MulticastFrac: 0.1, Set: bad}, 1); err == nil {
		t.Fatal("invalid multicast set accepted")
	}
}

// TestWorkloadResetMatchesFresh pins the reuse property: a reset workload
// must draw exactly the same interarrival gaps and routes as a freshly
// built one, including across a destination-set change (which forces the
// branch cache to rebuild) and back.
func TestWorkloadResetMatchesFresh(t *testing.T) {
	rt := quarcRouter(t, 16)
	setA, err := rt.LocalizedSet(topology.PortL, 3)
	if err != nil {
		t.Fatal(err)
	}
	setB := rt.BroadcastSet()
	specs := []Spec{
		{Rate: 0.004, MulticastFrac: 0.1, Set: setA},
		{Rate: 0.002, MulticastFrac: 0.2, Set: setB},
		{Rate: 0.004, MulticastFrac: 0.1, Set: setA},
	}
	reused, err := NewWorkload(rt, specs[0], 1)
	if err != nil {
		t.Fatal(err)
	}
	for si, spec := range specs {
		seed := uint64(si + 7)
		fresh, err := NewWorkload(rt, spec, seed)
		if err != nil {
			t.Fatal(err)
		}
		if err := reused.Reset(spec, seed); err != nil {
			t.Fatal(err)
		}
		for node := topology.NodeID(0); node < 16; node++ {
			for i := 0; i < 200; i++ {
				if g, w := reused.Interarrival(node), fresh.Interarrival(node); g != w {
					t.Fatalf("spec %d node %d draw %d: gap %v != fresh %v", si, node, i, g, w)
				}
				gb, gm := reused.Next(node)
				wb, wm := fresh.Next(node)
				if gm != wm || len(gb) != len(wb) {
					t.Fatalf("spec %d node %d draw %d: branches (%d,%v) != fresh (%d,%v)",
						si, node, i, len(gb), gm, len(wb), wm)
				}
				for k := range gb {
					if gb[k].Port != wb[k].Port || len(gb[k].Path) != len(wb[k].Path) ||
						gb[k].Path[len(gb[k].Path)-1] != wb[k].Path[len(wb[k].Path)-1] {
						t.Fatalf("spec %d node %d draw %d branch %d: route diverged", si, node, i, k)
					}
				}
			}
		}
	}
}

// sameDraws draws n gaps and messages at every node of two workloads and
// fails at the first gap, multicast flag or route that differs.
func sameDraws(t *testing.T, label string, got, want *Workload, n int) {
	t.Helper()
	for node := topology.NodeID(0); int(node) < want.n; node++ {
		for i := 0; i < n; i++ {
			if g, w := got.Interarrival(node), want.Interarrival(node); g != w {
				t.Fatalf("%s node %d draw %d: gap %v != fresh %v", label, node, i, g, w)
			}
			gb, gm := got.Next(node)
			wb, wm := want.Next(node)
			if gm != wm || len(gb) != len(wb) {
				t.Fatalf("%s node %d draw %d: branches (%d,%v) != fresh (%d,%v)", label, node, i, len(gb), gm, len(wb), wm)
			}
			for k := range gb {
				if gb[k].Port != wb[k].Port || !slices.Equal(gb[k].Path, wb[k].Path) || !slices.Equal(gb[k].Targets, wb[k].Targets) {
					t.Fatalf("%s node %d draw %d branch %d: route diverged", label, node, i, k)
				}
			}
		}
	}
}

// TestWorkloadResetOnMatchesFresh pins the cross-graph reuse property:
// one workload rebound with ResetOn across Quarc, mesh and hypercube
// routers of 8 to 32 nodes — growing, shrinking, every arrival process,
// weighted, hotspot and permutation destinations — draws exactly the
// stream a fresh NewWorkload does; and a ResetOn that fails leaves the
// workload drawing on as before.
func TestWorkloadResetOnMatchesFresh(t *testing.T) {
	q16, q32, q8 := quarcRouter(t, 16), quarcRouter(t, 32), quarcRouter(t, 8)
	m, err := topology.NewMesh(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	mesh := routing.NewMeshRouter(m)
	h, err := topology.NewHypercube(3)
	if err != nil {
		t.Fatal(err)
	}
	cube := routing.NewHypercubeRouter(h)
	set16, err := q16.LocalizedSet(topology.PortL, 3)
	if err != nil {
		t.Fatal(err)
	}
	weights := func(n int) [][]float64 {
		w := make([][]float64, n)
		for src := range w {
			w[src] = make([]float64, n)
			for dst := range w[src] {
				w[src][dst] = float64(1 + (src*7+dst*3)%5)
			}
		}
		return w
	}
	shift := make([]topology.NodeID, 8)
	for i := range shift {
		shift[i] = topology.NodeID((i + 3) % 8)
	}
	outside := slices.Clone(shift)
	outside[2] = 20
	steps := []struct {
		name string
		rt   routing.Router
		spec Spec
	}{
		{"quarc-16 poisson", q16, Spec{Rate: 0.004, MulticastFrac: 0.1, Set: set16}},
		{"mesh-4x4 weighted bernoulli", mesh, Spec{Rate: 0.004, Weights: weights(16), Arrival: "bernoulli"}},
		{"quarc-32 hotspot onoff", q32, Spec{Rate: 0.003, Weights: hotspotWeights(32, 31, 0.3), Arrival: "onoff", BurstLen: 4, DutyCycle: 0.5}},
		{"quarc-8 permutation periodic", q8, Spec{Rate: 0.01, Perm: shift, Arrival: "periodic"}},
		{"hypercube-8 weighted", cube, Spec{Rate: 0.002, Weights: weights(8)}},
		{"quarc-16 broadcast", q16, Spec{Rate: 0.004, MulticastFrac: 0.2, Set: q16.BroadcastSet()}},
	}
	var reused *Workload
	for i, st := range steps {
		seed := uint64(i + 3)
		fresh, err := NewWorkload(st.rt, st.spec, seed)
		if err != nil {
			t.Fatalf("%s: %v", st.name, err)
		}
		if reused == nil {
			reused, err = NewWorkload(st.rt, st.spec, seed)
		} else {
			err = reused.ResetOn(st.rt, st.spec, seed)
		}
		if err != nil {
			t.Fatalf("%s: %v", st.name, err)
		}
		sameDraws(t, st.name, reused, fresh, 50)
		// A spec this router rejects fails without touching the workload.
		if err := reused.ResetOn(q8, Spec{Rate: 0.001, Perm: outside}, 1); err == nil {
			t.Fatalf("%s: ResetOn accepted a permutation to node 20 on an 8-node network", st.name)
		}
		sameDraws(t, st.name+" after a failed ResetOn", reused, fresh, 50)
	}
}

// TestWorkloadResetRebuildsStaleBranchCache covers the cache-invalidation
// corner: a zero-MulticastFrac reset carries a new set in its spec without
// rebuilding the branch cache, so a later multicast reset with that same
// set must not trust the stale cache built for the original one.
func TestWorkloadResetRebuildsStaleBranchCache(t *testing.T) {
	rt := quarcRouter(t, 16)
	setA, err := rt.LocalizedSet(topology.PortL, 3)
	if err != nil {
		t.Fatal(err)
	}
	setB := rt.BroadcastSet()
	w, err := NewWorkload(rt, Spec{Rate: 0.001, MulticastFrac: 0.1, Set: setA}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Reset(Spec{Rate: 0.001, MulticastFrac: 0, Set: setB}, 2); err != nil {
		t.Fatal(err)
	}
	if err := w.Reset(Spec{Rate: 0.001, MulticastFrac: 0.1, Set: setB}, 3); err != nil {
		t.Fatal(err)
	}
	fresh, err := NewWorkload(rt, Spec{Rate: 0.001, MulticastFrac: 0.1, Set: setB}, 3)
	if err != nil {
		t.Fatal(err)
	}
	got, want := w.routes.Multicast(0), fresh.routes.Multicast(0)
	if len(got) != len(want) {
		t.Fatalf("stale branch cache survived the set change: %d branches, fresh has %d",
			len(got), len(want))
	}
}

// TestWorkloadRejectsOutOfRangePerm pins the fail-fast behavior the
// unicast route cache must preserve: a permutation destination outside
// the network is an error on every construction path, never a silently
// aliased route.
func TestWorkloadRejectsOutOfRangePerm(t *testing.T) {
	rt := quarcRouter(t, 16)
	perm := make([]topology.NodeID, 16)
	for i := range perm {
		perm[i] = topology.NodeID(15 - i)
	}
	bad := slices.Clone(perm)
	bad[4] = 20
	if _, err := NewWorkload(rt, Spec{Rate: 0.001, Perm: bad}, 1); err == nil {
		t.Fatal("NewWorkload accepted a permutation to node 20 on a 16-node network")
	}
	ok, err := NewWorkload(rt, Spec{Rate: 0.001}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := ok.Reset(Spec{Rate: 0.001, Perm: bad}, 2); err == nil {
		t.Fatal("Reset accepted a permutation to node 20 on a 16-node network")
	}
	if err := ok.ResetOn(rt, Spec{Rate: 0.001, Perm: bad}, 2); err == nil {
		t.Fatal("ResetOn accepted a permutation to node 20 on a 16-node network")
	}
	if err := ok.Reset(Spec{Rate: 0.001, Perm: perm}, 2); err != nil {
		t.Fatalf("Reset rejected a valid permutation: %v", err)
	}
}
