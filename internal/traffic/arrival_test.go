package traffic

import (
	"math"
	"slices"
	"testing"

	"quarc/internal/topology"
)

// TestArrivalRegistryNames pins the built-in registry contents.
func TestArrivalRegistryNames(t *testing.T) {
	got := Arrivals()
	for _, want := range []string{"bernoulli", "onoff", "periodic", "poisson"} {
		if !slices.Contains(got, want) {
			t.Errorf("built-in arrival %q missing from registry %v", want, got)
		}
	}
}

// TestArrivalSpecValidation is the table-driven fail-fast check of the
// arrival parameters: NaN/Inf and out-of-range burst lengths and duty
// cycles must be rejected at Validate time, exactly like bad rates.
func TestArrivalSpecValidation(t *testing.T) {
	cases := []struct {
		name string
		spec Spec
		ok   bool
	}{
		{"default poisson", Spec{Rate: 0.01}, true},
		{"explicit poisson", Spec{Rate: 0.01, Arrival: "poisson"}, true},
		{"unknown process", Spec{Rate: 0.01, Arrival: "fractal"}, false},
		{"bernoulli", Spec{Rate: 0.3, Arrival: "bernoulli"}, true},
		{"bernoulli rate 1", Spec{Rate: 1, Arrival: "bernoulli"}, true},
		{"bernoulli rate > 1", Spec{Rate: 1.5, Arrival: "bernoulli"}, false},
		{"periodic", Spec{Rate: 0.01, Arrival: "periodic"}, true},
		{"onoff", Spec{Rate: 0.01, Arrival: "onoff", BurstLen: 8, DutyCycle: 0.25}, true},
		{"onoff duty 1", Spec{Rate: 0.01, Arrival: "onoff", BurstLen: 1, DutyCycle: 1}, true},
		{"onoff zero burst", Spec{Rate: 0.01, Arrival: "onoff", BurstLen: 0, DutyCycle: 0.5}, false},
		{"onoff burst < 1", Spec{Rate: 0.01, Arrival: "onoff", BurstLen: 0.5, DutyCycle: 0.5}, false},
		{"onoff NaN burst", Spec{Rate: 0.01, Arrival: "onoff", BurstLen: math.NaN(), DutyCycle: 0.5}, false},
		{"onoff Inf burst", Spec{Rate: 0.01, Arrival: "onoff", BurstLen: math.Inf(1), DutyCycle: 0.5}, false},
		{"onoff zero duty", Spec{Rate: 0.01, Arrival: "onoff", BurstLen: 8, DutyCycle: 0}, false},
		{"onoff negative duty", Spec{Rate: 0.01, Arrival: "onoff", BurstLen: 8, DutyCycle: -0.2}, false},
		{"onoff duty > 1", Spec{Rate: 0.01, Arrival: "onoff", BurstLen: 8, DutyCycle: 1.2}, false},
		{"onoff NaN duty", Spec{Rate: 0.01, Arrival: "onoff", BurstLen: 8, DutyCycle: math.NaN()}, false},
	}
	for _, c := range cases {
		err := c.spec.Validate()
		if c.ok && err != nil {
			t.Errorf("%s: valid spec rejected: %v", c.name, err)
		}
		if !c.ok && err == nil {
			t.Errorf("%s: bad spec accepted: %+v", c.name, c.spec)
		}
	}
}

// TestArrivalLongRunRate checks every built-in process against its
// contract: the long-run injection rate equals Spec.Rate regardless of
// how the load clumps.
func TestArrivalLongRunRate(t *testing.T) {
	rt := quarcRouter(t, 16)
	const rate = 0.05
	specs := []Spec{
		{Rate: rate, Arrival: "poisson"},
		{Rate: rate, Arrival: "bernoulli"},
		{Rate: rate, Arrival: "onoff", BurstLen: 8, DutyCycle: 0.25},
		{Rate: rate, Arrival: "periodic"},
	}
	for _, spec := range specs {
		w, err := NewWorkload(rt, spec, 11)
		if err != nil {
			t.Fatalf("%s: %v", spec.Arrival, err)
		}
		const n = 200000
		var sum float64
		for i := 0; i < n; i++ {
			sum += w.Interarrival(3)
		}
		mean := sum / n
		if math.Abs(mean-1/rate)/(1/rate) > 0.05 {
			t.Errorf("%s: mean interarrival %v, want ~%v", spec.Arrival, mean, 1/rate)
		}
	}
}

// TestBernoulliGapsDiscrete pins the cycle-grid property: bernoulli gaps
// are positive integers.
func TestBernoulliGapsDiscrete(t *testing.T) {
	rt := quarcRouter(t, 16)
	w, err := NewWorkload(rt, Spec{Rate: 0.3, Arrival: "bernoulli"}, 5)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5000; i++ {
		g := w.Interarrival(0)
		if g < 1 || g != math.Trunc(g) {
			t.Fatalf("bernoulli gap %v is not a positive integer", g)
		}
	}
}

// TestPeriodicGapsDeterministic pins the periodic contract: after the
// random phase, gaps are exactly 1/Rate.
func TestPeriodicGapsDeterministic(t *testing.T) {
	rt := quarcRouter(t, 16)
	const rate = 0.01
	w, err := NewWorkload(rt, Spec{Rate: rate, Arrival: "periodic"}, 5)
	if err != nil {
		t.Fatal(err)
	}
	phase := w.Interarrival(0)
	if phase < 0 || phase >= 1/rate {
		t.Fatalf("periodic phase %v outside [0, %v)", phase, 1/rate)
	}
	for i := 0; i < 100; i++ {
		if g := w.Interarrival(0); g != 1/rate {
			t.Fatalf("periodic gap %v != period %v", g, 1/rate)
		}
	}
	// Distinct nodes get distinct phases.
	if w.Interarrival(1) == phase {
		t.Fatal("two nodes drew the same periodic phase")
	}
}

// TestOnOffBurstsClump checks the qualitative burst structure: with a
// small duty cycle the gap distribution is bimodal — many short
// intra-burst gaps well under the mean, a few long off-gaps well over it.
func TestOnOffBurstsClump(t *testing.T) {
	rt := quarcRouter(t, 16)
	const rate = 0.01
	w, err := NewWorkload(rt, Spec{Rate: rate, Arrival: "onoff", BurstLen: 16, DutyCycle: 0.1}, 3)
	if err != nil {
		t.Fatal(err)
	}
	mean := 1 / rate
	short, long := 0, 0
	const n = 50000
	for i := 0; i < n; i++ {
		switch g := w.Interarrival(2); {
		case g < mean/2:
			short++
		case g > 2*mean:
			long++
		}
	}
	if frac := float64(short) / n; frac < 0.8 {
		t.Errorf("intra-burst gaps: %.2f of draws are short, want > 0.8 (duty 0.1)", frac)
	}
	if long == 0 {
		t.Error("no long off-gaps drawn in 50000 draws")
	}
}

// TestArrivalResetMatchesFresh extends the reset-reproducibility pin to
// the stateful arrival processes: a Reset must zero the per-node burst
// and phase state so the reset workload draws exactly what a fresh one
// does.
func TestArrivalResetMatchesFresh(t *testing.T) {
	rt := quarcRouter(t, 16)
	specs := []Spec{
		{Rate: 0.01, Arrival: "onoff", BurstLen: 4, DutyCycle: 0.5},
		{Rate: 0.02, Arrival: "periodic"},
		{Rate: 0.3, Arrival: "bernoulli"},
		{Rate: 0.01}, // back to default poisson
	}
	reused, err := NewWorkload(rt, specs[0], 1)
	if err != nil {
		t.Fatal(err)
	}
	// Burn state so Reset has something to clear.
	for i := 0; i < 100; i++ {
		reused.Interarrival(0)
	}
	for si, spec := range specs {
		seed := uint64(si + 3)
		fresh, err := NewWorkload(rt, spec, seed)
		if err != nil {
			t.Fatal(err)
		}
		if err := reused.Reset(spec, seed); err != nil {
			t.Fatal(err)
		}
		for node := topology.NodeID(0); node < 16; node++ {
			for i := 0; i < 300; i++ {
				if g, want := reused.Interarrival(node), fresh.Interarrival(node); g != want {
					t.Fatalf("%s node %d draw %d: reset gap %v != fresh %v", spec.Arrival, node, i, g, want)
				}
			}
		}
	}
}

// TestArrivalAndDestAllocFree is the hot-path guard of the workload
// subsystem: for every arrival process and every destination selector the
// steady-state Interarrival+Next loop must not allocate.
func TestArrivalAndDestAllocFree(t *testing.T) {
	rt := quarcRouter(t, 16)
	perm := make([]topology.NodeID, 16)
	for i := range perm {
		perm[i] = topology.NodeID((i + 5) % 16)
	}
	weights := make([][]float64, 16)
	for i := range weights {
		weights[i] = make([]float64, 16)
		for j := range weights[i] {
			if j != i {
				weights[i][j] = float64(j + 1)
			}
		}
	}
	set, err := quarcRouter(t, 16).LocalizedSet(topology.PortL, 3)
	if err != nil {
		t.Fatal(err)
	}
	specs := map[string]Spec{
		"poisson/uniform":    {Rate: 0.01},
		"bernoulli/uniform":  {Rate: 0.3, Arrival: "bernoulli"},
		"onoff/uniform":      {Rate: 0.01, Arrival: "onoff", BurstLen: 8, DutyCycle: 0.25},
		"periodic/uniform":   {Rate: 0.01, Arrival: "periodic"},
		"poisson/perm":       {Rate: 0.01, Perm: perm},
		"onoff/perm":         {Rate: 0.01, Arrival: "onoff", BurstLen: 8, DutyCycle: 0.25, Perm: perm},
		"poisson/weights":    {Rate: 0.01, Weights: weights},
		"bernoulli/weights":  {Rate: 0.3, Arrival: "bernoulli", Weights: weights},
		"poisson/multicast":  {Rate: 0.01, MulticastFrac: 0.3, Set: set},
		"periodic/multicast": {Rate: 0.01, Arrival: "periodic", MulticastFrac: 0.3, Set: set},
	}
	for name, spec := range specs {
		w, err := NewWorkload(rt, spec, 7)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		node := topology.NodeID(2)
		allocs := testing.AllocsPerRun(2000, func() {
			w.Interarrival(node)
			w.Next(node)
		})
		if allocs != 0 {
			t.Errorf("%s: %v allocs per Interarrival+Next, want 0", name, allocs)
		}
	}
}

// TestPermDestinations pins the permutation selector: every unicast from
// src goes to Perm[src], and self-mapped nodes fall silent.
func TestPermDestinations(t *testing.T) {
	rt := quarcRouter(t, 16)
	perm := make([]topology.NodeID, 16)
	for i := range perm {
		perm[i] = topology.NodeID(15 - i)
	}
	perm[7] = 7 // self-map: node 7 must fall silent
	w, err := NewWorkload(rt, Spec{Rate: 0.01, Perm: perm}, 3)
	if err != nil {
		t.Fatal(err)
	}
	for src := topology.NodeID(0); src < 16; src++ {
		if src == 7 {
			continue
		}
		for i := 0; i < 20; i++ {
			br, mc := w.Next(src)
			if mc || len(br) != 1 || br[0].Targets[0] != perm[src] {
				t.Fatalf("src %d: got %+v (mc %v), want unicast to %d", src, br, mc, perm[src])
			}
		}
	}
	if !math.IsInf(w.Interarrival(7), 1) {
		t.Fatal("self-mapped node 7 still injects")
	}
	if math.IsInf(w.Interarrival(0), 1) {
		t.Fatal("active node 0 silenced")
	}
}

// TestWeightedDestinations checks the weight-matrix selector empirically:
// destination frequencies match the row weights and the diagonal never
// fires.
func TestWeightedDestinations(t *testing.T) {
	rt := quarcRouter(t, 16)
	weights := make([][]float64, 16)
	for i := range weights {
		weights[i] = make([]float64, 16)
	}
	// Node 0 sends 3:1 to nodes 5 and 10 and nowhere else.
	weights[0][5], weights[0][10] = 3, 1
	for i := 1; i < 16; i++ {
		for j := 0; j < 16; j++ {
			if j != i {
				weights[i][j] = 1
			}
		}
	}
	w, err := NewWorkload(rt, Spec{Rate: 0.01, Weights: weights}, 9)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[topology.NodeID]int{}
	const n = 40000
	for i := 0; i < n; i++ {
		br, _ := w.Next(0)
		counts[br[0].Targets[0]]++
	}
	if len(counts) != 2 {
		t.Fatalf("node 0 reached %d destinations, want exactly {5, 10}: %v", len(counts), counts)
	}
	got := float64(counts[5]) / n
	if math.Abs(got-0.75) > 0.02 {
		t.Errorf("node 0 -> 5 frequency %v, want ~0.75", got)
	}
}

// TestDestValidation is the table-driven fail-fast check of the spatial
// side: malformed permutations and weight matrices are construction
// errors, never silent misroutes.
func TestDestValidation(t *testing.T) {
	rt := quarcRouter(t, 16)
	goodPerm := make([]topology.NodeID, 16)
	for i := range goodPerm {
		goodPerm[i] = topology.NodeID((i + 1) % 16)
	}
	shortPerm := goodPerm[:8]
	outPerm := slices.Clone(goodPerm)
	outPerm[3] = 99
	uniformW := func() [][]float64 {
		w := make([][]float64, 16)
		for i := range w {
			w[i] = make([]float64, 16)
			for j := range w[i] {
				if j != i {
					w[i][j] = 1
				}
			}
		}
		return w
	}
	nanW := uniformW()
	nanW[2][4] = math.NaN()
	negW := uniformW()
	negW[2][4] = -1
	emptyRowW := uniformW()
	for j := range emptyRowW[5] {
		emptyRowW[5][j] = 0
	}
	raggedW := uniformW()
	raggedW[1] = raggedW[1][:4]

	cases := []struct {
		name string
		spec Spec
		ok   bool
	}{
		{"good perm", Spec{Rate: 0.01, Perm: goodPerm}, true},
		{"short perm", Spec{Rate: 0.01, Perm: shortPerm}, false},
		{"out-of-range perm", Spec{Rate: 0.01, Perm: outPerm}, false},
		{"good weights", Spec{Rate: 0.01, Weights: uniformW()}, true},
		{"NaN weight", Spec{Rate: 0.01, Weights: nanW}, false},
		{"negative weight", Spec{Rate: 0.01, Weights: negW}, false},
		{"empty row", Spec{Rate: 0.01, Weights: emptyRowW}, false},
		{"ragged row", Spec{Rate: 0.01, Weights: raggedW}, false},
		{"perm+weights", Spec{Rate: 0.01, Perm: goodPerm, Weights: uniformW()}, false},
	}
	for _, c := range cases {
		_, err := NewWorkload(rt, c.spec, 1)
		if c.ok && err != nil {
			t.Errorf("%s: valid spec rejected: %v", c.name, err)
		}
		if !c.ok && err == nil {
			t.Errorf("%s: bad spec accepted", c.name)
		}
	}
}

// UnicastProb returns the probability that a unicast generated at src is
// destined for dst under this spec (zero for dst == src). The analytical
// model enumerates flows with exactly these probabilities, so model and
// simulator always describe the same traffic.
func (s Spec) UnicastProb(n int, src, dst topology.NodeID) float64 {
	if src == dst {
		return 0
	}
	if s.Perm != nil {
		if s.Perm[src] == dst {
			return 1
		}
		return 0
	}
	if s.Weights != nil {
		row := s.Weights[src]
		sum := 0.0
		for d, w := range row {
			if topology.NodeID(d) != src {
				sum += w
			}
		}
		if sum <= 0 {
			return 0
		}
		return row[dst] / sum
	}
	return 1.0 / float64(n-1)
}

// hotspotWeights is the weight matrix of noc's "hotspot" spatial pattern
// with one node: every other source sends frac of its unicasts to node
// and spreads the rest uniformly, and node itself sends uniformly.
func hotspotWeights(n, node int, frac float64) [][]float64 {
	w := make([][]float64, n)
	for src := range w {
		w[src] = make([]float64, n)
		uniform := (1 - frac) / float64(n-1)
		if src == node {
			uniform = 1 / float64(n-1)
		}
		for dst := range w[src] {
			if dst != src {
				w[src][dst] = uniform
			}
		}
		if src != node {
			w[src][node] += frac
		}
	}
	return w
}

// TestUnicastProbMatchesSelectors pins the model/simulator agreement:
// UnicastProb must describe exactly the distribution Next samples, for
// the permutation and weight-matrix selectors alike.
func TestUnicastProbMatchesSelectors(t *testing.T) {
	perm := make([]topology.NodeID, 16)
	for i := range perm {
		perm[i] = topology.NodeID((i + 3) % 16)
	}
	perm[4] = 4
	specPerm := Spec{Rate: 0.01, Perm: perm}
	for src := topology.NodeID(0); src < 16; src++ {
		var sum float64
		for dst := topology.NodeID(0); dst < 16; dst++ {
			sum += specPerm.UnicastProb(16, src, dst)
		}
		want := 1.0
		if src == 4 {
			want = 0
		}
		if sum != want {
			t.Errorf("perm: src %d total probability %v, want %v", src, sum, want)
		}
	}
	weights := make([][]float64, 4)
	for i := range weights {
		weights[i] = make([]float64, 4)
		for j := range weights[i] {
			if j != i {
				weights[i][j] = float64(i + j)
			}
		}
	}
	specW := Spec{Rate: 0.01, Weights: weights}
	if got := specW.UnicastProb(4, 1, 2); math.Abs(got-3.0/8) > 1e-15 {
		t.Errorf("weights: P(1->2) = %v, want 3/8", got)
	}
	if got := specW.UnicastProb(4, 1, 1); got != 0 {
		t.Errorf("weights: P(1->1) = %v, want 0", got)
	}
}

// TestUnicastProbRowMatchesPerPair pins the O(n) row form bitwise to the
// per-pair form for every destination selector.
func TestUnicastProbRowMatchesPerPair(t *testing.T) {
	const n = 16
	perm := make([]topology.NodeID, n)
	for i := range perm {
		perm[i] = topology.NodeID((i + 3) % n)
	}
	perm[4] = 4
	weights := make([][]float64, n)
	for i := range weights {
		weights[i] = make([]float64, n)
		for j := range weights[i] {
			if j != i {
				weights[i][j] = float64(i*n + j + 1)
			}
		}
	}
	specs := map[string]Spec{
		"uniform": {Rate: 0.01},
		"hotspot": {Rate: 0.01, Weights: hotspotWeights(n, 5, 0.3)},
		"perm":    {Rate: 0.01, Perm: perm},
		"weights": {Rate: 0.01, Weights: weights},
	}
	row := make([]float64, n)
	for name, spec := range specs {
		for src := topology.NodeID(0); src < n; src++ {
			spec.UnicastProbRow(n, src, row)
			for dst := topology.NodeID(0); dst < n; dst++ {
				if got, want := row[dst], spec.UnicastProb(n, src, dst); got != want {
					t.Fatalf("%s: row[%d][%d] = %v, per-pair %v (must be bitwise identical)",
						name, src, dst, got, want)
				}
			}
		}
	}
}
