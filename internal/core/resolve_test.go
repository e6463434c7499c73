package core

import (
	"fmt"
	"math"
	"math/rand/v2"
	"testing"
	"time"

	"quarc/internal/routing"
	"quarc/internal/topology"
	"quarc/internal/traffic"
)

func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

type batteryTopo struct {
	name string
	rt   routing.Router
	set  routing.MulticastSet
}

// batteryTopos covers every router family, the one-port serialization
// path and fan-outs of 2 to 4 branches.
func batteryTopos() []batteryTopo {
	q16 := routing.NewQuarcRouter(must(topology.NewQuarc(16)))
	q64 := routing.NewQuarcRouter(must(topology.NewQuarc(64)))
	q1 := routing.NewQuarcRouter(must(topology.NewQuarcOnePort(16)))
	sp := routing.NewSpidergonRouter(must(topology.NewSpidergon(16)))
	me := routing.NewMeshRouter(must(topology.NewMesh(4, 4)))
	to := routing.NewMeshRouter(must(topology.NewTorus(4, 4)))
	hc := routing.NewHypercubeRouter(must(topology.NewHypercube(4)))
	return []batteryTopo{
		{"quarc-16", q16, must(q16.LocalizedSet(topology.PortL, 3))},
		{"quarc-64", q64, must(q64.RandomSet(rand.New(rand.NewPCG(63, 0x5e7)), 8))},
		{"quarc-oneport", q1, q1.BroadcastSet()},
		{"spidergon-16", sp, must(sp.LocalizedSet(3))},
		{"mesh-4x4", me, must(me.HighLowSet([]int{2, 4}, []int{1, 3}))},
		{"torus-4x4", to, must(to.HighLowSet([]int{2, 4}, []int{1, 3}))},
		{"hypercube-4", hc, routing.NewMulticastSet(1).Add(0, 1).Add(0, 6).Add(0, 11)},
	}
}

// batterySpatial returns the four destination patterns over n nodes; the
// permutation leaves two sources silent.
func batterySpatial(n int) map[string]traffic.Spec {
	perm := make([]topology.NodeID, n)
	for i := range perm {
		perm[i] = topology.NodeID(n - 1 - i)
	}
	perm[0], perm[n-1] = 0, topology.NodeID(n-1)
	w := make([][]float64, n)
	for s := range w {
		w[s] = make([]float64, n)
		for d := range w[s] {
			w[s][d] = float64((s*7 + d*3) % 5)
		}
		w[s][(s+1)%n]++
	}
	return map[string]traffic.Spec{
		"uniform":     {},
		"hotspot":     {HotspotFrac: 0.3, HotspotNode: 5},
		"permutation": {Perm: perm},
		"weights":     {Weights: w},
	}
}

func samePrediction(a, b Prediction) bool {
	return math.Float64bits(a.UnicastLatency) == math.Float64bits(b.UnicastLatency) &&
		math.Float64bits(a.MulticastLatency) == math.Float64bits(b.MulticastLatency) &&
		math.Float64bits(a.MaxRho) == math.Float64bits(b.MaxRho) &&
		a.Saturated == b.Saturated && a.Iterations == b.Iterations && a.Converged == b.Converged
}

// One Model solved at a shuffled rate sequence must equal a fresh Predict
// at every rate, bit for bit: nothing of one solve may leak into the next.
func TestResolveMatchesFreshPredict(t *testing.T) {
	for _, tp := range batteryTopos() {
		t.Run(tp.name, func(t *testing.T) {
			t.Parallel()
			spatial := batterySpatial(tp.rt.Graph().Nodes())
			for _, alpha := range []float64{0, 0.05, 1} {
				for pattern, spec := range spatial {
					for _, sf := range []ServiceFormula{PaperEq6, TailRelease} {
						for _, wf := range []WaitFormula{PKStandard, PaperEq3Literal} {
							spec.MulticastFrac, spec.Set = alpha, tp.set
							in := Input{Router: tp.rt, Spec: spec, MsgLen: 16, ServiceFormula: sf, WaitFormula: wf}
							name := fmt.Sprintf("alpha=%v/%s/service=%d/wait=%d", alpha, pattern, sf, wf)
							m, err := NewModel(in)
							if err != nil {
								t.Fatalf("%s: %v", name, err)
							}
							sat, err := m.SaturationRate(1e-2) // itself a dozen solves on m
							if err != nil {
								t.Fatalf("%s: %v", name, err)
							}
							// zero, mid, just under the knee, past saturation, mid again
							for _, rate := range []float64{0, 0.5 * sat, sat, 1.5 * sat, 0.5 * sat} {
								got, gotErr := m.SolveAt(rate)
								in.Spec.Rate = rate
								want, wantErr := Predict(in)
								if !samePrediction(got, want) || (gotErr == nil) != (wantErr == nil) {
									t.Fatalf("%s rate %v: re-solve %+v (%v), fresh %+v (%v)", name, rate, got, gotErr, want, wantErr)
								}
							}
						}
					}
				}
			}
		})
	}
}

// The accessors follow the latest solve, whatever was solved before it.
func TestAccessorsReportLatestSolve(t *testing.T) {
	for _, tp := range batteryTopos()[:3] {
		in := Input{Router: tp.rt, Spec: traffic.Spec{MulticastFrac: 0.05, Set: tp.set}, MsgLen: 16}
		m := must(NewModel(in))
		sat := must(m.SaturationRate(1e-3))
		for _, rate := range []float64{1.5 * sat, 0.6 * sat} {
			must(m.SolveAt(rate))
		}
		in.Spec.Rate = 0.6 * sat
		fresh := must(NewModel(in))
		must(fresh.Solve())
		for id := topology.ChannelID(0); int(id) < tp.rt.Graph().NumChannels(); id++ {
			if m.Lambda(id) != fresh.Lambda(id) || m.Service(id) != fresh.Service(id) || m.Wait(id) != fresh.Wait(id) {
				t.Fatalf("%s channel %d: re-solved (λ=%v x̄=%v W=%v), fresh (λ=%v x̄=%v W=%v)", tp.name, id,
					m.Lambda(id), m.Service(id), m.Wait(id), fresh.Lambda(id), fresh.Service(id), fresh.Wait(id))
			}
		}
		for _, b := range must(routing.MulticastBranches(tp.rt, 3, tp.set)) {
			if got, want := m.PathWait(b.Path), fresh.PathWait(b.Path); got != want || !(got > 0) {
				t.Errorf("%s: PathWait = %v on the re-solved model, %v on a fresh one", tp.name, got, want)
			}
		}
	}
}

// simMidModel is the benchmark's sim-mid configuration: quarc-64, M=32,
// α=0.05, eight random destinations.
func simMidModel(tb testing.TB) *Model {
	rt := quarcRouter(tb, 64)
	set := must(rt.RandomSet(rand.New(rand.NewPCG(63, 0x5e7)), 8))
	return must(NewModel(Input{Router: rt, Spec: traffic.Spec{MulticastFrac: 0.05, Set: set}, MsgLen: 32}))
}

// A clone solves bit-for-bit like its original and shares no solve state
// with it: solving one leaves the other's accessors alone.
func TestCloneSolvesIndependently(t *testing.T) {
	m := simMidModel(t)
	sat := must(m.SaturationRate(1e-3))
	c := m.Clone()
	want := must(m.SolveAt(0.4 * sat))
	lambda := m.Lambda(0)
	if got := must(c.SolveAt(0.8 * sat)); got == want {
		t.Fatal("solves at two rates agree; the test cannot tell the models apart")
	}
	if m.Lambda(0) != lambda {
		t.Errorf("solving the clone moved the original's λ from %v to %v", lambda, m.Lambda(0))
	}
	if got := must(c.SolveAt(0.4 * sat)); got != want {
		t.Errorf("clone solves to %+v, original to %+v", got, want)
	}
}

// The guard of the hot-path entries fixedPoint, waitOf, load and addFlow:
// a re-solve, a whole bisection and a re-solve on a clone allocate
// nothing once the multicast scratch has grown.
func TestResolveDoesNotAllocate(t *testing.T) {
	m := simMidModel(t)
	rate := 0.5 * must(m.SaturationRate(1e-3))
	if allocs := testing.AllocsPerRun(10, func() { must(m.SolveAt(rate)) }); allocs != 0 {
		t.Errorf("a re-solve allocates %v times, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(3, func() { must(m.SaturationRate(1e-3)) }); allocs != 0 {
		t.Errorf("a bisection allocates %v times, want 0", allocs)
	}
	c := m.Clone()
	if allocs := testing.AllocsPerRun(10, func() { must(c.SolveAt(rate)) }); allocs != 0 {
		t.Errorf("a re-solve on a clone allocates %v times, want 0", allocs)
	}
}

// SaturationRate refuses a tolerance outside (0,1) and stops a tolerance
// finer than the float spacing once lo and hi are adjacent floats, where
// it used to bisect forever.
func TestSaturationRateTolerance(t *testing.T) {
	rt := quarcRouter(t, 16)
	set := must(rt.RandomSet(rand.New(rand.NewPCG(61, 0x5e7)), 5))
	in := Input{Router: rt, Spec: traffic.Spec{MulticastFrac: 0.05, Set: set}, MsgLen: 32}
	coarse := must(must(NewModel(in)).SaturationRate(1e-3))
	for _, c := range []struct {
		tol     float64
		wantErr bool
	}{{0, true}, {-1, true}, {math.NaN(), true}, {1, true}, {1e-18, false}} {
		m := must(NewModel(in))
		type outcome struct {
			sat float64
			err error
		}
		done := make(chan outcome, 1)
		go func() {
			sat, err := m.SaturationRate(c.tol)
			done <- outcome{sat, err}
		}()
		select {
		case o := <-done:
			if (o.err != nil) != c.wantErr {
				t.Errorf("tol %v: rate %v, error %v; want an error: %v", c.tol, o.sat, o.err, c.wantErr)
			}
			if !c.wantErr && (math.Abs(o.sat-coarse) > 1e-3*coarse || must(m.SolveAt(o.sat)).Saturated) {
				t.Errorf("tol %v: rate %v, want a stable rate within 0.1 %% of %v", c.tol, o.sat, coarse)
			}
		case <-time.After(time.Second):
			t.Fatalf("tol %v: SaturationRate still running after 1 s", c.tol)
		}
	}
}

// branchlessRouter is the pair network with a multicast set that no
// source has branches for.
type branchlessRouter struct{ pairRouter }

func (branchlessRouter) AppendMulticastBranches(*routing.Arena, topology.NodeID, routing.MulticastSet) error {
	return nil
}

// SaturationRate reads only the verdict of each solve, yet fails at the
// first stable one with the error SolveAt gives there: a permutation that
// silences every node, and a source without multicast branches.
func TestSaturationRateStructuralErrors(t *testing.T) {
	identity := make([]topology.NodeID, 16)
	for i := range identity {
		identity[i] = topology.NodeID(i)
	}
	for _, c := range []struct {
		name string
		in   Input
		want string
	}{
		{"silent", Input{Router: quarcRouter(t, 16), Spec: traffic.Spec{Perm: identity}, MsgLen: 32},
			"core: the permutation silences every node"},
		{"branchless", Input{Router: branchlessRouter{pairNetwork(t)}, MsgLen: 32,
			Spec: traffic.Spec{MulticastFrac: 0.05, Set: routing.NewMulticastSet(1).Add(0, 1)}},
			"core: node 0 has no multicast branches"},
	} {
		m := must(NewModel(c.in))
		if _, err := m.SolveAt(1e-4); err == nil || err.Error() != c.want {
			t.Errorf("%s: SolveAt error %v, want %q", c.name, err, c.want)
		}
		if sat, err := m.SaturationRate(1e-3); err == nil || err.Error() != c.want || sat != 0 {
			t.Errorf("%s: SaturationRate %v, error %v; want 0, %q", c.name, sat, err, c.want)
		}
	}
}

// At the smallest subnormal rate a source's per-destination shares round
// to 0 on some routes, so some transitions stay unloaded and some channels
// carry nothing. A solve there is finite and, like any other, independent
// of what the model solved before.
func TestSubnormalRateSolvesLikeFresh(t *testing.T) {
	for _, tp := range batteryTopos() {
		for pattern, spec := range batterySpatial(tp.rt.Graph().Nodes()) {
			spec.MulticastFrac, spec.Set = 0.05, tp.set
			in := Input{Router: tp.rt, Spec: spec, MsgLen: 16}
			m := must(NewModel(in))
			must(m.SolveAt(0.5 * must(m.SaturationRate(1e-2))))
			got := must(m.SolveAt(5e-324))
			in.Spec.Rate = 5e-324
			fresh := must(NewModel(in))
			want := must(fresh.Solve())
			if !samePrediction(got, want) || math.IsNaN(got.UnicastLatency) || math.IsNaN(got.MulticastLatency) {
				t.Fatalf("%s/%s: re-solve %+v, fresh %+v", tp.name, pattern, got, want)
			}
			for _, b := range must(routing.MulticastBranches(tp.rt, 3, tp.set)) {
				if g, w := m.PathWait(b.Path), fresh.PathWait(b.Path); math.Float64bits(g) != math.Float64bits(w) {
					t.Fatalf("%s/%s: PathWait %v on the re-solved model, %v on a fresh one", tp.name, pattern, g, w)
				}
			}
		}
	}
}

// The saturation rates of fig6-a and fig7-a as the commit before the
// build-once model computed them (a fresh model per bisection step).
func TestSaturationRateBitsPinned(t *testing.T) {
	rt := quarcRouter(t, 16)
	for _, c := range []struct {
		name string
		set  routing.MulticastSet
		bits uint64
	}{
		{"fig6-a", must(rt.RandomSet(rand.New(rand.NewPCG(61, 0x5e7)), 5)), 0x3f821c0000000000},
		{"fig7-a", must(rt.LocalizedSet(topology.PortL, 3)), 0x3f83980000000000},
	} {
		m := must(NewModel(Input{Router: rt, Spec: traffic.Spec{MulticastFrac: 0.05, Set: c.set}, MsgLen: 32}))
		if sat := must(m.SaturationRate(1e-3)); math.Float64bits(sat) != c.bits {
			t.Errorf("%s: saturation rate %v = %#x, want %#x", c.name, sat, math.Float64bits(sat), c.bits)
		}
	}
}

var benchSink Prediction

// BenchmarkModelBuild and BenchmarkModelResolve are the two halves of a
// one-shot Predict: the rate-independent build and one solve.
func BenchmarkModelBuild(b *testing.B) {
	in := simMidModel(b).Input()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		must(NewModel(in))
	}
}

func BenchmarkModelResolve(b *testing.B) {
	m := simMidModel(b)
	rate := 0.4 * must(m.SaturationRate(1e-3))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink = must(m.SolveAt(rate))
	}
}

var satSink float64

// BenchmarkSaturationRate is the bisection every figure panel runs to
// scale its rate grid: a dozen cold-start solves, mostly near the knee.
func BenchmarkSaturationRate(b *testing.B) {
	for _, n := range []int{16, 64} {
		b.Run(fmt.Sprintf("quarc-%d", n), func(b *testing.B) {
			rt := quarcRouter(b, n)
			set := must(rt.RandomSet(rand.New(rand.NewPCG(63, 0x5e7)), 8))
			m := must(NewModel(Input{Router: rt, Spec: traffic.Spec{MulticastFrac: 0.05, Set: set}, MsgLen: 32}))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				satSink = must(m.SaturationRate(1e-3))
			}
		})
	}
}
