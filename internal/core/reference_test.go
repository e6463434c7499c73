package core

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"quarc/internal/routing"
	"quarc/internal/topology"
)

// solveAtReference is the fixed-point loop SolveAt ran before the kernel
// of fixedPoint replaced it: every channel's wait recomputed through
// channelWait on every sweep, every channel visited by the service sweep
// and every |Δ| divided. It is the differential oracle of the kernel; the
// only edit is the ejection test, read from the graph since channelState
// no longer carries it. It shares load and the latency sums with SolveAt,
// so it pins the fixed point, not the flow replay.
func solveAtReference(m *Model, rate float64) (Prediction, error) {
	if rate < 0 || math.IsNaN(rate) || math.IsInf(rate, 0) {
		return Prediction{}, fmt.Errorf("core: invalid rate %v", rate)
	}
	m.load(rate)
	msg := float64(m.in.MsgLen)
	hop := 1.0
	if m.in.ServiceFormula == TailRelease {
		hop = 0
	}

	// Initialize every channel's holding time to the bare drain time.
	for i := range m.channels {
		m.channels[i].service = msg
	}

	saturated := false
	iter := 0
	converged := false
	for ; iter < m.in.MaxIter; iter++ {
		// Waits from current services.
		unstable := false
		for i := range m.channels {
			c := &m.channels[i]
			c.wait = m.channelWait(c.lambda, c.service, msg)
			if math.IsInf(c.wait, 1) {
				unstable = true
			}
		}
		if unstable {
			saturated = true
			break
		}
		// Service-time sweep (Eq. 6).
		maxDelta := 0.0
		for i := range m.channels {
			c := &m.channels[i]
			if m.g.Channel(topology.ChannelID(i)).Kind == topology.Ejection || c.lambda == 0 {
				continue
			}
			var x float64
			for _, tr := range m.trans[c.trLo:c.trHi] {
				b := &m.channels[tr.to]
				x += tr.p * (tr.scale*b.wait + b.service + hop)
			}
			nx := c.service + m.in.Damping*(x-c.service)
			if d := math.Abs(nx-c.service) / math.Max(1, c.service); d > maxDelta {
				maxDelta = d
			}
			c.service = nx
		}
		if maxDelta < m.in.Tol {
			converged = true
			iter++
			break
		}
	}

	maxRho := 0.0
	for i := range m.channels {
		c := &m.channels[i]
		if rho := c.lambda * c.service; rho > maxRho {
			maxRho = rho
		}
	}
	if maxRho >= 1 {
		saturated = true
	}

	pred := Prediction{Saturated: saturated, MaxRho: maxRho, Iterations: iter, Converged: converged}
	if saturated {
		pred.UnicastLatency = math.Inf(1)
		pred.MulticastLatency = math.Inf(1)
		return pred, nil
	}

	// Final waits from converged services.
	for i := range m.channels {
		c := &m.channels[i]
		c.wait = m.channelWait(c.lambda, c.service, msg)
	}

	if m.active == 0 {
		return pred, fmt.Errorf("core: the permutation silences every node")
	}
	pred.UnicastLatency = m.unicastLatency()
	var err error
	pred.MulticastLatency, err = m.multicastLatency(rate)
	return pred, err
}

// channelWait applies the configured waiting-time formula to a channel
// through the checked library functions, as the loop before the kernel
// did.
func (m *Model) channelWait(lambda, service, msg float64) float64 {
	sigma := ServiceSigma(service, msg)
	if m.in.WaitFormula == PaperEq3Literal {
		return MG1WaitPaperEq3(lambda, service, sigma)
	}
	return MG1Wait(lambda, service, sigma)
}

// checkAgainstReference solves m with SolveAt and ref with the oracle at
// one rate and fails unless the predictions agree bit for bit and, on an
// unsaturated solve, so does every channel's λ, x̄ and W and the path
// wait of source 3's multicast branches. The two models must share an
// input.
func checkAgainstReference(t testing.TB, tp batteryTopo, m, ref *Model, rate float64, name string) {
	t.Helper()
	got, gotErr := m.SolveAt(rate)
	want, wantErr := solveAtReference(ref, rate)
	if !samePrediction(got, want) || (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("%s rate %v: kernel %+v (%v), reference %+v (%v)", name, rate, got, gotErr, want, wantErr)
	}
	if got.Saturated || gotErr != nil {
		return
	}
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	for id := topology.ChannelID(0); int(id) < len(m.channels); id++ {
		if !same(m.Lambda(id), ref.Lambda(id)) || !same(m.channels[id].service, ref.channels[id].service) || !same(m.channels[id].wait, ref.channels[id].wait) {
			t.Fatalf("%s rate %v channel %d: kernel (λ=%v x̄=%v W=%v), reference (λ=%v x̄=%v W=%v)", name, rate, id,
				m.Lambda(id), m.channels[id].service, m.channels[id].wait, ref.Lambda(id), ref.channels[id].service, ref.channels[id].wait)
		}
	}
	branches, err := routing.MulticastBranches(tp.rt, 3, tp.set)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range branches {
		if g, w := m.PathWait(b.Path), ref.PathWait(b.Path); !same(g, w) {
			t.Fatalf("%s rate %v: PathWait %v, reference %v", name, rate, g, w)
		}
	}
}

// referenceRates is the oracle's rate grid for a model saturating at
// sat: zero, the smallest subnormal (flows underflow to λ = 0 on some
// channels) and 20 points from 5 % to 130 % of saturation.
func referenceRates(sat float64) []float64 {
	rates := []float64{0, 5e-324}
	for k := 0; k < 20; k++ {
		rates = append(rates, sat*(0.05+1.25*float64(k)/19))
	}
	return rates
}

// The kernel solves every battery configuration exactly as the loop it
// replaced: both formulas, every spatial pattern and multicast fraction,
// non-default damping and iteration caps (a cap of 1 or 7 stops every
// solve mid-flight), and the one-port router's serialized multicast.
func TestSolveAtMatchesReference(t *testing.T) {
	type knobs struct {
		damping float64
		maxIter int
	}
	for _, tp := range batteryTopos() {
		t.Run(tp.name, func(t *testing.T) {
			t.Parallel()
			spatial := batterySpatial(tp.rt.Graph().Nodes())
			for _, alpha := range []float64{0, 0.05, 1} {
				for pattern, spec := range spatial {
					for _, sf := range []ServiceFormula{PaperEq6, TailRelease} {
						for _, wf := range []WaitFormula{PKStandard, PaperEq3Literal} {
							spec.MulticastFrac, spec.Set = alpha, tp.set
							ks := []knobs{{}}
							if pattern == "uniform" || pattern == "hotspot" {
								ks = append(ks, knobs{damping: 0.3}, knobs{damping: 1}, knobs{maxIter: 1}, knobs{maxIter: 7})
							}
							for _, k := range ks {
								in := Input{Router: tp.rt, Spec: spec, MsgLen: 16, ServiceFormula: sf, WaitFormula: wf,
									Damping: k.damping, MaxIter: k.maxIter}
								name := fmt.Sprintf("alpha=%v/%s/service=%d/wait=%d/damping=%v/maxiter=%d",
									alpha, pattern, sf, wf, k.damping, k.maxIter)
								m, ref := must(NewModel(in)), must(NewModel(in))
								sat, err := m.SaturationRate(1e-2)
								if err != nil {
									t.Fatalf("%s: %v", name, err)
								}
								for _, rate := range referenceRates(sat) {
									checkAgainstReference(t, tp, m, ref, rate, name)
								}
							}
						}
					}
				}
			}
		})
	}
}

var (
	fuzzToposOnce sync.Once
	fuzzTopos     []batteryTopo
	fuzzSat       []float64
)

// loadFuzzTopos builds the fuzzers' topologies once, with each one's
// uniform saturation rate.
func loadFuzzTopos() {
	fuzzToposOnce.Do(func() {
		fuzzTopos = batteryTopos()
		for _, tp := range fuzzTopos {
			spec := batterySpatial(tp.rt.Graph().Nodes())["uniform"]
			spec.MulticastFrac, spec.Set = 0.05, tp.set
			m := must(NewModel(Input{Router: tp.rt, Spec: spec, MsgLen: 16}))
			fuzzSat = append(fuzzSat, must(m.SaturationRate(1e-2)))
		}
	})
}

// FuzzSolveAtMatchesReference drives the same comparison over arbitrary
// rates, damping factors, iteration caps and formulas. The rate is read
// as a multiple of the topology's uniform saturation rate, so that most
// inputs land in the stable region; negative and non-finite rates go in
// as they are and must fail alike.
func FuzzSolveAtMatchesReference(f *testing.F) {
	f.Add(uint8(0), 0.5, 0.0, 0, false, false)
	f.Add(uint8(1), 0.95, 0.3, 0, true, false)
	f.Add(uint8(2), 0.8, 1.0, 7, false, true)
	f.Add(uint8(3), 1.3, 0.0, 1, true, true)
	f.Add(uint8(4), 5e-324, 0.7, 0, false, false)
	f.Add(uint8(5), 0.99, 0.0, -3, true, false)
	f.Add(uint8(6), math.NaN(), 0.0, 0, false, false)
	f.Fuzz(func(t *testing.T, topo uint8, frac, damping float64, maxIter int, tail, eq3 bool) {
		loadFuzzTopos()
		i := int(topo) % len(fuzzTopos)
		tp := fuzzTopos[i]
		rate := frac
		if frac >= 0 && !math.IsInf(frac, 0) {
			rate = math.Mod(frac, 2) * fuzzSat[i]
		}
		if !(damping > 0 && damping <= 1) {
			damping = 0
		}
		in := Input{Router: tp.rt, MsgLen: 16, Damping: damping, MaxIter: maxIter % 500}
		in.Spec = batterySpatial(tp.rt.Graph().Nodes())["hotspot"]
		in.Spec.MulticastFrac, in.Spec.Set = 0.05, tp.set
		if tail {
			in.ServiceFormula = TailRelease
		}
		if eq3 {
			in.WaitFormula = PaperEq3Literal
		}
		checkAgainstReference(t, tp, must(NewModel(in)), must(NewModel(in)), rate,
			fmt.Sprintf("%s/damping=%v/maxiter=%d/tail=%v/eq3=%v", tp.name, damping, in.MaxIter, tail, eq3))
	})
}
