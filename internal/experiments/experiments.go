// Package experiments regenerates the paper's evaluation artifacts:
// every panel of Figures 6 and 7 (model-vs-simulation latency curves for
// the Quarc NoC) plus the ablation studies DESIGN.md calls out.
//
// A Panel fixes a network size, message length, multicast fraction and
// destination regime; RunPanel sweeps the message generation rate across
// the configuration's stable region and reports, for every rate, the
// analytical prediction and the simulation measurement for both unicast
// and multicast traffic.
package experiments

import (
	"fmt"
	"math"
	"math/rand/v2"

	"quarc/internal/core"
	"quarc/internal/routing"
	"quarc/internal/stats"
	"quarc/internal/topology"
	"quarc/internal/traffic"
	"quarc/internal/wormhole"
)

// Panel is one figure panel: a single latency-vs-generation-rate graph.
type Panel struct {
	// ID names the panel, e.g. "fig6-a".
	ID string
	// Figure is "6" (random destinations) or "7" (localized destinations).
	Figure string
	// N is the Quarc network size.
	N int
	// MsgLen is the message length in flits (the paper's M).
	MsgLen int
	// Alpha is the multicast fraction of traffic (the paper's α).
	Alpha float64
	// Random selects Fig. 6-style random destination sets; otherwise the
	// set is localized on one rim (Fig. 7).
	Random bool
	// SetSize is the number of multicast destinations.
	SetSize int
	// LocalPort is the rim used for localized sets.
	LocalPort int
	// SetSeed seeds the random destination selection ("selected randomly
	// by the authors at the beginning of the simulation").
	SetSeed uint64
	// Points is the number of rate samples across the stable region
	// (default 8).
	Points int
}

// SimConfig bundles the simulation effort knobs so tests and benchmarks
// can trade accuracy for time.
type SimConfig struct {
	Warmup  float64
	Measure float64
	Seed    uint64
}

// DefaultSimConfig is used by the figure CLI: long enough for tight
// confidence intervals on every panel.
func DefaultSimConfig() SimConfig {
	return SimConfig{Warmup: 20000, Measure: 200000, Seed: 0xC0FFEE}
}

// QuickSimConfig is a cheaper setting for tests and benchmarks.
func QuickSimConfig() SimConfig {
	return SimConfig{Warmup: 5000, Measure: 40000, Seed: 0xC0FFEE}
}

// Point is one rate sample of a panel.
type Point struct {
	Rate           float64
	ModelUnicast   float64
	ModelMulticast float64
	ModelSaturated bool
	ModelMaxRho    float64
	SimUnicast     float64
	SimMulticast   float64
	SimUnicastCI   float64 // 95% batch-means half-width
	SimMulticastCI float64
	SimSaturated   bool
	SimMessages    int64
}

// Result is a completed panel.
type Result struct {
	Panel   Panel
	Set     routing.MulticastSet
	SatRate float64 // model saturation rate the sweep was scaled to
	Points  []Point
}

// Router builds the panel's topology and router.
func (p Panel) Router() (*routing.QuarcRouter, error) {
	q, err := topology.NewQuarc(p.N)
	if err != nil {
		return nil, err
	}
	return routing.NewQuarcRouter(q), nil
}

// DestinationSet materializes the panel's multicast destination set.
func (p Panel) DestinationSet(rt *routing.QuarcRouter) (routing.MulticastSet, error) {
	if p.Random {
		return rt.RandomSet(rand.New(rand.NewPCG(p.SetSeed, 0x5e7)), p.SetSize)
	}
	return rt.LocalizedSet(p.LocalPort, p.SetSize)
}

// newModel builds the analytical model of a paper-style configuration
// (poisson arrivals, uniform unicast destinations, default formulas). One
// model serves every rate of the configuration.
func newModel(rt routing.Router, set routing.MulticastSet, msgLen int, alpha float64) (*core.Model, error) {
	return core.NewModel(core.Input{
		Router: rt,
		Spec:   traffic.Spec{MulticastFrac: alpha, Set: set},
		MsgLen: msgLen,
	})
}

// FindSaturationRate bisects for the highest generation rate at which the
// analytical model is stable, within relative tolerance tol. The sweep
// grids of all panels are scaled to this rate so every figure covers its
// configuration's interesting region without hand tuning.
func FindSaturationRate(rt routing.Router, msgLen int, alpha float64, set routing.MulticastSet, tol float64) (float64, error) {
	m, err := newModel(rt, set, msgLen, alpha)
	if err != nil {
		return 0, err
	}
	return m.SaturationRate(tol)
}

// RunPanel evaluates the analytical model and runs the simulator for each
// rate in the panel's sweep.
func RunPanel(p Panel, sim SimConfig) (Result, error) {
	rt, err := p.Router()
	if err != nil {
		return Result{}, err
	}
	set, err := p.DestinationSet(rt)
	if err != nil {
		return Result{}, err
	}
	m, err := newModel(rt, set, p.MsgLen, p.Alpha)
	if err != nil {
		return Result{}, err
	}
	sat, err := m.SaturationRate(1e-3)
	if err != nil {
		return Result{}, err
	}
	points := p.Points
	if points <= 0 {
		points = 8
	}
	res := Result{Panel: p, Set: set, SatRate: sat}
	for i := 1; i <= points; i++ {
		// Sample 10%..95% of the model's stable region; a single point
		// lands mid-region.
		frac := 0.50
		if points > 1 {
			frac = 0.10 + (0.95-0.10)*float64(i-1)/float64(points-1)
		}
		pt, err := runPoint(m, sat*frac, sim)
		if err != nil {
			return Result{}, err
		}
		res.Points = append(res.Points, pt)
	}
	return res, nil
}

// RunPoint evaluates model and simulation at a single generation rate.
func RunPoint(rt routing.Router, set routing.MulticastSet, msgLen int, alpha, rate float64, sim SimConfig) (Point, error) {
	m, err := newModel(rt, set, msgLen, alpha)
	if err != nil {
		return Point{}, err
	}
	return runPoint(m, rate, sim)
}

// runPoint solves the model at the rate and simulates the model's own
// configuration there.
func runPoint(m *core.Model, rate float64, sim SimConfig) (Point, error) {
	pred, err := m.SolveAt(rate)
	if err != nil {
		return Point{}, err
	}
	in := m.Input()
	spec := in.Spec
	spec.Rate = rate
	w, err := traffic.NewWorkload(in.Router, spec, sim.Seed)
	if err != nil {
		return Point{}, err
	}
	nw, err := wormhole.New(in.Router.Graph(), w, wormhole.Config{
		MsgLen:  in.MsgLen,
		Warmup:  sim.Warmup,
		Measure: sim.Measure,
	})
	if err != nil {
		return Point{}, err
	}
	r := nw.Run()
	return Point{
		Rate:           rate,
		ModelUnicast:   pred.UnicastLatency,
		ModelMulticast: pred.MulticastLatency,
		ModelSaturated: pred.Saturated,
		ModelMaxRho:    pred.MaxRho,
		SimUnicast:     r.Unicast.Mean(),
		SimMulticast:   r.Multicast.Mean(),
		SimUnicastCI:   r.UnicastBM.HalfWidth(1.96),
		SimMulticastCI: r.MulticastBM.HalfWidth(1.96),
		SimSaturated:   r.Saturated,
		SimMessages:    r.Completed,
	}, nil
}

// Agreement summarizes model-vs-simulation error over the points where
// both sides are stable.
type Agreement struct {
	// MeanUnicastErr and MeanMulticastErr are mean relative errors of the
	// model against the simulation.
	MeanUnicastErr   float64
	MeanMulticastErr float64
	MaxUnicastErr    float64
	MaxMulticastErr  float64
	// Compared is the number of points entering the comparison.
	Compared int
}

// Agreement computes the error summary over every stable point of the
// sweep, including the knee region just below the model's saturation rate
// where this model family overshoots (visible in the paper's own figures
// as the analytical curve bending up before the simulation's).
func (r Result) Agreement() Agreement { return r.agreement(math.Inf(1)) }

// AgreementCore restricts the comparison to rates at most 70% of the
// model's saturation rate — the low-to-medium-load region over which the
// paper claims (and this reproduction confirms) an excellent
// approximation. Above that the service-time fixed point approaches its
// divergence and over-predicts, exactly as the analytical curves in the
// paper's own figures bend up before the simulation's.
func (r Result) AgreementCore() Agreement { return r.agreement(0.7 * r.SatRate) }

func (r Result) agreement(rateCap float64) Agreement {
	var a Agreement
	var sumU, sumM float64
	for _, pt := range r.Points {
		if pt.ModelSaturated || pt.SimSaturated || pt.Rate > rateCap ||
			math.IsNaN(pt.SimUnicast) || math.IsNaN(pt.SimMulticast) {
			continue
		}
		eu := stats.RelErr(pt.ModelUnicast, pt.SimUnicast)
		em := stats.RelErr(pt.ModelMulticast, pt.SimMulticast)
		sumU += eu
		sumM += em
		if eu > a.MaxUnicastErr {
			a.MaxUnicastErr = eu
		}
		if em > a.MaxMulticastErr {
			a.MaxMulticastErr = em
		}
		a.Compared++
	}
	if a.Compared > 0 {
		a.MeanUnicastErr = sumU / float64(a.Compared)
		a.MeanMulticastErr = sumM / float64(a.Compared)
	}
	return a
}

// Fig6Panels returns the representative configurations for Figure 6
// (random multicast destinations), covering every network size, the
// message-length range and the multicast rates the paper's evaluation
// names (N ∈ 16..128, M ∈ 16..64 flits, α ∈ 3..10%).
func Fig6Panels() []Panel {
	return []Panel{
		{ID: "fig6-a", Figure: "6", N: 16, MsgLen: 32, Alpha: 0.05, Random: true, SetSize: 5, SetSeed: 61},
		{ID: "fig6-b", Figure: "6", N: 32, MsgLen: 16, Alpha: 0.10, Random: true, SetSize: 6, SetSeed: 62},
		{ID: "fig6-c", Figure: "6", N: 64, MsgLen: 48, Alpha: 0.05, Random: true, SetSize: 8, SetSeed: 63},
		{ID: "fig6-d", Figure: "6", N: 128, MsgLen: 64, Alpha: 0.03, Random: true, SetSize: 10, SetSeed: 64},
	}
}

// Fig7Panels returns the configurations for Figure 7 (localized
// destinations: all targets on the same rim).
func Fig7Panels() []Panel {
	return []Panel{
		{ID: "fig7-a", Figure: "7", N: 16, MsgLen: 32, Alpha: 0.05, SetSize: 3, LocalPort: topology.PortL},
		{ID: "fig7-b", Figure: "7", N: 32, MsgLen: 64, Alpha: 0.03, SetSize: 5, LocalPort: topology.PortR},
		{ID: "fig7-c", Figure: "7", N: 64, MsgLen: 16, Alpha: 0.10, SetSize: 6, LocalPort: topology.PortCL},
		{ID: "fig7-d", Figure: "7", N: 128, MsgLen: 32, Alpha: 0.05, SetSize: 8, LocalPort: topology.PortL},
	}
}

// AllPanels returns every figure panel in order.
func AllPanels() []Panel {
	return append(Fig6Panels(), Fig7Panels()...)
}

// PanelByID finds a panel by its ID.
func PanelByID(id string) (Panel, error) {
	for _, p := range AllPanels() {
		if p.ID == id {
			return p, nil
		}
	}
	return Panel{}, fmt.Errorf("experiments: unknown panel %q", id)
}
