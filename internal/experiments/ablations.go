package experiments

import (
	"fmt"
	"strings"

	"quarc/internal/core"
	"quarc/internal/routing"
	"quarc/internal/topology"
	"quarc/internal/traffic"
	"quarc/internal/wormhole"
)

// Series is a labelled sweep of one configuration, used by the ablation
// studies to compare architectures under identical workloads.
type Series struct {
	Label  string
	Points []Point
}

// RunSeries evaluates model and simulation on the given router for each
// rate.
func RunSeries(label string, rt routing.Router, set routing.MulticastSet, msgLen int, alpha float64, rates []float64, sim SimConfig) (Series, error) {
	s := Series{Label: label}
	m, err := newModel(rt, set, msgLen, alpha)
	if err != nil {
		return Series{}, err
	}
	for _, rate := range rates {
		pt, err := runPoint(m, rate, sim)
		if err != nil {
			return Series{}, err
		}
		s.Points = append(s.Points, pt)
	}
	return s, nil
}

// OnePortAblation compares the all-port Quarc against a one-port variant
// with identical network links under a broadcast-heavy workload — the
// design choice the paper's introduction motivates with Fig. 1 (multi-port
// routers remove the injection serialization of collective operations).
func OnePortAblation(n, msgLen int, alpha float64, rates []float64, sim SimConfig) ([]Series, error) {
	all, err := topology.NewQuarc(n)
	if err != nil {
		return nil, err
	}
	one, err := topology.NewQuarcOnePort(n)
	if err != nil {
		return nil, err
	}
	rtAll := routing.NewQuarcRouter(all)
	rtOne := routing.NewQuarcRouter(one)

	sAll, err := RunSeries("all-port", rtAll, rtAll.BroadcastSet(), msgLen, alpha, rates, sim)
	if err != nil {
		return nil, err
	}
	sOne, err := RunSeries("one-port", rtOne, rtOne.BroadcastSet(), msgLen, alpha, rates, sim)
	if err != nil {
		return nil, err
	}
	return []Series{sAll, sOne}, nil
}

// SpidergonComparison compares the Quarc's true hardware broadcast against
// the Spidergon's broadcast-by-consecutive-unicasts at the same size,
// message length and rates (Sec. 3.2 of the paper: "the latency for
// broadcast/multicast traffic is dramatically reduced").
func SpidergonComparison(n, msgLen int, alpha float64, rates []float64, sim SimConfig) ([]Series, error) {
	q, err := topology.NewQuarc(n)
	if err != nil {
		return nil, err
	}
	sp, err := topology.NewSpidergon(n)
	if err != nil {
		return nil, err
	}
	rtQ := routing.NewQuarcRouter(q)
	rtS := routing.NewSpidergonRouter(sp)

	sQ, err := RunSeries("quarc-broadcast", rtQ, rtQ.BroadcastSet(), msgLen, alpha, rates, sim)
	if err != nil {
		return nil, err
	}
	sS, err := RunSeries("spidergon-bcast-by-unicast", rtS, rtS.BroadcastSet(), msgLen, alpha, rates, sim)
	if err != nil {
		return nil, err
	}
	return []Series{sQ, sS}, nil
}

// MeshExtension checks the model's validity beyond the Quarc — the
// paper's stated future work — by comparing model and simulation on an
// all-port mesh and torus with Hamilton-path multicast.
func MeshExtension(w, h, msgLen int, alpha float64, rates []float64, sim SimConfig) ([]Series, error) {
	var out []Series
	for _, wrap := range []bool{false, true} {
		var m *topology.Mesh
		var err error
		label := fmt.Sprintf("mesh-%dx%d", w, h)
		if wrap {
			m, err = topology.NewTorus(w, h)
			label = fmt.Sprintf("torus-%dx%d", w, h)
		} else {
			m, err = topology.NewMesh(w, h)
		}
		if err != nil {
			return nil, err
		}
		rt := routing.NewMeshRouter(m)
		set, err := rt.HighLowSet([]int{2, 4}, []int{1, 3})
		if err != nil {
			return nil, err
		}
		s, err := RunSeries(label, rt, set, msgLen, alpha, rates, sim)
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}

// ServicePoint is one sample of the service-formula ablation: both model
// variants against the same simulation.
type ServicePoint struct {
	Rate         float64
	Eq6Unicast   float64
	TailUnicast  float64
	SimUnicast   float64
	Eq6Saturated bool
}

// ServiceFormulaAblation compares the paper's Eq. 6 service recurrence
// (with its +1 cycle per downstream hop) against the tail-release variant
// that models the physical channel holding time exactly. Eq. 6 is
// conservative: it predicts higher utilization and saturates earlier; the
// ablation quantifies by how much against the simulator.
func ServiceFormulaAblation(n, msgLen int, rates []float64, sim SimConfig) ([]ServicePoint, error) {
	q, err := topology.NewQuarc(n)
	if err != nil {
		return nil, err
	}
	rt := routing.NewQuarcRouter(q)
	eq6Model, err := core.NewModel(core.Input{Router: rt, MsgLen: msgLen})
	if err != nil {
		return nil, err
	}
	tailModel, err := core.NewModel(core.Input{Router: rt, MsgLen: msgLen, ServiceFormula: core.TailRelease})
	if err != nil {
		return nil, err
	}
	var out []ServicePoint
	for _, rate := range rates {
		spec := traffic.Spec{Rate: rate}
		eq6, err := eq6Model.SolveAt(rate)
		if err != nil {
			return nil, err
		}
		tail, err := tailModel.SolveAt(rate)
		if err != nil {
			return nil, err
		}
		w, err := traffic.NewWorkload(rt, spec, sim.Seed)
		if err != nil {
			return nil, err
		}
		nw, err := wormhole.New(rt.Graph(), w, wormhole.Config{
			MsgLen: msgLen, Warmup: sim.Warmup, Measure: sim.Measure,
		})
		if err != nil {
			return nil, err
		}
		res := nw.Run()
		out = append(out, ServicePoint{
			Rate:         rate,
			Eq6Unicast:   eq6.UnicastLatency,
			TailUnicast:  tail.UnicastLatency,
			SimUnicast:   res.Unicast.Mean(),
			Eq6Saturated: eq6.Saturated,
		})
	}
	return out, nil
}

// ServiceTable renders the service-formula ablation.
func ServiceTable(points []ServicePoint) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s %12s %12s %12s\n", "rate", "eq6-uni", "tail-uni", "sim-uni")
	for _, p := range points {
		fmt.Fprintf(&b, "%-10.5g %12.2f %12.2f %12.2f\n",
			p.Rate, p.Eq6Unicast, p.TailUnicast, p.SimUnicast)
	}
	return b.String()
}

// SeriesTable renders one or more series side by side.
func SeriesTable(series []Series) string {
	var b strings.Builder
	for _, s := range series {
		fmt.Fprintf(&b, "%s:\n", s.Label)
		fmt.Fprintf(&b, "  %-10s %12s %12s %12s %12s %5s\n",
			"rate", "model-uni", "sim-uni", "model-mc", "sim-mc", "sat")
		for _, p := range s.Points {
			sat := ""
			if p.ModelSaturated {
				sat += "M"
			}
			if p.SimSaturated {
				sat += "S"
			}
			fmt.Fprintf(&b, "  %-10.5g %12.2f %12.2f %12.2f %12.2f %5s\n",
				p.Rate, p.ModelUnicast, p.SimUnicast, p.ModelMulticast, p.SimMulticast, sat)
		}
	}
	return b.String()
}
