package noc

import (
	"fmt"
	"strings"
)

// Series is a labelled model-vs-simulation sweep of one configuration,
// used by the ablation studies to compare architectures under identical
// workloads.
type Series struct {
	Label  string       `json:"label"`
	Points []SweepPoint `json:"points"`
}

// RunSeries evaluates Model and Simulator on the scenario for each rate.
func RunSeries(label string, s *Scenario, rates []float64) (Series, error) {
	sw, err := Sweep(s, SweepOptions{Rates: rates, Workers: 1})
	if err != nil {
		return Series{}, err
	}
	return Series{Label: label, Points: sw.Points}, nil
}

// SeriesTable renders one or more series side by side.
func SeriesTable(series []Series) string {
	var b strings.Builder
	for _, s := range series {
		fmt.Fprintf(&b, "%s:\n", s.Label)
		fmt.Fprintf(&b, "  %-10s %12s %12s %12s %12s %5s\n",
			"rate", "model-uni", "sim-uni", "model-mc", "sim-mc", "sat")
		for _, p := range s.Points {
			model, _ := p.Get("model")
			sim, _ := p.Get("simulator")
			sat := ""
			if model.Saturated {
				sat += "M"
			}
			if sim.Saturated {
				sat += "S"
			}
			fmt.Fprintf(&b, "  %-10.5g %12.2f %12.2f %12.2f %12.2f %5s\n",
				p.Rate, model.Unicast, sim.Unicast, model.Multicast, sim.Multicast, sat)
		}
	}
	return b.String()
}

// OnePortAblation compares the all-port Quarc against a one-port variant
// with identical network links under a broadcast-heavy workload — the
// design choice the paper's introduction motivates with Fig. 1 (multi-port
// routers remove the injection serialization of collective operations).
// Extra options (e.g. SimEffort) apply to both scenarios.
func OnePortAblation(n, msgLen int, alpha float64, rates []float64, opts ...Option) ([]Series, error) {
	return compare(rates, opts,
		labelled{"all-port", []Option{Quarc(n), MsgLen(msgLen), Alpha(alpha), Broadcast()}},
		labelled{"one-port", []Option{QuarcOnePort(n), MsgLen(msgLen), Alpha(alpha), Broadcast()}},
	)
}

// SpidergonComparison compares the Quarc's true hardware broadcast against
// the Spidergon's broadcast-by-consecutive-unicasts at the same size,
// message length and rates (paper Sec. 3.2).
func SpidergonComparison(n, msgLen int, alpha float64, rates []float64, opts ...Option) ([]Series, error) {
	return compare(rates, opts,
		labelled{"quarc-broadcast", []Option{Quarc(n), MsgLen(msgLen), Alpha(alpha), Broadcast()}},
		labelled{"spidergon-bcast-by-unicast", []Option{Spidergon(n), MsgLen(msgLen), Alpha(alpha), Broadcast()}},
	)
}

// MeshExtension checks the model's validity beyond the Quarc — the paper's
// stated future work — by comparing model and simulation on an all-port
// mesh and torus with Hamilton-path multicast.
func MeshExtension(w, h, msgLen int, alpha float64, rates []float64, opts ...Option) ([]Series, error) {
	set := HighLowDests([]int{2, 4}, []int{1, 3})
	return compare(rates, opts,
		labelled{fmt.Sprintf("mesh-%dx%d", w, h), []Option{Mesh(w, h), MsgLen(msgLen), Alpha(alpha), set}},
		labelled{fmt.Sprintf("torus-%dx%d", w, h), []Option{Torus(w, h), MsgLen(msgLen), Alpha(alpha), set}},
	)
}

// WorkloadAblation sweeps the same offered load through the
// workload-diversity registries: every arrival process (how the load
// clumps in time) and a selection of spatial patterns (how it clumps in
// space), on one topology. The study runs the simulator only — the
// analytical model's M/G/1 machinery assumes Poisson arrivals and
// rejects the others by design — and makes visible how much congestion
// smooth Poisson/uniform injection hides at equal average rates.
func WorkloadAblation(n, msgLen int, rates []float64, opts ...Option) ([]Series, error) {
	variants := []labelled{
		{"poisson/uniform", nil},
		{"bernoulli/uniform", []Option{Arrival("bernoulli")}},
		{"onoff(8,0.25)/uniform", []Option{OnOff(8, 0.25)}},
		{"periodic/uniform", []Option{Arrival("periodic")}},
		{"poisson/transpose", []Option{Permutation("transpose")}},
		{"poisson/tornado", []Option{Permutation("tornado")}},
		{"onoff(8,0.25)/tornado", []Option{OnOff(8, 0.25), Permutation("tornado")}},
	}
	var out []Series
	for _, v := range variants {
		all := append([]Option{Quarc(n), MsgLen(msgLen)}, opts...)
		s, err := NewScenario(append(all, v.opts...)...)
		if err != nil {
			return nil, err
		}
		sw, err := Sweep(s, SweepOptions{Rates: rates, Evaluators: []Evaluator{Simulator{}}})
		if err != nil {
			return nil, err
		}
		out = append(out, Series{Label: v.label, Points: sw.Points})
	}
	return out, nil
}

// SimSeriesTable renders simulator-only series (e.g. WorkloadAblation's)
// side by side.
func SimSeriesTable(series []Series) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-24s", "rate:")
	if len(series) > 0 {
		for _, p := range series[0].Points {
			fmt.Fprintf(&b, " %10.5g", p.Rate)
		}
	}
	fmt.Fprintln(&b)
	for _, s := range series {
		fmt.Fprintf(&b, "%-24s", s.Label)
		for _, p := range s.Points {
			sim, _ := p.Get("simulator")
			if sim.Saturated {
				fmt.Fprintf(&b, " %10s", "SAT")
			} else {
				fmt.Fprintf(&b, " %10.2f", sim.Unicast)
			}
		}
		fmt.Fprintln(&b)
	}
	return b.String()
}

type labelled struct {
	label string
	opts  []Option
}

func compare(rates []float64, extra []Option, configs ...labelled) ([]Series, error) {
	var out []Series
	for _, c := range configs {
		s, err := NewScenario(append(c.opts, extra...)...)
		if err != nil {
			return nil, err
		}
		series, err := RunSeries(c.label, s, rates)
		if err != nil {
			return nil, err
		}
		out = append(out, series)
	}
	return out, nil
}

// ServicePoint is one sample of the service-formula ablation: both model
// variants against the same simulation.
type ServicePoint struct {
	Rate         float64 `json:"rate"`
	Eq6Unicast   float64 `json:"eq6_unicast"`
	TailUnicast  float64 `json:"tail_unicast"`
	SimUnicast   float64 `json:"sim_unicast"`
	Eq6Saturated bool    `json:"eq6_saturated"`
}

// ServiceFormulaAblation compares the paper's Eq. 6 service recurrence
// (with its +1 cycle per downstream hop) against the tail-release variant
// that models the physical channel holding time exactly. Eq. 6 is
// conservative: it predicts higher utilization and saturates earlier; the
// ablation quantifies by how much against the simulator.
func ServiceFormulaAblation(n, msgLen int, rates []float64, opts ...Option) ([]ServicePoint, error) {
	base, err := NewScenario(append([]Option{Quarc(n), MsgLen(msgLen)}, opts...)...)
	if err != nil {
		return nil, err
	}
	tailBase, err := base.With(ModelService(TailRelease))
	if err != nil {
		return nil, err
	}
	eq6Model, err := buildModel(base)
	if err != nil {
		return nil, err
	}
	tailModel, err := buildModel(tailBase)
	if err != nil {
		return nil, err
	}
	var out []ServicePoint
	for _, rate := range rates {
		s, err := base.With(Rate(rate))
		if err != nil {
			return nil, err
		}
		eq6, err := eq6Model.SolveAt(rate)
		if err != nil {
			return nil, err
		}
		tail, err := tailModel.SolveAt(rate)
		if err != nil {
			return nil, err
		}
		sim, err := Simulator{}.Evaluate(s)
		if err != nil {
			return nil, err
		}
		out = append(out, ServicePoint{
			Rate:         rate,
			Eq6Unicast:   eq6.UnicastLatency,
			TailUnicast:  tail.UnicastLatency,
			SimUnicast:   sim.Unicast,
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
