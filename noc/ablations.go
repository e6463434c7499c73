package noc

import (
	"fmt"
	"slices"
	"strings"
)

// Series is a labelled model-vs-simulation sweep of one configuration,
// used by the ablation studies to compare architectures under identical
// workloads.
type Series struct {
	Label  string       `json:"label"`
	Points []SweepPoint `json:"points"`
}

// SeriesTable renders one or more series side by side.
func SeriesTable(series []Series) string {
	var b strings.Builder
	for _, s := range series {
		fmt.Fprintf(&b, "%s:\n", s.Label)
		fmt.Fprintf(&b, "  %-10s %12s %12s %12s %12s %5s\n",
			"rate", "model-uni", "sim-uni", "model-mc", "sim-mc", "sat")
		for _, p := range s.Points {
			model, sim := curves(p)
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
// Both scenarios run at simulation effort e.
func OnePortAblation(n, msgLen int, alpha float64, rates []float64, e Effort) ([]Series, error) {
	return compare(rates, e, nil,
		labelled{"all-port", broadcastSpec("quarc", n, msgLen, alpha)},
		labelled{"one-port", broadcastSpec("quarc-oneport", n, msgLen, alpha)},
	)
}

// SpidergonComparison compares the Quarc's true hardware broadcast against
// the Spidergon's broadcast-by-consecutive-unicasts at the same size,
// message length and rates (paper Sec. 3.2).
func SpidergonComparison(n, msgLen int, alpha float64, rates []float64, e Effort) ([]Series, error) {
	return compare(rates, e, nil,
		labelled{"quarc-broadcast", broadcastSpec("quarc", n, msgLen, alpha)},
		labelled{"spidergon-bcast-by-unicast", broadcastSpec("spidergon", n, msgLen, alpha)},
	)
}

// broadcastSpec is the broadcast-heavy workload of the one-port and
// Spidergon studies on an n-node ring topology.
func broadcastSpec(topology string, n, msgLen int, alpha float64) Spec {
	return Spec{Topology: topology, N: n, MsgLen: msgLen, Alpha: alpha, Pattern: "broadcast"}
}

// MeshExtension checks the model's validity beyond the Quarc — the paper's
// stated future work — by comparing model and simulation on an all-port
// mesh and torus with Hamilton-path multicast.
func MeshExtension(w, h, msgLen int, alpha float64, rates []float64, e Effort) ([]Series, error) {
	return compare(rates, e, nil,
		labelled{fmt.Sprintf("mesh-%dx%d", w, h), hamiltonSpec("mesh", w, h, msgLen, alpha)},
		labelled{fmt.Sprintf("torus-%dx%d", w, h), hamiltonSpec("torus", w, h, msgLen, alpha)},
	)
}

// hamiltonSpec is the mesh study's workload: Hamilton-path multicast on a
// w x h grid topology.
func hamiltonSpec(topology string, w, h, msgLen int, alpha float64) Spec {
	return Spec{Topology: topology, W: w, H: h, MsgLen: msgLen, Alpha: alpha,
		Pattern: "highlow", High: []int{2, 4}, Low: []int{1, 3}}
}

// WorkloadAblation sweeps the same offered load through the
// workload-diversity tables: every arrival process (how the load
// clumps in time) and a selection of spatial patterns (how it clumps in
// space), on one topology. The study runs the simulator only — the
// analytical model's M/G/1 machinery assumes Poisson arrivals and
// rejects the others by design — and makes visible how much congestion
// smooth Poisson/uniform injection hides at equal average rates.
func WorkloadAblation(n, msgLen int, rates []float64, e Effort) ([]Series, error) {
	variants := slices.Clone(workloadVariants)
	for i := range variants {
		variants[i].sp.Topology, variants[i].sp.N, variants[i].sp.MsgLen = "quarc", n, msgLen
	}
	return compare(rates, e, []Evaluator{Simulator{}}, variants...)
}

// workloadVariants are the arrival and spatial patterns WorkloadAblation
// compares, without the topology and message length.
var workloadVariants = []labelled{
	{"poisson/uniform", Spec{}},
	{"bernoulli/uniform", Spec{Arrival: "bernoulli"}},
	{"onoff(8,0.25)/uniform", Spec{Arrival: "onoff", BurstLen: 8, DutyCycle: 0.25}},
	{"periodic/uniform", Spec{Arrival: "periodic"}},
	{"poisson/transpose", Spec{Spatial: "transpose"}},
	{"poisson/tornado", Spec{Spatial: "tornado"}},
	{"onoff(8,0.25)/tornado", Spec{Arrival: "onoff", BurstLen: 8, DutyCycle: 0.25, Spatial: "tornado"}},
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
	sp    Spec
}

// compare resolves each labelled spec at effort e and sweeps it over the
// rates with the evaluators (nil: Model and Simulator): every ablation
// study is one or two calls.
func compare(rates []float64, e Effort, evals []Evaluator, specs ...labelled) ([]Series, error) {
	out := make([]Series, 0, len(specs))
	for _, c := range specs {
		sw, err := e.sweep(c.sp, SweepOptions{Rates: rates, Evaluators: evals})
		if err != nil {
			return nil, err
		}
		out = append(out, Series{Label: c.label, Points: sw.Points})
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
func ServiceFormulaAblation(n, msgLen int, rates []float64, e Effort) ([]ServicePoint, error) {
	if len(rates) == 0 {
		return nil, nil // an auto grid would differ between the variants
	}
	sp := Spec{Topology: "quarc", N: n, MsgLen: msgLen}
	eq6, err := compare(rates, e, nil, labelled{"eq6", sp})
	if err != nil {
		return nil, err
	}
	sp.Service = "tail"
	tail, err := compare(rates, e, []Evaluator{Model{}}, labelled{"tail", sp})
	if err != nil {
		return nil, err
	}
	out := make([]ServicePoint, len(rates))
	for i, p := range eq6[0].Points {
		model, sim := curves(p)
		tailModel, _ := tail[0].Points[i].Get("model")
		out[i] = ServicePoint{
			Rate:         p.Rate,
			Eq6Unicast:   model.Unicast,
			TailUnicast:  tailModel.Unicast,
			SimUnicast:   sim.Unicast,
			Eq6Saturated: model.Saturated,
		}
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
