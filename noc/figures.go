package noc

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// Panel is one paper figure panel: a single latency-vs-generation-rate
// graph with a fixed network size, message length, multicast fraction and
// destination regime.
type Panel struct {
	// ID names the panel, e.g. "fig6-a"; Figure is "6" (random
	// destinations) or "7" (localized destinations).
	ID     string `json:"id"`
	Figure string `json:"figure"`
	// N is the Quarc network size, MsgLen the message length in flits and
	// Alpha the multicast fraction.
	N      int     `json:"n"`
	MsgLen int     `json:"msglen"`
	Alpha  float64 `json:"alpha"`
	// Random selects Fig. 6-style random destination sets (seeded by
	// SetSeed); otherwise the set is localized on rim LocalPort (Fig. 7).
	Random    bool   `json:"random"`
	SetSize   int    `json:"set_size"`
	LocalPort int    `json:"local_port"`
	SetSeed   uint64 `json:"set_seed"`
	// Points is the number of rate samples across the stable region
	// (default 8).
	Points int `json:"points"`
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
		{ID: "fig7-a", Figure: "7", N: 16, MsgLen: 32, Alpha: 0.05, SetSize: 3, LocalPort: PortL},
		{ID: "fig7-b", Figure: "7", N: 32, MsgLen: 64, Alpha: 0.03, SetSize: 5, LocalPort: PortR},
		{ID: "fig7-c", Figure: "7", N: 64, MsgLen: 16, Alpha: 0.10, SetSize: 6, LocalPort: PortCL},
		{ID: "fig7-d", Figure: "7", N: 128, MsgLen: 32, Alpha: 0.05, SetSize: 8, LocalPort: PortL},
	}
}

// FigurePanels returns every figure panel in order.
func FigurePanels() []Panel { return append(Fig6Panels(), Fig7Panels()...) }

// PanelByID finds a predefined panel by its ID.
func PanelByID(id string) (Panel, error) {
	for _, p := range FigurePanels() {
		if p.ID == id {
			return p, nil
		}
	}
	return Panel{}, fmt.Errorf("noc: unknown panel %q", id)
}

// spec is the panel as a Spec, without its effort and rates. A Fig. 6
// panel draws its random destination set from PCG stream 0x5e7, the set
// "selected randomly by the authors at the beginning of the simulation";
// a document states the same draw as "set_stream":1511.
func (p Panel) spec() Spec {
	sp := Spec{Topology: "quarc", N: p.N, MsgLen: p.MsgLen, Alpha: p.Alpha,
		Pattern: "localized", Dests: p.SetSize, Port: p.LocalPort}
	if p.Random {
		sp.Pattern, sp.SetSeed, sp.SetStream = "random", p.SetSeed, 0x5e7
	}
	return sp
}

// regime names the panel's destination regime.
func (p Panel) regime() string {
	if p.Random {
		return "random"
	}
	return "localized"
}

// PanelResult is a completed figure panel: the panel, its multicast set,
// the saturation rate its grid was scaled to and, at every rate, the
// model's and the simulator's curves. It keeps only the numbers its
// writers read, not the sweep's Results.
type PanelResult struct {
	panel   Panel
	set     string
	satRate float64
	points  []panelPoint
}

// panelPoint is one rate sample of a panel: the model's latencies, verdict
// and largest utilization, and the simulator's latencies with their 95 %
// half-widths, verdict and completed messages.
type panelPoint struct {
	rate                                                   float64
	modelUnicast, modelMulticast, modelMaxRho              float64
	simUnicast, simMulticast, simUnicastCI, simMulticastCI float64
	simCompleted                                           int64
	modelSaturated, simSaturated                           bool
}

// newPanelResult cuts a panel's sweep down to its curves.
func newPanelResult(p Panel, sw SweepResult) PanelResult {
	r := PanelResult{panel: p, set: sw.Set, satRate: sw.SatRate, points: make([]panelPoint, len(sw.Points))}
	for i, pt := range sw.Points {
		model, sim := curves(pt)
		r.points[i] = panelPoint{
			rate:         pt.Rate,
			modelUnicast: model.Unicast, modelMulticast: model.Multicast, modelMaxRho: model.MaxRho,
			simUnicast: sim.Unicast, simMulticast: sim.Multicast, simUnicastCI: sim.UnicastCI, simMulticastCI: sim.MulticastCI,
			simCompleted:   sim.Completed,
			modelSaturated: model.Saturated, simSaturated: sim.Saturated,
		}
	}
	return r
}

// Panel returns the configuration the result was produced from.
func (r PanelResult) Panel() Panel { return r.panel }

// SatRate returns the model saturation rate the panel's rate grid was
// scaled to.
func (r PanelResult) SatRate() float64 { return r.satRate }

// RunFigurePanels regenerates figure panels: each panel's scenario is
// swept over its rate grid with a bounded worker pool (workers <= 0
// selects GOMAXPROCS), evaluating the analytical model and running the
// simulator at every rate. Results are ordered like the input and do not
// depend on the worker count.
func RunFigurePanels(panels []Panel, e Effort, workers int) ([]PanelResult, error) {
	out := make([]PanelResult, len(panels))
	for i, p := range panels {
		sw, err := e.sweep(p.spec(), SweepOptions{Points: p.Points, Workers: workers})
		if err != nil {
			return nil, fmt.Errorf("noc: panel %s: %w", p.ID, err)
		}
		out[i] = newPanelResult(p, sw)
	}
	return out, nil
}

// curves returns a sweep point's model and simulator results.
func curves(p SweepPoint) (model, sim Result) {
	model, _ = p.Get("model")
	sim, _ = p.Get("simulator")
	return model, sim
}

// agreement summarizes model-vs-simulation error over the points where
// both sides are stable.
type agreement struct {
	// MeanUnicastErr and MeanMulticastErr are mean relative errors of the
	// model against the simulation.
	MeanUnicastErr   float64
	MeanMulticastErr float64
	MaxUnicastErr    float64
	MaxMulticastErr  float64
	// Compared is the number of points entering the comparison.
	Compared int
}

// agreementFull computes the error summary over every stable point of the
// sweep, including the knee region just below the model's saturation rate
// where this model family overshoots (visible in the paper's own figures
// as the analytical curve bending up before the simulation's).
func (r PanelResult) agreementFull() agreement { return r.agreement(math.Inf(1)) }

// agreementCore restricts the comparison to rates at most 70% of the
// model's saturation rate — the low-to-medium-load region over which the
// paper claims (and this reproduction confirms) an excellent
// approximation. Above that the service-time fixed point approaches its
// divergence and over-predicts.
func (r PanelResult) agreementCore() agreement { return r.agreement(0.7 * r.satRate) }

func (r PanelResult) agreement(rateCap float64) agreement {
	var a agreement
	var sumU, sumM float64
	for _, pt := range r.points {
		if pt.modelSaturated || pt.simSaturated || pt.rate > rateCap ||
			math.IsNaN(pt.simUnicast) || math.IsNaN(pt.simMulticast) {
			continue
		}
		eu := RelErr(pt.modelUnicast, pt.simUnicast)
		em := RelErr(pt.modelMulticast, pt.simMulticast)
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

// WriteCSV emits the panel's points as CSV with one row per rate sample:
// the four curves of a paper figure panel plus the confidence intervals
// and saturation flags.
func (r PanelResult) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	header := []string{
		"panel", "n", "msglen", "alpha", "regime", "rate",
		"model_unicast", "model_multicast", "model_saturated", "model_max_rho",
		"sim_unicast", "sim_multicast", "sim_unicast_ci95", "sim_multicast_ci95",
		"sim_saturated", "sim_messages",
	}
	if err := cw.Write(header); err != nil {
		return err
	}
	f := func(x float64) string {
		if math.IsNaN(x) {
			return "nan"
		}
		if math.IsInf(x, 1) {
			return "inf"
		}
		return strconv.FormatFloat(x, 'g', 8, 64)
	}
	p := r.panel
	for _, pt := range r.points {
		row := []string{
			p.ID, strconv.Itoa(p.N), strconv.Itoa(p.MsgLen), f(p.Alpha), p.regime(),
			f(pt.rate),
			f(pt.modelUnicast), f(pt.modelMulticast),
			strconv.FormatBool(pt.modelSaturated), f(pt.modelMaxRho),
			f(pt.simUnicast), f(pt.simMulticast),
			f(pt.simUnicastCI), f(pt.simMulticastCI),
			strconv.FormatBool(pt.simSaturated),
			strconv.FormatInt(pt.simCompleted, 10),
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// AsciiPlot renders the four curves of the panel as a fixed-size ASCII
// scatter plot, the terminal stand-in for the paper's figure panel.
// Legend: u = simulated unicast, U = model unicast, m = simulated
// multicast, M = model multicast ('#' marks overstrikes).
func (r PanelResult) AsciiPlot(width, height int) string {
	if width < 20 {
		width = 60
	}
	if height < 8 {
		height = 18
	}
	// marks[i] labels latencies(pt)[i].
	marks := [4]byte{'u', 'U', 'm', 'M'}
	latencies := func(pt panelPoint) [4]float64 {
		return [4]float64{pt.simUnicast, pt.modelUnicast, pt.simMulticast, pt.modelMulticast}
	}
	finite := func(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
	// Axis ranges over finite values only.
	minX, maxX := math.Inf(1), math.Inf(-1)
	minY, maxY := math.Inf(1), math.Inf(-1)
	for _, pt := range r.points {
		minX, maxX = math.Min(minX, pt.rate), math.Max(maxX, pt.rate)
		for _, v := range latencies(pt) {
			if finite(v) {
				minY, maxY = math.Min(minY, v), math.Max(maxY, v)
			}
		}
	}
	if math.IsInf(minY, 1) {
		return fmt.Sprintf("%s: no finite data\n", r.panel.ID)
	}
	if maxY == minY {
		maxY = minY + 1
	}
	if maxX == minX {
		maxX = minX + 1
	}
	grid := make([][]byte, height)
	for i := range grid {
		grid[i] = []byte(strings.Repeat(" ", width))
	}
	for _, pt := range r.points {
		for i, v := range latencies(pt) {
			if !finite(v) {
				continue
			}
			col := int((pt.rate - minX) / (maxX - minX) * float64(width-1))
			row := height - 1 - int((v-minY)/(maxY-minY)*float64(height-1))
			if col < 0 || col >= width || row < 0 || row >= height {
				continue
			}
			if grid[row][col] != ' ' && grid[row][col] != marks[i] {
				grid[row][col] = '#'
			} else {
				grid[row][col] = marks[i]
			}
		}
	}
	var b strings.Builder
	p := r.panel
	fmt.Fprintf(&b, "%s: N=%d M=%d alpha=%.0f%% (%s destinations)   [u/U sim/model unicast, m/M sim/model multicast]\n",
		p.ID, p.N, p.MsgLen, p.Alpha*100, p.regime())
	fmt.Fprintf(&b, "latency (cycles), %.4g .. %.4g\n", minY, maxY)
	for _, row := range grid {
		b.WriteString("|")
		b.Write(row)
		b.WriteString("\n")
	}
	b.WriteString("+" + strings.Repeat("-", width) + "\n")
	fmt.Fprintf(&b, " rate %.3g .. %.3g msg/cycle/node (model saturation %.3g)\n", minX, maxX, r.satRate)
	return b.String()
}

// figurePointJSON is one rate sample with JSON-safe numbers (NaN/Inf
// encode as null, since JSON has no representation for them).
type figurePointJSON struct {
	Rate           float64  `json:"rate"`
	ModelUnicast   *float64 `json:"model_unicast"`
	ModelMulticast *float64 `json:"model_multicast"`
	ModelSaturated bool     `json:"model_saturated"`
	ModelMaxRho    float64  `json:"model_max_rho"`
	SimUnicast     *float64 `json:"sim_unicast"`
	SimMulticast   *float64 `json:"sim_multicast"`
	SimUnicastCI   *float64 `json:"sim_unicast_ci95"`
	SimMulticastCI *float64 `json:"sim_multicast_ci95"`
	SimSaturated   bool     `json:"sim_saturated"`
	SimMessages    int64    `json:"sim_messages"`
}

type figureJSON struct {
	Panel   string            `json:"panel"`
	Figure  string            `json:"figure"`
	N       int               `json:"n"`
	MsgLen  int               `json:"msglen"`
	Alpha   float64           `json:"alpha"`
	Regime  string            `json:"regime"`
	Set     string            `json:"multicast_set"`
	SatRate float64           `json:"model_saturation_rate"`
	Points  []figurePointJSON `json:"points"`
	Core    agreement         `json:"agreement_core"`
	Full    agreement         `json:"agreement_full"`
}

// WriteFiguresJSON emits panel results as a JSON array, the
// machine-readable companion of WriteCSV (NaN and Inf become null).
func WriteFiguresJSON(w io.Writer, results []PanelResult) error {
	out := make([]figureJSON, 0, len(results))
	for _, r := range results {
		p := r.panel
		jr := figureJSON{
			Panel:   p.ID,
			Figure:  p.Figure,
			N:       p.N,
			MsgLen:  p.MsgLen,
			Alpha:   p.Alpha,
			Regime:  p.regime(),
			Set:     r.set,
			SatRate: r.satRate,
			Core:    r.agreementCore(),
			Full:    r.agreementFull(),
		}
		for _, pt := range r.points {
			jr.Points = append(jr.Points, figurePointJSON{
				Rate:           pt.rate,
				ModelUnicast:   jsonNum(pt.modelUnicast),
				ModelMulticast: jsonNum(pt.modelMulticast),
				ModelSaturated: pt.modelSaturated,
				ModelMaxRho:    pt.modelMaxRho,
				SimUnicast:     jsonNum(pt.simUnicast),
				SimMulticast:   jsonNum(pt.simMulticast),
				SimUnicastCI:   jsonNum(pt.simUnicastCI),
				SimMulticastCI: jsonNum(pt.simMulticastCI),
				SimSaturated:   pt.simSaturated,
				SimMessages:    pt.simCompleted,
			})
		}
		out = append(out, jr)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// FiguresSummary renders the model-vs-simulation agreement of several
// panel results as a fixed-width table (relative error over stable
// points). Two regions are reported: "core" covers the rates up to 70% of
// the model's saturation rate (the region the paper's "excellent
// approximation" claim addresses), "full" additionally includes the knee
// just below it, where this model family over-predicts (visible in the
// paper's own figures).
func FiguresSummary(results []PanelResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-8s %-5s %-4s %-5s %-7s %-6s %-10s %-10s %-6s %-10s %-10s\n",
		"panel", "N", "M", "alpha", "regime", "core#", "core-uni", "core-mc",
		"full#", "full-uni", "full-mc")
	for _, r := range results {
		core := r.agreementCore()
		full := r.agreementFull()
		p := r.panel
		regime := "local"
		if p.Random {
			regime = "random"
		}
		fmt.Fprintf(&b, "%-8s %-5d %-4d %-5.2f %-7s %-6d %-10.4f %-10.4f %-6d %-10.4f %-10.4f\n",
			p.ID, p.N, p.MsgLen, p.Alpha, regime,
			core.Compared, core.MeanUnicastErr, core.MeanMulticastErr,
			full.Compared, full.MeanUnicastErr, full.MeanMulticastErr)
	}
	return b.String()
}

// SatRow is one configuration of the saturation study: the model's
// stability boundary as a function of network size, message length and
// multicast rate. The paper's figures encode this implicitly (larger N, M
// and α saturate at lower generation rates); the study makes it explicit.
type SatRow struct {
	N       int     `json:"n"`
	MsgLen  int     `json:"msglen"`
	Alpha   float64 `json:"alpha"`
	SetSize int     `json:"set_size"`
	// SatRate is the highest per-node generation rate the model's fixed
	// point tolerates; Capacity is SatRate x N x MsgLen, the aggregate
	// flit rate in flits/cycle, a size-independent way to compare
	// configurations.
	SatRate  float64 `json:"sat_rate"`
	Capacity float64 `json:"capacity"`
}

// SaturationStudy sweeps the model's saturation rate over the cartesian
// product of the given Quarc sizes, message lengths and multicast
// fractions, using a localized destination set of the given size on the
// L rim (clipped to the quadrant for small networks).
func SaturationStudy(sizes, msgs []int, alphas []float64, setSize int) ([]SatRow, error) {
	var rows []SatRow
	for _, n := range sizes {
		k := min(setSize, n/4)
		sp := Spec{Topology: "quarc", N: n, Pattern: "localized", Port: PortL, Dests: k}
		base, err := sp.Scenario()
		if err != nil {
			return nil, err
		}
		for _, msg := range msgs {
			for _, alpha := range alphas {
				sp.MsgLen, sp.Alpha = msg, alpha
				s, err := sp.ScenarioWith(base)
				if err != nil {
					return nil, err
				}
				sat, err := SaturationRate(s)
				if err != nil {
					return nil, err
				}
				rows = append(rows, SatRow{
					N: n, MsgLen: msg, Alpha: alpha, SetSize: k,
					SatRate:  sat,
					Capacity: sat * float64(n) * float64(msg),
				})
			}
		}
	}
	return rows, nil
}

// SatTable renders the saturation study.
func SatTable(rows []SatRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-5s %-5s %-6s %-5s %14s %16s\n",
		"N", "M", "alpha", "dests", "sat-rate", "flits/cycle")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-5d %-5d %-6.2f %-5d %14.6g %16.4f\n",
			r.N, r.MsgLen, r.Alpha, r.SetSize, r.SatRate, r.Capacity)
	}
	return b.String()
}
