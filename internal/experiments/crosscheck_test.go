package experiments

import (
	"math"
	"strings"
	"testing"

	"quarc/internal/core"
	"quarc/internal/routing"
	"quarc/internal/topology"
	"quarc/internal/traffic"
	"quarc/internal/wormhole"
)

// grantCounter is a hook subscriber counting each channel's grants inside
// a run's measurement window.
type grantCounter struct {
	from, to float64
	grants   map[topology.ChannelID]float64
}

// countGrants attaches a grant counter for cfg's window to nw.
func countGrants(nw *wormhole.Network, cfg wormhole.Config) *grantCounter {
	g := &grantCounter{from: cfg.Warmup, to: cfg.Warmup + cfg.Measure, grants: map[topology.ChannelID]float64{}}
	nw.Attach(g, wormhole.HookChannelGranted)
	return g
}

func (g *grantCounter) Func(c wormhole.HookCtx) {
	if c.Time >= g.from && c.Time < g.to {
		g.grants[c.Channel]++
	}
}

// rate is the channel's measured arrival rate in grants per cycle.
func (g *grantCounter) rate(id topology.ChannelID) float64 { return g.grants[id] / (g.to - g.from) }

// attachDetail attaches a detail subscriber for a run of cfg over rt's
// routes to nw.
func attachDetail(t *testing.T, nw *wormhole.Network, rt routing.Router, cfg wormhole.Config) *wormhole.Instrumentation {
	t.Helper()
	routes, err := routing.NewTable(rt, routing.MulticastSet{})
	if err != nil {
		t.Fatal(err)
	}
	detail := wormhole.NewInstrumentation(routes, cfg)
	nw.Attach(detail, detail.Positions()...)
	return detail
}

// TestModelChannelRatesMatchSimulator is the strongest structural
// cross-check between the two halves of the reproduction: the analytical
// model's flow enumeration assigns every channel an arrival rate λ, and
// the simulator independently counts grants per channel. Summed over each
// channel class, the two must agree — if they do not, model and simulator
// are not describing the same network.
func TestModelChannelRatesMatchSimulator(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation in -short mode")
	}
	q, err := topology.NewQuarc(16)
	if err != nil {
		t.Fatal(err)
	}
	rt := routing.NewQuarcRouter(q)
	set, err := rt.LocalizedSet(topology.PortCL, 3)
	if err != nil {
		t.Fatal(err)
	}
	spec := traffic.Spec{Rate: 0.003, MulticastFrac: 0.08, Set: set}
	const msgLen = 16

	m, err := core.NewModel(core.Input{Router: rt, Spec: spec, MsgLen: msgLen})
	if err != nil {
		t.Fatal(err)
	}
	w, err := traffic.NewWorkload(rt, spec, 1234)
	if err != nil {
		t.Fatal(err)
	}
	cfg := wormhole.Config{MsgLen: msgLen, Warmup: 5000, Measure: 150000}
	nw, err := wormhole.New(rt.Graph(), w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	grants := countGrants(nw, cfg)
	if nw.Run().Saturated {
		t.Fatal("unexpected saturation")
	}

	// Aggregate per channel class to average out per-channel noise.
	type agg struct{ model, sim float64 }
	byClass := map[string]*agg{}
	key := func(c topology.Channel) string {
		switch c.Kind {
		case topology.Injection:
			return "inj"
		case topology.Ejection:
			return "ej"
		default:
			return map[int]string{
				topology.RimPlus: "rim+", topology.RimMinus: "rim-",
				topology.CrossL: "crossL", topology.CrossR: "crossR",
			}[c.Class]
		}
	}
	for _, c := range rt.Graph().Channels() {
		k := key(c)
		a, ok := byClass[k]
		if !ok {
			a = &agg{}
			byClass[k] = a
		}
		a.model += m.Lambda(c.ID)
		a.sim += grants.rate(c.ID)
	}
	for k, a := range byClass {
		if a.model == 0 && a.sim == 0 {
			continue
		}
		if a.model == 0 || a.sim == 0 {
			t.Errorf("class %s: model total %v, sim total %v — one side is zero", k, a.model, a.sim)
			continue
		}
		if e := math.Abs(a.model-a.sim) / a.model; e > 0.03 {
			t.Errorf("class %s: model rate %v vs sim %v (err %.3f > 3%%)", k, a.model, a.sim, e)
		}
	}
}

// TestPerDistanceLatencyMatchesModel checks the model's hop term: the
// simulator's zero-load mean latency at header depth d must be exactly
// d + msgLen, and at light load stay within a cycle of the model's
// per-path prediction.
func TestPerDistanceLatencyMatchesModel(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation in -short mode")
	}
	q, err := topology.NewQuarc(16)
	if err != nil {
		t.Fatal(err)
	}
	rt := routing.NewQuarcRouter(q)
	spec := traffic.Spec{Rate: 0.0004}
	const msgLen = 24
	w, err := traffic.NewWorkload(rt, spec, 5)
	if err != nil {
		t.Fatal(err)
	}
	cfg := wormhole.Config{MsgLen: msgLen, Warmup: 2000, Measure: 120000}
	nw, err := wormhole.New(rt.Graph(), w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	detail := attachDetail(t, nw, rt, cfg)
	nw.Run()
	for depth, r := range detail.PerDistanceUnicast {
		if r.N() < 30 {
			continue
		}
		zeroLoad := float64(depth + msgLen)
		if r.Mean() < zeroLoad {
			t.Errorf("depth %d: mean %.3f below the zero-load floor %.0f", depth, r.Mean(), zeroLoad)
		}
		if r.Mean() > zeroLoad+1.5 {
			t.Errorf("depth %d: mean %.3f too far above zero-load %.0f for rate %v",
				depth, r.Mean(), zeroLoad, spec.Rate)
		}
		// The minimum observed latency at a depth is exactly the
		// zero-load latency (some message always gets a clear path at
		// this load).
		if r.Min() != zeroLoad {
			t.Errorf("depth %d: min %.3f, want exactly %.0f", depth, r.Min(), zeroLoad)
		}
	}
	if len(detail.PerDistanceUnicast) < 4 {
		t.Fatalf("only %d distinct depths observed", len(detail.PerDistanceUnicast))
	}
}

// TestDrainRemovesCensoring verifies the drain option: with Drain, every
// measured message completes, so Generated == Completed.
func TestDrainRemovesCensoring(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation in -short mode")
	}
	q, err := topology.NewQuarc(16)
	if err != nil {
		t.Fatal(err)
	}
	rt := routing.NewQuarcRouter(q)
	w, err := traffic.NewWorkload(rt, traffic.Spec{Rate: 0.004}, 9)
	if err != nil {
		t.Fatal(err)
	}
	nw, err := wormhole.New(rt.Graph(), w, wormhole.Config{
		MsgLen: 32, Warmup: 2000, Measure: 20000, Drain: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	res := nw.Run()
	if res.Saturated {
		t.Fatal("unexpected saturation")
	}
	if res.Generated != res.Completed {
		t.Fatalf("drain left %d of %d messages incomplete", res.Generated-res.Completed, res.Generated)
	}
	// Drained runs may extend past the window, but not past one extra
	// window length.
	if res.Time > 2000+20000+20000+1 {
		t.Fatalf("drain ran too long: %v", res.Time)
	}
}

// TestInstrumentationSummaryRenders exercises the report path.
func TestInstrumentationSummaryRenders(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation in -short mode")
	}
	q, err := topology.NewQuarc(16)
	if err != nil {
		t.Fatal(err)
	}
	rt := routing.NewQuarcRouter(q)
	set, err := rt.LocalizedSet(topology.PortL, 2)
	if err != nil {
		t.Fatal(err)
	}
	w, err := traffic.NewWorkload(rt, traffic.Spec{Rate: 0.002, MulticastFrac: 0.1, Set: set}, 3)
	if err != nil {
		t.Fatal(err)
	}
	cfg := wormhole.Config{MsgLen: 16, Warmup: 1000, Measure: 20000}
	nw, err := wormhole.New(rt.Graph(), w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	detail := attachDetail(t, nw, rt, cfg)
	nw.Run()
	sum := detail.Summary()
	for _, want := range []string{"injection port", "header depth", "percentiles"} {
		if !strings.Contains(sum, want) {
			t.Errorf("summary missing %q:\n%s", want, sum)
		}
	}
}
