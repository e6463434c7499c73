package noc

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"

	"quarc/internal/routing"
	"quarc/internal/topology"
	"quarc/internal/traffic"
)

// Sentinel errors for scenario construction. Build-time validation wraps
// one of these into every rejection, so callers (and tests) can classify
// failures with errors.Is instead of string-matching.
var (
	// ErrOptionConflict marks option combinations that contradict each
	// other (e.g. Record together with Replay).
	ErrOptionConflict = errors.New("noc: conflicting scenario options")
	// ErrInvalidOption marks out-of-range or nonsensical values (e.g. a
	// zero measurement window, a topology size its builder refuses).
	ErrInvalidOption = errors.New("noc: invalid scenario option")
)

// config is what a Scenario is resolved from: a materialized Spec — every
// default filled in, so a zero field means zero and not, as on the wire,
// "use the default" — plus the process-local attachments that have no
// wire form. Spec.Scenario canonicalizes into it; options write it.
type config struct {
	Spec
	record, replay *TraceWorkload // Record / Replay option values
}

// apply runs the options in order, then fills the table names an
// option left empty, so the stored form is materialized again.
func (c *config) apply(opts []Option) error {
	for _, opt := range opts {
		if err := opt(c); err != nil {
			return err
		}
	}
	c.fillNames()
	return nil
}

// Option mutates a scenario configuration: one of the process-local
// attachments (Record, Replay) or one of the few Spec fields
// the benchmark harness sets directly. Options are applied in order;
// later options override earlier ones.
type Option func(*config) error

// Scenario is one fully resolved evaluation configuration: a routed
// topology, a workload and the engine knobs. Build it from a Spec with
// Spec.Scenario and hand it to any Evaluator; the same Scenario value drives the analytical
// model and the discrete-event simulator, so both sides always see exactly
// the same configuration.
type Scenario struct {
	cfg config
	// router is the scenario's route table: the model, the workload and
	// the replayer all read it, and With forks share it.
	router *routing.Table
	set    routing.MulticastSet
	dest   traffic.Dest
}

// The options below are the Spec fields the frozen benchmark harness
// still sets one at a time (DESIGN.md §13): everything else is stated as
// a Spec. They take their values literally — Warmup(0) is a cold start
// and Seed(0) is seed 0, where the wire form reads a zero as the default.

// Quarc selects the Quarc NoC with n nodes (multiple of 4, at least 8) and
// its all-port BRCP router.
func Quarc(n int) Option {
	return func(c *config) error {
		c.Topology, c.N, c.W, c.H, c.Dims, c.Router = "quarc", n, 0, 0, 0, ""
		return nil
	}
}

// MsgLen sets the message length in flits (at least 2; default 32).
func MsgLen(flits int) Option {
	return func(c *config) error {
		c.MsgLen = flits
		return nil
	}
}

// Rate sets the per-node Poisson message generation rate (messages/cycle).
func Rate(rate float64) Option {
	return func(c *config) error {
		c.Rate = rate
		return nil
	}
}

// Alpha sets the multicast fraction of generated messages.
func Alpha(alpha float64) Option {
	return func(c *config) error {
		c.Alpha = alpha
		return nil
	}
}

// LocalizedDests puts all k multicast destinations on one rim/port — the
// paper's Figure 7 regime. Quarc ports are PortL, PortCL, PortCR, PortR.
func LocalizedDests(port, k int) Option {
	return func(c *config) error {
		c.Pattern, c.Dests, c.Port, c.SetSeed = "localized", k, port, 0
		c.SetStream, c.High, c.Low = 0, nil, nil
		return nil
	}
}

// Seed sets the simulation seed (default 1).
func Seed(seed uint64) Option {
	return func(c *config) error {
		c.Seed = seed
		return nil
	}
}

// Warmup sets the number of cycles simulated before statistics are
// collected (default 10000).
func Warmup(cycles float64) Option {
	return func(c *config) error {
		c.Warmup = cycles
		return nil
	}
}

// Measure sets the measurement window in cycles (default 100000).
func Measure(cycles float64) Option {
	return func(c *config) error {
		c.Measure = cycles
		return nil
	}
}

// DefaultMetricsBuckets is the Series resolution a Spec with Metrics set
// and MetricsBuckets zero selects.
const DefaultMetricsBuckets = 100

// MaxMetricsBuckets bounds the Series resolution a scenario accepts.
const MaxMetricsBuckets = 4096

// Effort bundles the simulation effort knobs (warmup, measurement window,
// seed) so presets can be passed around as one value. The figure panels
// and ablation studies write it into their Specs, so a zero field selects
// the Spec default, as on the wire.
type Effort struct {
	Warmup  float64
	Measure float64
	Seed    uint64
}

// DefaultEffort is long enough for tight confidence intervals on every
// figure panel.
func DefaultEffort() Effort { return Effort{Warmup: 20000, Measure: 200000, Seed: 0xC0FFEE} }

// QuickEffort is a cheaper setting for tests and exploratory runs.
func QuickEffort() Effort { return Effort{Warmup: 5000, Measure: 40000, Seed: 0xC0FFEE} }

// sweep writes the effort into sp, resolves it through Spec.Scenario and
// sweeps it: the one resolve path of every figure panel and ablation
// study.
func (e Effort) sweep(sp Spec, o SweepOptions) (SweepResult, error) {
	sp.Warmup, sp.Measure, sp.Seed = e.Warmup, e.Measure, e.Seed
	s, err := sp.Scenario()
	if err != nil {
		return SweepResult{}, err
	}
	return Sweep(s, o)
}

// NewScenario applies the options to the default Spec and resolves the
// result, as Spec.Scenario resolves a document: it builds the routed
// topology from the topology table and materializes the multicast
// destination set.
func NewScenario(opts ...Option) (*Scenario, error) {
	cfg := config{Spec: Spec{}.Canonical()}
	if err := cfg.apply(opts); err != nil {
		return nil, err
	}
	return resolve(cfg)
}

// With derives a new scenario from an existing one with extra options
// applied — the cheap way to fork a base configuration across rates or
// message lengths, or to attach a recorder, replayer or sink. A changed
// Spec forks through Spec.ScenarioWith.
func (s *Scenario) With(opts ...Option) (*Scenario, error) {
	// The copy shares the routed topology, destination set and spatial
	// pattern (all read-only after construction); it stands as long as
	// the options leave the structure alone.
	fork := *s
	if err := fork.cfg.apply(opts); err != nil {
		return nil, err
	}
	if !sameStructure(&fork.cfg, &s.cfg) {
		return resolve(fork.cfg)
	}
	return fork.checked()
}

func resolve(cfg config) (*Scenario, error) {
	topo, err := lookup(topologies, "topology", cfg.Topology)
	if err != nil {
		return nil, err
	}
	if cfg.Router != topo.router && !slices.Contains(Routers(), cfg.Router) {
		return nil, fmt.Errorf("%w: unknown router %q (known: %v)", ErrInvalidOption, cfg.Router, Routers())
	}
	buildPattern, err := lookup(patterns, "traffic pattern", cfg.Pattern)
	if err != nil {
		return nil, err
	}

	// Builder rejections (bad sizes, mismatched families) are
	// configuration mistakes like any other option error; they wrap the
	// sentinel so callers — the quarcd error mapping in particular — can
	// classify them without string matching.
	s := &Scenario{cfg: cfg}
	router, err := topo.build(&s.cfg)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrInvalidOption, err)
	}
	if cfg.Router != topo.router {
		return nil, fmt.Errorf("%w: noc: a %s topology is routed by the %s router, not %s", ErrInvalidOption, cfg.Topology, topo.router, cfg.Router)
	}
	if s.set, err = buildPattern(router, &s.cfg); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrInvalidOption, err)
	}
	buildSpatial, err := lookup(spatials, "spatial pattern", cfg.Spatial)
	if err != nil {
		return nil, err
	}
	if s.dest, err = buildSpatial(router, &s.cfg); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrInvalidOption, err)
	}

	// The builders above see the concrete router (some type-assert it);
	// everything downstream reads the scenario's one route table.
	if s.router, err = routing.NewTable(router, s.set); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrInvalidOption, err)
	}
	return s.checked()
}

// checked returns s once validate accepts it; every path that makes a
// Scenario ends here, so a *Scenario is always well-formed.
func (s *Scenario) checked() (*Scenario, error) {
	if err := s.validate(); err != nil {
		return nil, err
	}
	return s, nil
}

// validate checks the resolved configuration. Every rejection wraps
// ErrInvalidOption or ErrOptionConflict.
func (s *Scenario) validate() error {
	if err := s.trafficSpec().ValidateFor(s.router.Graph().Nodes()); err != nil {
		return fmt.Errorf("%w: %w", ErrInvalidOption, err)
	}
	if s.cfg.MsgLen < 2 {
		return fmt.Errorf("%w: message length %d too short (need >= 2 flits)", ErrInvalidOption, s.cfg.MsgLen)
	}
	if s.cfg.Measure <= 0 || math.IsNaN(s.cfg.Measure) || math.IsInf(s.cfg.Measure, 0) {
		return fmt.Errorf("%w: measurement window %v must be a positive number of cycles", ErrInvalidOption, s.cfg.Measure)
	}
	if s.cfg.Warmup < 0 || math.IsNaN(s.cfg.Warmup) || math.IsInf(s.cfg.Warmup, 0) {
		return fmt.Errorf("%w: warmup %v must be a non-negative number of cycles", ErrInvalidOption, s.cfg.Warmup)
	}
	if n := s.router.Graph().Nodes(); s.cfg.TraceLimit > 0 && s.cfg.TraceNode >= n {
		return fmt.Errorf("%w: trace node %d outside the %d-node network", ErrInvalidOption, s.cfg.TraceNode, n)
	}
	if s.cfg.record != nil && s.cfg.replay != nil {
		return fmt.Errorf("%w: a scenario cannot both record and replay a trace", ErrOptionConflict)
	}
	if (s.cfg.record != nil || s.cfg.replay != nil) && s.cfg.Replications > 1 {
		return fmt.Errorf("%w: trace record/replay requires one replication, got %d", ErrOptionConflict, s.cfg.Replications)
	}
	if s.cfg.replay != nil {
		if s.cfg.replay.Empty() {
			return fmt.Errorf("%w: replay of an empty trace (record one first, or read one)", ErrInvalidOption)
		}
		if got, want := s.cfg.replay.Nodes(), s.router.Graph().Nodes(); got != want {
			return fmt.Errorf("%w: replaying a %d-node trace on a %d-node network", ErrOptionConflict, got, want)
		}
		if got, want := s.cfg.replay.tr.Topo, traffic.TopologyFingerprint(s.router.Graph()); got != 0 && got != want {
			return fmt.Errorf("%w: the trace was captured on a different topology than the scenario's", ErrOptionConflict)
		}
		if got := s.cfg.replay.tr.MsgLen; got != 0 && got != s.cfg.MsgLen {
			return fmt.Errorf("%w: the trace was recorded with %d-flit messages, the scenario uses %d (set MsgLen(%d) to reproduce the recording)", ErrOptionConflict, got, s.cfg.MsgLen, got)
		}
	}
	return nil
}

// trafficSpec assembles the traffic specification both evaluators
// consume.
func (s *Scenario) trafficSpec() traffic.Spec {
	return traffic.Spec{
		Rate:          s.cfg.Rate,
		MulticastFrac: s.cfg.Alpha,
		Set:           s.set,
		Arrival:       s.cfg.Arrival,
		BurstLen:      s.cfg.BurstLen,
		DutyCycle:     s.cfg.DutyCycle,
		Perm:          s.dest.Perm,
		Weights:       s.dest.Weights,
	}
}

// Nodes returns the network size.
func (s *Scenario) Nodes() int { return s.router.Graph().Nodes() }

// SetString renders the multicast destination set in the paper's per-port
// bitstring notation.
func (s *Scenario) SetString() string { return s.set.String() }

// PortName returns a human-readable label for an injection port: the
// paper's L/LO/RO/R labels on a Quarc, generic "P<i>" labels elsewhere.
func (s *Scenario) PortName(port int) string {
	if strings.HasPrefix(s.cfg.Topology, "quarc") && s.router.Graph().Ports() == topology.QuarcPorts {
		return topology.QuarcPortName(port)
	}
	return fmt.Sprintf("P%d", port)
}

// BranchInfo describes one stream of a multicast operation from a given
// source: the worm injected into one port.
type BranchInfo struct {
	// Port is the injection port index; PortName its human-readable label.
	Port     int    `json:"port"`
	PortName string `json:"port_name"`
	// Hops is the header pipeline depth (channel crossings) of the branch.
	Hops int `json:"hops"`
	// Walk lists the routers the stream visits after the source, in order.
	Walk []int `json:"walk"`
	// Targets lists the absorbing nodes in visit order; the final element
	// is the branch endpoint.
	Targets []int `json:"targets"`
	// Wait is the model's expected total header waiting time along the
	// branch; zero unless filled in by Model with Detail enabled.
	Wait float64 `json:"wait,omitempty"`
}

// Branches returns the multicast streams a message from src spawns under
// the scenario's destination set — the paper's Fig. 3 walk when the set is
// a broadcast.
func (s *Scenario) Branches(src int) ([]BranchInfo, error) {
	infos, _, err := s.branches(src)
	return infos, err
}

// branches additionally returns the raw routed branches, index-aligned
// with the infos, for callers that need the channel paths.
func (s *Scenario) branches(src int) ([]BranchInfo, []routing.Branch, error) {
	if s.set.Empty() {
		return nil, nil, fmt.Errorf("noc: scenario has no multicast destination set")
	}
	branches, err := s.router.MulticastBranches(topology.NodeID(src), s.set)
	if err != nil {
		return nil, nil, err
	}
	g := s.router.Graph()
	out := make([]BranchInfo, 0, len(branches))
	for _, b := range branches {
		info := BranchInfo{
			Port:     b.Port,
			PortName: s.PortName(b.Port),
			Hops:     len(b.Path) - 1,
		}
		for _, id := range b.Path[1 : len(b.Path)-1] {
			info.Walk = append(info.Walk, int(g.Channel(id).Dst))
		}
		for _, t := range b.Targets {
			info.Targets = append(info.Targets, int(t))
		}
		out = append(out, info)
	}
	return out, branches, nil
}
