package noc

import (
	"errors"
	"fmt"
	"math"
	"strings"

	"quarc/internal/obs"
	"quarc/internal/routing"
	"quarc/internal/topology"
	"quarc/internal/traffic"
	"quarc/internal/wormhole"
)

// Sentinel errors for scenario construction. Build-time validation wraps
// one of these into every rejection, so callers (and tests) can classify
// failures with errors.Is instead of string-matching.
var (
	// ErrOptionConflict marks option combinations that contradict each
	// other (e.g. Record together with Replay).
	ErrOptionConflict = errors.New("noc: conflicting scenario options")
	// ErrInvalidOption marks out-of-range or nonsensical option values
	// (e.g. a zero measurement window, replications < 1).
	ErrInvalidOption = errors.New("noc: invalid scenario option")
)

// WaitFormula selects the M/G/1 waiting-time formula of the analytical
// model (see DESIGN.md §2).
type WaitFormula int

const (
	// PKStandard is the standard Pollaczek-Khinchine mean wait, the
	// default and the form that reproduces the simulator.
	PKStandard WaitFormula = iota
	// PaperEq3Literal evaluates the paper's Eq. 3 exactly as printed; it
	// exists to demonstrate the printed formula cannot reproduce the
	// paper's own figures.
	PaperEq3Literal
)

// ServiceFormula selects the channel service-time recurrence of the
// analytical model (see DESIGN.md §3).
type ServiceFormula int

const (
	// PaperEq6 is the paper's recurrence (one extra cycle per downstream
	// hop), the default.
	PaperEq6 ServiceFormula = iota
	// TailRelease drops the per-hop cycle, modelling the physical channel
	// holding time exactly.
	TailRelease
)

// config is what a Scenario is resolved from: a materialized Spec — every
// default filled in, so a zero field means zero and not, as on the wire,
// "use the default" — plus the process-local attachments that have no
// wire form. Options write it; Spec.Scenario canonicalizes into it.
type config struct {
	Spec
	record, replay *TraceWorkload // Record / Replay option values
	metricsSink    obs.Sink       // MetricsSink tee for the raw record stream
	stream         uint64         // PatternConfig.stream (figure panels)
}

// apply runs the options in order, then fills the registry names an
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

// Option mutates a scenario configuration. Options are applied in order;
// later options override earlier ones.
type Option func(*config) error

// Scenario is one fully resolved evaluation configuration: a routed
// topology, a workload and the engine knobs. Build it with NewScenario and
// hand it to any Evaluator; the same Scenario value drives the analytical
// model and the discrete-event simulator, so both sides always see exactly
// the same configuration.
type Scenario struct {
	cfg    config
	router routing.Router
	set    routing.MulticastSet
	dest   traffic.Dest
}

// Topology options.

// Quarc selects the Quarc NoC with n nodes (multiple of 4, at least 8) and
// its all-port BRCP router.
func Quarc(n int) Option { return Topology("quarc", TopologyConfig{N: n}) }

// QuarcOnePort selects the one-port Quarc variant (identical links, a
// single injection/ejection port) — the ablation baseline.
func QuarcOnePort(n int) Option { return Topology("quarc-oneport", TopologyConfig{N: n}) }

// Spidergon selects the Spidergon NoC with n nodes.
func Spidergon(n int) Option { return Topology("spidergon", TopologyConfig{N: n}) }

// Mesh selects a w x h mesh with XY unicast routing and dual-path Hamilton
// multicast.
func Mesh(w, h int) Option { return Topology("mesh", TopologyConfig{W: w, H: h}) }

// Torus selects a w x h torus.
func Torus(w, h int) Option { return Topology("torus", TopologyConfig{W: w, H: h}) }

// Hypercube selects a hypercube with the given number of dimensions.
func Hypercube(dims int) Option { return Topology("hypercube", TopologyConfig{Dims: dims}) }

// Topology selects a registered topology by name — the declarative form
// the named options above reduce to. A router that is the current
// topology's default follows the new topology; one set with Router stays.
func Topology(name string, c TopologyConfig) Option {
	return func(cfg *config) error {
		if cfg.Router == defaultRouterFor(cfg.Topology) {
			cfg.Router = ""
		}
		cfg.Topology, cfg.N, cfg.W, cfg.H, cfg.Dims = name, c.N, c.W, c.H, c.Dims
		return nil
	}
}

// Router overrides the topology's default router with a registered one.
func Router(name string) Option {
	return func(cfg *config) error {
		cfg.Router = name
		return nil
	}
}

// Workload options.

// MsgLen sets the message length in flits (at least 2; default 32).
func MsgLen(flits int) Option {
	return func(cfg *config) error {
		cfg.MsgLen = flits
		return nil
	}
}

// Rate sets the per-node Poisson message generation rate (messages/cycle).
func Rate(rate float64) Option {
	return func(cfg *config) error {
		cfg.Rate = rate
		return nil
	}
}

// Alpha sets the multicast fraction of generated messages.
func Alpha(alpha float64) Option {
	return func(cfg *config) error {
		cfg.Alpha = alpha
		return nil
	}
}

// Hotspot skews unicast destinations: with probability frac a unicast goes
// to node instead of a uniform destination. For several hotspots with
// individual weights use HotspotDests.
func Hotspot(frac float64, node int) Option {
	return func(cfg *config) error {
		cfg.HotspotFrac = frac
		cfg.HotspotNode = node
		return nil
	}
}

// Arrival-process options (when a node injects).

// Arrival selects a registered arrival process by name: "poisson" (the
// default), "bernoulli" (per-cycle coin flips, arrivals on the cycle
// grid), "onoff" (bursts — configure with OnOff) or "periodic"
// (deterministic spacing with a random per-node phase). All processes
// offer the same long-run Rate; they differ in how the load clumps.
func Arrival(name string) Option {
	return func(cfg *config) error {
		cfg.Arrival = name
		return nil
	}
}

// OnOff selects the bursty on/off arrival process: bursts of
// geometrically many messages (mean burstLen >= 1) injected at
// Rate/duty, separated by off-periods sized so the long-run rate stays
// Rate. duty in (0,1]; smaller values concentrate the same offered load
// into sharper bursts.
func OnOff(burstLen, duty float64) Option {
	return func(cfg *config) error {
		cfg.Arrival = "onoff"
		cfg.BurstLen = burstLen
		cfg.DutyCycle = duty
		return nil
	}
}

// Spatial-pattern options (where a unicast goes).

// Permutation selects a registered spatial pattern by name: "transpose",
// "bit-reversal", "bit-complement", "shuffle" or "tornado" (or "uniform",
// the default). Each source then sends all its unicasts to one fixed
// destination; a source the permutation maps to itself falls silent, the
// standard convention. Multicasts (Alpha > 0) still follow the multicast
// destination set.
func Permutation(name string) Option { return Spatial(name, SpatialConfig{}) }

// HotspotDests is the weight-matrix hotspot pattern: fraction frac of
// every source's unicasts is split over the given nodes proportionally to
// weights (nil means equally), the rest is uniform. The single-hotspot
// Hotspot option is the special case of one node.
func HotspotDests(frac float64, nodes []int, weights []float64) Option {
	return Spatial("hotspot", SpatialConfig{Frac: frac, Nodes: nodes, Weights: weights})
}

// Spatial selects a registered spatial (unicast-destination) pattern by
// name — the declarative form Permutation and HotspotDests reduce to.
func Spatial(name string, c SpatialConfig) Option {
	return func(cfg *config) error {
		cfg.Spatial, cfg.SpatialFrac = name, c.Frac
		cfg.SpatialNodes, cfg.SpatialWeights = c.Nodes, c.Weights
		return nil
	}
}

// Traffic-pattern options.

// RandomDests selects k multicast destinations uniformly at random
// (reproducibly, from seed) — the paper's Figure 6 regime.
func RandomDests(k int, seed uint64) Option {
	return Pattern("random", PatternConfig{K: k, Seed: seed})
}

// LocalizedDests puts all k multicast destinations on one rim/port — the
// paper's Figure 7 regime. Quarc ports are PortL, PortCL, PortCR, PortR.
func LocalizedDests(port, k int) Option {
	return Pattern("localized", PatternConfig{Port: port, K: k})
}

// Broadcast targets every node in the network.
func Broadcast() Option { return Pattern("broadcast", PatternConfig{}) }

// HighLowDests selects Hamilton-path offsets for mesh/torus multicast:
// high lists forward offsets, low backward ones.
func HighLowDests(high, low []int) Option {
	return Pattern("highlow", PatternConfig{High: high, Low: low})
}

// Pattern selects a registered traffic pattern by name — the declarative
// form the named options above reduce to.
func Pattern(name string, c PatternConfig) Option {
	return func(cfg *config) error {
		cfg.Pattern, cfg.Dests, cfg.Port, cfg.SetSeed = name, c.K, c.Port, c.Seed
		cfg.High, cfg.Low, cfg.stream = c.High, c.Low, c.stream
		return nil
	}
}

// Analytical-model options.

// ModelDamping sets the fixed-point damping factor in (0,1].
func ModelDamping(d float64) Option {
	return func(cfg *config) error {
		cfg.Damping = d
		return nil
	}
}

// ModelMaxIter bounds the fixed-point iterations.
func ModelMaxIter(n int) Option {
	return func(cfg *config) error {
		cfg.MaxIter = n
		return nil
	}
}

// ModelTol sets the fixed-point convergence tolerance.
func ModelTol(tol float64) Option {
	return func(cfg *config) error {
		cfg.Tol = tol
		return nil
	}
}

// ModelWait selects the M/G/1 waiting-time formula.
func ModelWait(f WaitFormula) Option {
	return func(cfg *config) error {
		if f < 0 || int(f) >= len(waitNames) {
			return fmt.Errorf("%w: unknown wait formula %d", ErrInvalidOption, f)
		}
		cfg.Wait = waitNames[f]
		return nil
	}
}

// ModelService selects the service-time recurrence.
func ModelService(f ServiceFormula) Option {
	return func(cfg *config) error {
		if f < 0 || int(f) >= len(serviceNames) {
			return fmt.Errorf("%w: unknown service formula %d", ErrInvalidOption, f)
		}
		cfg.Service = serviceNames[f]
		return nil
	}
}

// Simulator options.

// Seed sets the simulation seed (default 1).
func Seed(seed uint64) Option {
	return func(cfg *config) error {
		cfg.Seed = seed
		return nil
	}
}

// Warmup sets the number of cycles simulated before statistics are
// collected (default 10000).
func Warmup(cycles float64) Option {
	return func(cfg *config) error {
		cfg.Warmup = cycles
		return nil
	}
}

// Measure sets the measurement window in cycles (default 100000).
func Measure(cycles float64) Option {
	return func(cfg *config) error {
		cfg.Measure = cycles
		return nil
	}
}

// SatQueue sets the injection backlog at which a run is declared
// saturated.
func SatQueue(n int) Option {
	return func(cfg *config) error {
		cfg.SatQueue = n
		return nil
	}
}

// Drain lets messages generated inside the measurement window finish after
// it closes, removing the censoring bias against long-latency messages.
func Drain(on bool) Option {
	return func(cfg *config) error {
		cfg.Drain = on
		return nil
	}
}

// Detail enables fine-grained output: the simulator's per-port and
// per-distance breakdowns, and the model's per-branch waits.
func Detail(on bool) Option {
	return func(cfg *config) error {
		cfg.Detail = on
		return nil
	}
}

// MulticastPriority switches channel arbitration from pure FIFO to
// multicast-first.
func MulticastPriority(on bool) Option {
	return func(cfg *config) error {
		cfg.MulticastPriority = on
		return nil
	}
}

// Trace records the simulator events of messages generated at node,
// capped at limit events (0 selects the simulator's default cap).
func Trace(node, limit int) Option {
	return func(cfg *config) error {
		if limit == 0 {
			limit = wormhole.DefaultTraceLimit
		}
		cfg.TraceNode, cfg.TraceLimit = node, limit
		return nil
	}
}

// DefaultMetricsBuckets is the Series resolution Metrics selects when
// the caller does not size it explicitly (via the Spec codec's
// canonical form, which materializes the default).
const DefaultMetricsBuckets = 100

// MaxMetricsBuckets bounds the Series resolution a scenario accepts.
const MaxMetricsBuckets = 4096

// Metrics enables the observability recorder: the simulator attaches a
// batched recording hook at every hook position and aggregates the
// records into Result.Series — per-channel utilization, injection/
// ejection counts, per-worm latency and queue-occupancy series over
// buckets equal time buckets of the run. Recording is purely
// observational: the Result's measurements are bitwise-identical to a
// run without it. The analytical model ignores this option (its result
// has no time axis). Buckets in [1, MaxMetricsBuckets].
func Metrics(buckets int) Option {
	return func(cfg *config) error {
		if buckets < 1 || buckets > MaxMetricsBuckets {
			return fmt.Errorf("%w: metrics buckets %d outside [1, %d]", ErrInvalidOption, buckets, MaxMetricsBuckets)
		}
		cfg.Metrics, cfg.MetricsBuckets = true, buckets
		return nil
	}
}

// MetricsSink additionally streams the raw observability records into
// s while Metrics is enabled — e.g. an obs WAL file sink for offline
// inspection (quarcsim -obs). The sink must be safe for concurrent
// Append when the scenario runs Replications(n > 1): every replication
// shares it. Not part of the declarative Spec surface (sinks are
// process-local, like trace record/replay targets).
func MetricsSink(s Sink) Option {
	return func(cfg *config) error {
		cfg.metricsSink = s
		return nil
	}
}

// Replications sets the number of independent seeded replications the
// simulator runs per evaluation (default 1). Each replication r derives
// its seed deterministically from the scenario seed (replication 0 uses
// the scenario seed itself, so Replications(1) is bitwise-identical to
// the single-run path). Their per-run means are aggregated into one
// Result — mean latencies with across-replication confidence intervals,
// summed counts — by the independent-replications method. The analytical
// model ignores this option (it is deterministic).
func Replications(n int) Option {
	return func(cfg *config) error {
		if n < 1 {
			return fmt.Errorf("%w: replications %d < 1", ErrInvalidOption, n)
		}
		cfg.Replications = n
		return nil
	}
}

// Parallelism bounds the worker goroutines used to run replications of a
// single Evaluate call (default, and any k <= 0: GOMAXPROCS). The
// aggregated Result is bitwise-identical for every k — replication
// results are combined in replication order, not completion order. Inside
// a Sweep the option is advisory only: the sweep schedules every
// (point, replication) pair on its own shared worker pool.
func Parallelism(k int) Option {
	return func(cfg *config) error {
		cfg.Parallelism = k
		return nil
	}
}

// IntraParallelism is accepted and ignored; kept for wire compatibility.
// It once selected an intra-run parallel engine, which was deleted after
// it measured slower than the serial one; a run's Result is the same for
// every p. Spend cores on Replications and Sweep points instead.
//
// Deprecated: drop the option; it is a no-op.
func IntraParallelism(p int) Option {
	return func(cfg *config) error {
		cfg.IntraParallelism = p
		return nil
	}
}

// Effort bundles the simulation effort knobs (warmup, measurement window,
// seed) so presets can be passed around as one value.
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

// SimEffort applies an effort preset as an option.
func SimEffort(e Effort) Option {
	return func(cfg *config) error {
		cfg.Warmup = e.Warmup
		cfg.Measure = e.Measure
		cfg.Seed = e.Seed
		return nil
	}
}

// NewScenario resolves a declarative configuration into a runnable
// scenario: it applies the options to the default Spec, builds the
// topology and router through the registries and materializes the
// multicast destination set.
func NewScenario(opts ...Option) (*Scenario, error) {
	cfg := config{Spec: Spec{}.Canonical()}
	if err := cfg.apply(opts); err != nil {
		return nil, err
	}
	return resolve(cfg)
}

// With derives a new scenario from an existing one with extra options
// applied — the cheap way to fork a base configuration across rates,
// message lengths or model variants.
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
	buildTopo, err := topologyReg.lookup(cfg.Topology)
	if err != nil {
		return nil, err
	}
	buildRouter, err := routerReg.lookup(cfg.Router)
	if err != nil {
		return nil, err
	}
	buildPattern, err := patternReg.lookup(cfg.Pattern)
	if err != nil {
		return nil, err
	}

	topo, err := buildTopo(TopologyConfig{N: cfg.N, W: cfg.W, H: cfg.H, Dims: cfg.Dims})
	if err != nil {
		// Builder rejections (bad sizes, mismatched families) are
		// configuration mistakes like any other option error; wrap them
		// in the sentinel so callers — the quarcd error mapping in
		// particular — can classify them without string matching.
		return nil, fmt.Errorf("%w: %w", ErrInvalidOption, err)
	}
	routerVal, err := buildRouter(topo)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrInvalidOption, err)
	}
	router, err := asRouter(routerVal)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrInvalidOption, err)
	}
	setVal, err := buildPattern(router, PatternConfig{
		K: cfg.Dests, Port: cfg.Port, Seed: cfg.SetSeed, High: cfg.High, Low: cfg.Low, stream: cfg.stream})
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrInvalidOption, err)
	}
	set, ok := setVal.(routing.MulticastSet)
	if !ok {
		return nil, fmt.Errorf("noc: pattern %q returned %T, not a multicast set", cfg.Pattern, setVal)
	}

	buildSpatial, err := spatialReg.lookup(cfg.Spatial)
	if err != nil {
		return nil, err
	}
	destVal, err := buildSpatial(routerVal, SpatialConfig{Frac: cfg.SpatialFrac, Nodes: cfg.SpatialNodes, Weights: cfg.SpatialWeights})
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrInvalidOption, err)
	}
	dest, ok := destVal.(traffic.Dest)
	if !ok {
		return nil, fmt.Errorf("noc: spatial pattern %q returned %T, not a traffic.Dest", cfg.Spatial, destVal)
	}

	return (&Scenario{cfg: cfg, router: router, set: set, dest: dest}).checked()
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
	if s.cfg.SatQueue < 0 {
		return fmt.Errorf("%w: saturation queue threshold %d < 0", ErrInvalidOption, s.cfg.SatQueue)
	}
	if s.cfg.TraceLimit != 0 {
		if n := s.router.Graph().Nodes(); s.cfg.TraceNode < 0 || s.cfg.TraceNode >= n {
			return fmt.Errorf("%w: trace node %d outside the %d-node network", ErrInvalidOption, s.cfg.TraceNode, n)
		}
		if s.cfg.TraceLimit < 0 {
			return fmt.Errorf("%w: trace limit %d < 0", ErrInvalidOption, s.cfg.TraceLimit)
		}
	}
	if s.cfg.metricsSink != nil && !s.cfg.Metrics {
		return fmt.Errorf("%w: MetricsSink without Metrics(buckets) would record nothing", ErrOptionConflict)
	}
	if s.cfg.record != nil && s.cfg.replay != nil {
		return fmt.Errorf("%w: a scenario cannot both record and replay a trace", ErrOptionConflict)
	}
	if (s.cfg.record != nil || s.cfg.replay != nil) && s.cfg.Replications > 1 {
		return fmt.Errorf("%w: trace record/replay requires Replications(1), got %d", ErrOptionConflict, s.cfg.Replications)
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
		HotspotFrac:   s.cfg.HotspotFrac,
		HotspotNode:   topology.NodeID(s.cfg.HotspotNode),
		Arrival:       s.cfg.Arrival,
		BurstLen:      s.cfg.BurstLen,
		DutyCycle:     s.cfg.DutyCycle,
		Perm:          s.dest.Perm,
		Weights:       s.dest.Weights,
	}
}

// TopologyName returns the scenario's topology registry name.
func (s *Scenario) TopologyName() string { return s.cfg.Topology }

// PatternName returns the scenario's traffic-pattern registry name.
func (s *Scenario) PatternName() string { return s.cfg.Pattern }

// ArrivalName returns the scenario's arrival-process registry name
// ("poisson" when defaulted).
func (s *Scenario) ArrivalName() string { return s.cfg.Arrival }

// SpatialName returns the scenario's spatial-pattern registry name
// ("uniform" when defaulted).
func (s *Scenario) SpatialName() string { return s.cfg.Spatial }

// Nodes returns the network size.
func (s *Scenario) Nodes() int { return s.router.Graph().Nodes() }

// Channels returns the number of unidirectional channels in the network.
func (s *Scenario) Channels() int { return s.router.Graph().NumChannels() }

// MsgLen returns the message length in flits.
func (s *Scenario) MsgLen() int { return s.cfg.MsgLen }

// Rate returns the per-node message generation rate.
func (s *Scenario) Rate() float64 { return s.cfg.Rate }

// Alpha returns the multicast fraction.
func (s *Scenario) Alpha() float64 { return s.cfg.Alpha }

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
