package noc

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"quarc/internal/core"
)

// Spec is the declarative, JSON-able description of a scenario, and the
// one way to state one: Go callers write it as a literal, and a JSON
// document on the quarcsim command line or the quarcd wire decodes into
// the same struct. Spec.Scenario resolves it; the process-local
// attachments with no wire form (Record, Replay) go on with
// Scenario.With.
//
// On the wire a zero field selects the default (quarc-16, msglen 32,
// poisson arrivals, uniform unicasts, seed 1, warmup 10000, measure
// 100000). Canonical materializes those defaults and clears fields the
// chosen names do not read, so specs that describe the same
// scenario share one canonical encoding — and therefore one Fingerprint,
// the content address under which noc/service caches Results. Inside a
// Scenario the spec is stored materialized, where zero means zero.
type Spec struct {
	// Topology and router (the router follows the topology, and a
	// document may only name the topology's own). N sizes quarc,
	// quarc-oneport and spidergon rings, W/H size meshes and tori, Dims
	// sizes hypercubes.
	Topology string `json:"topology,omitempty"`
	N        int    `json:"n,omitempty"`
	W        int    `json:"w,omitempty"`
	H        int    `json:"h,omitempty"`
	Dims     int    `json:"dims,omitempty"`
	Router   string `json:"router,omitempty"`

	// Multicast traffic pattern: "none" (the default), "broadcast",
	// "random" (Dests destinations drawn from PCG(SetSeed, SetStream) —
	// the paper's Figure 6 regime; its panels draw from stream 0x5e7),
	// "localized" (Dests destinations on rim Port — Figure 7) or
	// "highlow" (mesh/torus Hamilton-path offsets High and Low).
	Pattern   string `json:"pattern,omitempty"`
	Dests     int    `json:"dests,omitempty"`
	Port      int    `json:"port,omitempty"`
	SetSeed   uint64 `json:"set_seed,omitempty"`
	SetStream uint64 `json:"set_stream,omitempty"`
	High      []int  `json:"high,omitempty"`
	Low       []int  `json:"low,omitempty"`

	// Workload: message length in flits (at least 2), per-node message
	// generation rate (messages/cycle) and multicast fraction.
	MsgLen int     `json:"msglen,omitempty"`
	Rate   float64 `json:"rate,omitempty"`
	Alpha  float64 `json:"alpha,omitempty"`

	// Arrival process: "poisson" (the default), "bernoulli" (per-cycle
	// coin flips), "periodic" (deterministic spacing, random per-node
	// phase) or "onoff" (bursts of geometrically many messages, mean
	// BurstLen >= 1, injected at Rate/DutyCycle so the long-run rate stays
	// Rate). All offer the same long-run Rate.
	Arrival   string  `json:"arrival,omitempty"`
	BurstLen  float64 `json:"burst_len,omitempty"`
	DutyCycle float64 `json:"duty_cycle,omitempty"`

	// Spatial unicast-destination pattern: "uniform" (the default), a
	// permutation ("transpose", "bit-reversal", "bit-complement",
	// "shuffle", "tornado"; a source mapped to itself falls silent), or
	// "hotspot", which splits SpatialFrac of every source's unicasts over
	// SpatialNodes in proportion to SpatialWeights (nil means equally).
	Spatial        string    `json:"spatial,omitempty"`
	SpatialFrac    float64   `json:"spatial_frac,omitempty"`
	SpatialNodes   []int     `json:"spatial_nodes,omitempty"`
	SpatialWeights []float64 `json:"spatial_weights,omitempty"`

	// Analytical-model knobs: the fixed point's damping in (0,1],
	// iteration bound and tolerance; the M/G/1 wait, "pk" (standard
	// Pollaczek-Khinchine, the default) or "eq3" (the paper's Eq. 3 as
	// printed); and the service recurrence, "eq6" (the paper's, the
	// default) or "tail" (tail release, no per-hop cycle).
	Damping float64 `json:"damping,omitempty"`
	MaxIter int     `json:"max_iter,omitempty"`
	Tol     float64 `json:"tol,omitempty"`
	Wait    string  `json:"wait,omitempty"`
	Service string  `json:"service,omitempty"`

	// Simulator knobs. A zero Seed/Warmup/Measure selects the default
	// (1 / 10000 / 100000). SatQueue is the injection backlog that
	// declares a run saturated; Drain lets messages generated inside the
	// window finish after it closes; Detail adds the simulator's per-port
	// and per-distance breakdowns and the model's per-branch waits;
	// MulticastPriority makes channel arbitration multicast-first instead
	// of FIFO; TraceLimit > 0 traces up to that many events of TraceNode's
	// messages. Replications > 1 runs that many independently seeded
	// replications (replication 0 uses Seed itself) and aggregates them
	// into one Result with across-replication confidence intervals.
	// Parallelism bounds the goroutines running them (<= 0: GOMAXPROCS);
	// it is execution advice, not content: the Result is bitwise the same
	// for every value, so Canonical clears it and it does not enter the
	// Fingerprint.
	Seed              uint64  `json:"seed,omitempty"`
	Warmup            float64 `json:"warmup,omitempty"`
	Measure           float64 `json:"measure,omitempty"`
	SatQueue          int     `json:"sat_queue,omitempty"`
	Drain             bool    `json:"drain,omitempty"`
	Detail            bool    `json:"detail,omitempty"`
	MulticastPriority bool    `json:"mc_priority,omitempty"`
	TraceNode         int     `json:"trace_node,omitempty"`
	TraceLimit        int     `json:"trace_limit,omitempty"`
	Replications      int     `json:"replications,omitempty"`
	Parallelism       int     `json:"parallelism,omitempty"`
	// IntraParallelism is accepted and ignored; kept for wire
	// compatibility with the deleted intra-run parallel engine. It is
	// still range-checked, and Canonical clears it, so it never perturbs
	// the Fingerprint.
	IntraParallelism int `json:"intra_parallelism,omitempty"`

	// Metrics enables time-series recording: the simulator attaches a
	// recording hook and Result.Series carries MetricsBuckets
	// buckets of per-channel utilization, injection/ejection counts,
	// latency sums and queue-occupancy maxima. Recording only observes:
	// the other Result fields are bitwise those of a run without it. A
	// zero MetricsBuckets under Metrics selects DefaultMetricsBuckets.
	Metrics        bool `json:"metrics,omitempty"`
	MetricsBuckets int  `json:"metrics_buckets,omitempty"`

	// Evaluator names the engine a serving layer should run: "simulator"
	// (the default) or "model". Scenario construction ignores it — the
	// same Scenario drives either engine — but it is part of the content
	// address, since the two engines produce different Results.
	Evaluator string `json:"evaluator,omitempty"`
}

// ErrInvalidSpec marks a Spec whose fields are outside the ranges the
// codec accepts (hostile sizes, non-finite rates, unknown enum names).
// Match it with errors.Is.
var ErrInvalidSpec = errors.New("noc: invalid spec")

// Bounds on hostile Spec input. They are far above anything the paper's
// evaluation (or a sane NoC) needs, and low enough that a malicious JSON
// document cannot make Scenario allocate unbounded memory.
const (
	maxSpecNodes        = 4096
	maxSpecDims         = 12
	maxSpecMsgLen       = 1 << 16
	maxSpecList         = 4096
	maxSpecWindow       = 1e9
	maxSpecRate         = 1e6
	maxSpecIter         = 1e7
	maxSpecTraceLimit   = 1 << 20
	maxSpecReplications = 1 << 12
)

func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

// Validate bounds every field of the spec. It runs before Canonical and
// Scenario, so hostile documents (huge sizes, NaN/Inf rates, absurd
// windows) are rejected here with ErrInvalidSpec instead of exhausting
// memory downstream. Names are only checked against closed enums (wait,
// service, evaluator); table names are resolved — and rejected — when
// the scenario is built.
func (sp Spec) Validate() error { return sp.validate() }

// validate is Validate through a pointer, so ParseJSON checks the spec
// it decoded in place instead of copying it into Validate's receiver.
func (sp *Spec) validate() error {
	fail := func(format string, args ...any) error {
		return fmt.Errorf("%w: %s", ErrInvalidSpec, fmt.Sprintf(format, args...))
	}
	if sp.N < 0 || sp.N > maxSpecNodes {
		return fail("n %d outside [0, %d]", sp.N, maxSpecNodes)
	}
	if sp.W < 0 || sp.W > maxSpecNodes || sp.H < 0 || sp.H > maxSpecNodes {
		return fail("mesh dimensions %dx%d outside [0, %d]", sp.W, sp.H, maxSpecNodes)
	}
	if sp.W*sp.H > maxSpecNodes {
		return fail("mesh %dx%d exceeds %d nodes", sp.W, sp.H, maxSpecNodes)
	}
	if sp.Dims < 0 || sp.Dims > maxSpecDims {
		return fail("hypercube dims %d outside [0, %d]", sp.Dims, maxSpecDims)
	}
	if sp.Dests < 0 || sp.Dests > maxSpecNodes {
		return fail("dests %d outside [0, %d]", sp.Dests, maxSpecNodes)
	}
	if sp.Port < 0 || sp.Port > 64 {
		return fail("port %d outside [0, 64]", sp.Port)
	}
	if len(sp.High) > maxSpecList || len(sp.Low) > maxSpecList {
		return fail("high/low offset lists longer than %d", maxSpecList)
	}
	if sp.MsgLen < 0 || sp.MsgLen > maxSpecMsgLen {
		return fail("msglen %d outside [0, %d]", sp.MsgLen, maxSpecMsgLen)
	}
	if !finite(sp.Rate) || sp.Rate < 0 || sp.Rate > maxSpecRate {
		return fail("rate %v outside [0, %g]", sp.Rate, float64(maxSpecRate))
	}
	if !finite(sp.Alpha) || sp.Alpha < 0 || sp.Alpha > 1 {
		return fail("alpha %v outside [0, 1]", sp.Alpha)
	}
	if !finite(sp.BurstLen) || sp.BurstLen < 0 || sp.BurstLen > 1e9 {
		return fail("burst_len %v outside [0, 1e9]", sp.BurstLen)
	}
	if !finite(sp.DutyCycle) || sp.DutyCycle < 0 || sp.DutyCycle > 1 {
		return fail("duty_cycle %v outside [0, 1]", sp.DutyCycle)
	}
	if !finite(sp.SpatialFrac) || sp.SpatialFrac < 0 || sp.SpatialFrac > 1 {
		return fail("spatial_frac %v outside [0, 1]", sp.SpatialFrac)
	}
	if len(sp.SpatialNodes) > maxSpecList || len(sp.SpatialWeights) > maxSpecList {
		return fail("spatial node/weight lists longer than %d", maxSpecList)
	}
	for _, w := range sp.SpatialWeights {
		if !finite(w) {
			return fail("non-finite spatial weight %v", w)
		}
	}
	if !finite(sp.Damping) || sp.Damping < 0 || sp.Damping > 1 {
		return fail("damping %v outside [0, 1]", sp.Damping)
	}
	if sp.MaxIter < 0 || sp.MaxIter > maxSpecIter {
		return fail("max_iter %d outside [0, %d]", sp.MaxIter, int(maxSpecIter))
	}
	if !finite(sp.Tol) || sp.Tol < 0 || sp.Tol > 1 {
		return fail("tol %v outside [0, 1]", sp.Tol)
	}
	if sp.Wait != "" && !slices.Contains(waitNames[:], sp.Wait) {
		return fail("wait %q is not \"pk\" or \"eq3\"", sp.Wait)
	}
	if sp.Service != "" && !slices.Contains(serviceNames[:], sp.Service) {
		return fail("service %q is not \"eq6\" or \"tail\"", sp.Service)
	}
	if !finite(sp.Warmup) || sp.Warmup < 0 || sp.Warmup > maxSpecWindow {
		return fail("warmup %v outside [0, %g]", sp.Warmup, float64(maxSpecWindow))
	}
	if !finite(sp.Measure) || sp.Measure < 0 || sp.Measure > maxSpecWindow {
		return fail("measure %v outside [0, %g]", sp.Measure, float64(maxSpecWindow))
	}
	if sp.SatQueue < 0 || sp.SatQueue > 1<<30 {
		return fail("sat_queue %d outside [0, 2^30]", sp.SatQueue)
	}
	if sp.TraceNode < 0 || sp.TraceNode > maxSpecNodes {
		return fail("trace_node %d outside [0, %d]", sp.TraceNode, maxSpecNodes)
	}
	if sp.TraceLimit < 0 || sp.TraceLimit > maxSpecTraceLimit {
		return fail("trace_limit %d outside [0, %d]", sp.TraceLimit, maxSpecTraceLimit)
	}
	if sp.Replications < 0 || sp.Replications > maxSpecReplications {
		return fail("replications %d outside [0, %d]", sp.Replications, maxSpecReplications)
	}
	if sp.IntraParallelism < 0 || sp.IntraParallelism > maxSpecNodes {
		return fail("intra_parallelism %d outside [0, %d]", sp.IntraParallelism, maxSpecNodes)
	}
	if sp.MetricsBuckets < 0 || sp.MetricsBuckets > MaxMetricsBuckets {
		return fail("metrics_buckets %d outside [0, %d]", sp.MetricsBuckets, MaxMetricsBuckets)
	}
	if sp.MetricsBuckets != 0 && !sp.Metrics {
		return fail("metrics_buckets %d without metrics", sp.MetricsBuckets)
	}
	switch sp.Evaluator {
	case "", "simulator", "model":
	default:
		return fail("evaluator %q is not \"simulator\" or \"model\"", sp.Evaluator)
	}
	return nil
}

// ParseSpec decodes a Spec from JSON strictly — unknown fields, trailing
// data and out-of-range values are all errors, never panics — making it
// the safe entry point for untrusted documents (the quarcd wire, fuzzed
// input). It accepts exactly what encoding/json accepts into a Spec, and
// a rejection names the key and the byte offset (speccodec.go). The Spec
// keeps no reference to data, so the caller may reuse the buffer.
func ParseSpec(data []byte) (Spec, error) {
	var sp Spec
	if err := sp.ParseJSON(data); err != nil {
		return Spec{}, err
	}
	return sp, nil
}

// ParseJSON is ParseSpec into sp, for a caller that keeps the spec where
// it is instead of copying it out: sp is reset, decoded from data and
// validated, and reset again on any error.
func (sp *Spec) ParseJSON(data []byte) error {
	*sp = Spec{}
	err := sp.decodeJSON(data)
	if err == nil {
		err = sp.validate()
	}
	if err != nil {
		*sp = Spec{}
	}
	return err
}

// Canonical returns the spec in normal form: defaults are materialized
// (topology, msglen, arrival, spatial, wait/service formulas, seed and
// windows) and fields the selected names do not read are cleared
// (pattern parameters of other patterns, onoff knobs under other
// arrivals, hotspot knobs when unused, Parallelism always — it cannot
// change a Result). Two specs describing the same scenario therefore
// canonicalize identically, which is what makes Fingerprint a content
// address.
func (sp Spec) Canonical() Spec {
	sp.High = slices.Clone(sp.High) // the receiver is the caller's copy already
	sp.Low = slices.Clone(sp.Low)
	sp.SpatialNodes = slices.Clone(sp.SpatialNodes)
	sp.SpatialWeights = slices.Clone(sp.SpatialWeights)
	sp.Canonicalize()
	return sp
}

// Canonicalize puts the spec into Canonical's normal form in place,
// without the copies: for a caller that owns the spec, as the quarcd
// handler owns the one it parsed. Its lists are kept or dropped, never
// cloned, so a list it keeps is still shared with whoever shared it.
func (sp *Spec) Canonicalize() {
	sp.fillNames()
	// Each topology family reads exactly one size field; clear the
	// others so equivalent specs share a content address, and fill the
	// ring default (quarc-16, the NewScenario default) when no size was
	// given. Unknown topology names keep all fields — they fail at
	// compile time anyway.
	switch sp.Topology {
	case "quarc", "quarc-oneport", "spidergon":
		if sp.N == 0 {
			sp.N = 16
		}
		sp.W, sp.H, sp.Dims = 0, 0, 0
	case "mesh", "torus":
		sp.N, sp.Dims = 0, 0
	case "hypercube":
		sp.N, sp.W, sp.H = 0, 0, 0
	}
	switch sp.Pattern {
	case "none", "broadcast":
		sp.Dests, sp.Port, sp.SetSeed, sp.SetStream, sp.High, sp.Low = 0, 0, 0, 0, nil, nil
	case "random":
		sp.Port, sp.High, sp.Low = 0, nil, nil
	case "localized":
		sp.SetSeed, sp.SetStream, sp.High, sp.Low = 0, 0, nil, nil
	case "highlow":
		sp.Dests, sp.Port, sp.SetSeed, sp.SetStream = 0, 0, 0, 0
	}
	if sp.MsgLen == 0 {
		sp.MsgLen = 32
	}
	if sp.Arrival != "onoff" {
		sp.BurstLen, sp.DutyCycle = 0, 0
	}
	if sp.Spatial != "hotspot" {
		sp.SpatialFrac, sp.SpatialNodes, sp.SpatialWeights = 0, nil, nil
	}
	if sp.Seed == 0 {
		sp.Seed = 1
	}
	if sp.Warmup == 0 {
		sp.Warmup = 10000
	}
	if sp.Measure == 0 {
		sp.Measure = 100000
	}
	if sp.TraceLimit <= 0 {
		sp.TraceNode, sp.TraceLimit = 0, 0
	}
	if sp.Replications == 1 {
		// One replication is bitwise-identical to the plain single-run
		// path, so the two spellings share a content address.
		sp.Replications = 0
	}
	if sp.Metrics {
		if sp.MetricsBuckets == 0 {
			sp.MetricsBuckets = DefaultMetricsBuckets
		}
	} else {
		sp.MetricsBuckets = 0
	}
	sp.Parallelism = 0
	sp.IntraParallelism = 0
}

// fillNames materializes the default of every name left empty: the one
// rule both the wire form (through Canonical) and the options (through
// config.apply) follow, so an explicit default and an omitted one are the
// same value everywhere downstream.
func (sp *Spec) fillNames() {
	orDefault(&sp.Topology, "quarc")
	if sp.Router == "" {
		sp.Router = topologies[sp.Topology].router
	}
	orDefault(&sp.Pattern, "none")
	orDefault(&sp.Arrival, "poisson")
	orDefault(&sp.Spatial, "uniform")
	orDefault(&sp.Wait, waitNames[core.PKStandard])
	orDefault(&sp.Service, serviceNames[core.PaperEq6])
	orDefault(&sp.Evaluator, "simulator")
}

func orDefault(name *string, def string) {
	if *name == "" {
		*name = def
	}
}

// CanonicalJSON is the canonical encoding: the JSON document of the
// canonical form. Specs describing the same scenario encode to the same
// bytes, and ParseSpec(CanonicalJSON) round-trips (pinned by
// TestSpecRoundTrip and FuzzSpecJSON). The buffer is sized for every
// scalar field of a typical spec plus its list elements, so it is
// allocated once and rarely grows.
func (sp Spec) CanonicalJSON() ([]byte, error) {
	c := sp.Canonical()
	return c.AppendJSON(make([]byte, 0, 512+24*(len(c.High)+len(c.Low)+len(c.SpatialNodes)+len(c.SpatialWeights))))
}

// FingerprintOf is the FNV-1a (64-bit) hash behind Fingerprint. Over a
// canonical spec encoding (CanonicalJSON's bytes, or a serving layer's
// cache key holding them) it is that spec's content address, computed
// without canonicalizing and encoding the spec again.
func FingerprintOf[K string | []byte](key K) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= prime64
	}
	return h
}

// Fingerprint is the stable FNV-1a (64-bit) hash of the canonical
// encoding — the content address of the spec's Result. It is invariant
// under JSON round-trips, field spellings that canonicalize away (e.g.
// an explicit "arrival":"poisson") and Parallelism. An unencodable spec
// (non-finite floats, which Validate rejects anyway) hashes a distinct
// error form rather than panicking.
func (sp Spec) Fingerprint() uint64 {
	var buf [512]byte
	b, err := sp.Canonical().AppendJSON(buf[:0])
	if err != nil {
		b = []byte("noc:unencodable-spec:" + err.Error())
	}
	return FingerprintOf(b)
}

// Structural returns the sub-spec that determines the routed topology,
// multicast destination set and spatial pattern — the expensive,
// rate-independent part of scenario construction. Specs sharing a
// Structural fingerprint can share one compiled base scenario (see
// ScenarioWith); noc/service exploits this so a sweep's points, and
// repeated requests against one configuration, reuse routing tables and
// pooled networks instead of rebuilding them.
func (sp Spec) Structural() Spec { return pickStructural(sp.Canonical()) }

func pickStructural(c Spec) Spec {
	return Spec{
		Topology: c.Topology, N: c.N, W: c.W, H: c.H, Dims: c.Dims,
		Router:  c.Router,
		Pattern: c.Pattern, Dests: c.Dests, Port: c.Port, SetSeed: c.SetSeed, SetStream: c.SetStream,
		High: c.High, Low: c.Low,
		Spatial: c.Spatial, SpatialFrac: c.SpatialFrac,
		SpatialNodes: c.SpatialNodes, SpatialWeights: c.SpatialWeights,
	}
}

// sameStructure is Structural equality over two materialized
// configurations, field by field: the one predicate that lets With and
// ScenarioWith share a base's routed topology.
// TestStructuralPredicateMatchesStructural keeps its field list in step
// with Structural's.
func sameStructure(a, b *config) bool {
	return a.Topology == b.Topology && a.N == b.N && a.W == b.W && a.H == b.H && a.Dims == b.Dims &&
		a.Router == b.Router &&
		a.Pattern == b.Pattern && a.Dests == b.Dests && a.Port == b.Port &&
		a.SetSeed == b.SetSeed && a.SetStream == b.SetStream &&
		slices.Equal(a.High, b.High) && slices.Equal(a.Low, b.Low) &&
		a.Spatial == b.Spatial && a.SpatialFrac == b.SpatialFrac &&
		slices.Equal(a.SpatialNodes, b.SpatialNodes) && slices.Equal(a.SpatialWeights, b.SpatialWeights)
}

// The wire names of the model formulas, indexed by core's enums.
var (
	waitNames    = [...]string{core.PKStandard: "pk", core.PaperEq3Literal: "eq3"}
	serviceNames = [...]string{core.PaperEq6: "eq6", core.TailRelease: "tail"}
)

// materialized is the form a Scenario stores: Canonical, with the
// execution advice Canonical drops from the content address put back.
func (sp Spec) materialized() Spec {
	c := sp.Canonical()
	c.Parallelism, c.IntraParallelism = sp.Parallelism, sp.IntraParallelism
	return c
}

// Scenario compiles the spec into a runnable Scenario. A trace to record
// into or replay from is attached afterwards with Scenario.With.
func (sp Spec) Scenario() (*Scenario, error) {
	if err := sp.Validate(); err != nil {
		return nil, err
	}
	return resolve(config{Spec: sp.materialized()})
}

// ScenarioWith compiles the spec against a pre-built base scenario that
// shares its Structural sub-spec, reusing the base's routed topology,
// destination set and spatial pattern instead of rebuilding them. The
// result is bitwise-identical to Scenario (pinned by
// TestScenarioWithSharesStructure); a structurally different base is an
// error.
func (sp Spec) ScenarioWith(base *Scenario) (*Scenario, error) {
	if err := sp.Validate(); err != nil {
		return nil, err
	}
	fork := *base
	fork.cfg.Spec = sp.materialized()
	if !sameStructure(&fork.cfg, &base.cfg) {
		return nil, fmt.Errorf("noc: base scenario (%s, pattern %s, spatial %s) is structurally different from the spec (%s, pattern %s, spatial %s)",
			base.cfg.Topology, base.cfg.Pattern, base.cfg.Spatial, fork.cfg.Topology, fork.cfg.Pattern, fork.cfg.Spatial)
	}
	return fork.checked()
}

// Spec returns the scenario's configuration in declarative, canonical
// form — the inverse of Spec.Scenario up to canonicalization. The trace
// attachments (Record, Replay) have no wire form and are omitted. One
// gap remains where the scenario holds what the wire format cannot say:
// it reads a zero Warmup or Seed as "use the default", so a scenario
// forked with Warmup(0) or Seed(0) reports the defaults (10000, 1) here.
func (s *Scenario) Spec() Spec { return s.cfg.Spec.Canonical() }
