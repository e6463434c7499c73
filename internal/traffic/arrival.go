package traffic

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sort"
)

// The arrival-process table decouples *when* a node injects from
// *where* its messages go (the spatial side: uniform, hotspot, permutation
// or weighted destinations — see Spec). Each process is a stateless
// singleton that reads its parameters from the Spec on every draw and
// keeps per-node mutable state in a caller-owned ArrivalState, so one
// table value serves every node of every workload, Workload.Reset
// only has to zero the states, and the hot path stays allocation-free.

// ArrivalState is the per-node mutable state of an arrival process. The
// zero value is the initial state; Workload.Reset re-zeroes it.
type ArrivalState struct {
	// BurstLeft counts the messages remaining in the current on-period
	// ("onoff" only).
	BurstLeft int
	// Started marks that the node's first gap was already drawn
	// ("periodic" uses it to draw the random phase exactly once).
	Started bool
}

// ArrivalProcess draws interarrival gaps for one node. Implementations
// must be stateless values (all mutable state lives in ArrivalState) and
// Gap must not allocate: the simulator calls it once per generated
// message on its hot path.
type ArrivalProcess interface {
	// ValidateSpec checks the spec parameters the process reads (Rate
	// plus any process-specific fields), failing fast on NaN/Inf or
	// out-of-range values. It takes the spec by value so validation never
	// forces the caller's spec onto the heap.
	ValidateSpec(s Spec) error
	// Gap draws the gap (in cycles) until the node's next message. The
	// spec's Rate is always positive and finite when Gap is called.
	Gap(s *Spec, rng *rand.Rand, st *ArrivalState) float64
}

// arrivals is the closed arrival-process table; "poisson" is the
// default.
var arrivals = map[string]ArrivalProcess{
	"poisson":   poissonArrival{},
	"bernoulli": bernoulliArrival{},
	"onoff":     onoffArrival{},
	"periodic":  periodicArrival{},
}

// Arrivals returns the arrival-process names, sorted.
func Arrivals() []string {
	names := make([]string, 0, len(arrivals))
	for name := range arrivals {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// lookupArrival resolves a spec's arrival process; the empty name selects
// "poisson", today's default.
func lookupArrival(name string) (ArrivalProcess, error) {
	if name == "" {
		name = "poisson"
	}
	p, ok := arrivals[name]
	if !ok {
		return nil, fmt.Errorf("traffic: unknown arrival process %q (known: %v)", name, Arrivals())
	}
	return p, nil
}

// poissonArrival is the paper's memoryless process: exponential gaps with
// mean 1/Rate. It is the default, one ExpFloat64 draw per gap, pinned
// bitwise by TestPoissonPinnedToPrePRGoldens.
type poissonArrival struct{}

func (poissonArrival) ValidateSpec(s Spec) error { return nil }

//quarc:hotpath
func (poissonArrival) Gap(s *Spec, rng *rand.Rand, st *ArrivalState) float64 {
	return rng.ExpFloat64() / s.Rate
}

// bernoulliArrival injects with probability Rate in each cycle: gaps are
// geometric on the positive integers with mean 1/Rate, so arrivals land
// on the discrete cycle grid — the classic cycle-accurate NoC injection
// process.
type bernoulliArrival struct{}

func (bernoulliArrival) ValidateSpec(s Spec) error {
	if s.Rate > 1 {
		return fmt.Errorf("traffic: bernoulli arrival needs a per-cycle rate <= 1, got %v", s.Rate)
	}
	return nil
}

//quarc:hotpath
func (bernoulliArrival) Gap(s *Spec, rng *rand.Rand, st *ArrivalState) float64 {
	return geometric(rng, s.Rate)
}

// geometric draws from the geometric distribution on {1, 2, ...} with
// success probability p by inverting one uniform: the smallest k with
// 1-(1-p)^k > u. For p == 1 the log ratio is 0 against -Inf, giving k = 1
// deterministically.
//
//quarc:hotpath
func geometric(rng *rand.Rand, p float64) float64 {
	u := rng.Float64()
	return math.Floor(math.Log1p(-u)/math.Log1p(-p)) + 1
}

// onoffArrival is a two-state burst process: bursts of geometrically many
// messages (mean BurstLen) injected at the elevated rate Rate/DutyCycle,
// separated by exponential off-periods sized so the long-run average rate
// is exactly Rate. DutyCycle 1 degenerates to back-to-back bursts with no
// off-time (a Poisson process drawn with extra variates); small duty
// cycles concentrate the same offered load into sharp bursts that stress
// queues far beyond what smooth Poisson injection shows.
type onoffArrival struct{}

func (onoffArrival) ValidateSpec(s Spec) error {
	if s.BurstLen < 1 || math.IsNaN(s.BurstLen) || math.IsInf(s.BurstLen, 0) {
		return fmt.Errorf("traffic: onoff arrival needs a finite burst length >= 1, got %v", s.BurstLen)
	}
	if s.DutyCycle <= 0 || s.DutyCycle > 1 || math.IsNaN(s.DutyCycle) {
		return fmt.Errorf("traffic: onoff arrival needs a duty cycle in (0,1], got %v", s.DutyCycle)
	}
	return nil
}

//quarc:hotpath
func (onoffArrival) Gap(s *Spec, rng *rand.Rand, st *ArrivalState) float64 {
	lamOn := s.Rate / s.DutyCycle
	if st.BurstLeft > 0 {
		st.BurstLeft--
		return rng.ExpFloat64() / lamOn
	}
	// Start a new burst: draw its size (mean BurstLen), then the off-gap
	// plus the first intra-burst gap. Off-periods average
	// BurstLen*(1-duty)/Rate, which makes the expected time per message
	// exactly 1/Rate.
	st.BurstLeft = int(geometric(rng, 1/s.BurstLen)) - 1
	offMean := s.BurstLen * (1 - s.DutyCycle) / s.Rate
	return float64(rng.ExpFloat64()*offMean) + rng.ExpFloat64()/lamOn
}

// periodicArrival injects deterministically every 1/Rate cycles after a
// uniformly random initial phase (drawn once per node, so nodes are
// desynchronized but the run stays reproducible for a fixed seed).
type periodicArrival struct{}

func (periodicArrival) ValidateSpec(s Spec) error { return nil }

//quarc:hotpath
func (periodicArrival) Gap(s *Spec, rng *rand.Rand, st *ArrivalState) float64 {
	period := 1 / s.Rate
	if !st.Started {
		st.Started = true
		return rng.Float64() * period
	}
	return period
}
