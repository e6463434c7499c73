package noc

import (
	"errors"
	"fmt"
	"slices"

	"quarc/internal/core"
	"quarc/internal/obs"
	"quarc/internal/topology"
	"quarc/internal/traffic"
	"quarc/internal/wormhole"
)

// Evaluator turns a scenario into a result. The two implementations are
// Model (the paper's analytical M/G/1 wormhole model) and Simulator (the
// discrete-event wormhole simulator); both consume the same Scenario and
// produce the same Result type, so they are interchangeable everywhere —
// in particular in Sweep.
type Evaluator interface {
	// Name identifies the evaluator in results and tables.
	Name() string
	// Evaluate runs the engine on the scenario.
	Evaluate(s *Scenario) (Result, error)
}

// ErrModelInapplicable marks scenarios the analytical model declines by
// design — trace-driven workloads and non-poisson arrival processes —
// as opposed to genuine evaluation failures. Callers that degrade to
// simulator-only output (e.g. quarcsim -compare) match it with
// errors.Is; any other model error still signals a real problem.
var ErrModelInapplicable = errors.New("the analytical model does not apply to this workload")

// Model evaluates the analytical model: the M/G/1 channel queues, the
// wormhole service-time fixed point and the max-of-exponentials multicast
// combination (paper Eqs. 3-16).
type Model struct{}

// Name implements Evaluator.
func (Model) Name() string { return "model" }

// Evaluate implements Evaluator.
func (Model) Evaluate(s *Scenario) (Result, error) {
	m, err := buildModel(s)
	if err != nil {
		return Result{}, err
	}
	return solveModel(s, m)
}

// solveModel solves m — the scenario's model, built at any rate — at the
// scenario's rate.
func solveModel(s *Scenario, m *core.Model) (Result, error) {
	pred, err := m.SolveAt(s.cfg.Rate)
	if err != nil {
		return Result{}, err
	}
	res := Result{
		Evaluator:  "model",
		Unicast:    pred.UnicastLatency,
		Multicast:  pred.MulticastLatency,
		Saturated:  pred.Saturated,
		MaxRho:     pred.MaxRho,
		Iterations: pred.Iterations,
		Converged:  pred.Converged,
	}
	if s.cfg.Detail && s.cfg.Alpha > 0 && !pred.Saturated {
		branches, raw, err := s.branches(0)
		if err != nil {
			return Result{}, err
		}
		for i := range branches {
			branches[i].Wait = m.PathWait(raw[i].Path)
		}
		res.Branches = branches
	}
	return res, nil
}

// modelInput assembles the analytical model's input from the scenario:
// its workload and the model knobs.
func modelInput(s *Scenario) core.Input {
	return core.Input{
		Router:         s.router,
		Spec:           s.trafficSpec(),
		MsgLen:         s.cfg.MsgLen,
		Damping:        s.cfg.Damping,
		MaxIter:        s.cfg.MaxIter,
		Tol:            s.cfg.Tol,
		WaitFormula:    core.WaitFormula(slices.Index(waitNames[:], s.cfg.Wait)),
		ServiceFormula: core.ServiceFormula(slices.Index(serviceNames[:], s.cfg.Service)),
	}
}

// buildModel assembles the scenario's analytical model, which then
// solves at any rate; workloads the model declines by design come back as
// ErrModelInapplicable.
func buildModel(s *Scenario) (*core.Model, error) {
	// A recording is simulator-only but harmless here (the model
	// generates no messages to capture); only a trace-driven workload has
	// no analytical description.
	if s.cfg.replay != nil {
		return nil, fmt.Errorf("noc: %w: trace-driven workloads have no analytical description (use the simulator)", ErrModelInapplicable)
	}
	m, err := core.NewModel(modelInput(s))
	if errors.Is(err, core.ErrNonPoisson) {
		err = fmt.Errorf("noc: %w: %w", ErrModelInapplicable, err)
	}
	return m, err
}

// Simulator evaluates the discrete-event wormhole simulator on the same
// scenario, standing in for the paper's OMNET++ model.
type Simulator struct{}

// Name implements Evaluator.
func (Simulator) Name() string { return "simulator" }

// Evaluate implements Evaluator. With Spec.Replications n > 1 it fans the
// replications out over Spec.Parallelism workers and aggregates their
// results (see replication.go); otherwise it runs the scenario once.
func (Simulator) Evaluate(s *Scenario) (Result, error) { return simulateReplicated(s, nil) }

// NewPooledSimulator returns a stateful Simulator that keeps one
// wormhole network and workload alive across Evaluate calls and rebinds
// them in place to each scenario's routed topology, whatever its shape —
// the same reuse path a Sweep worker gets, exposed for long-lived serving
// layers like noc/service. Results are bitwise-identical to the stateless
// Simulator. The returned evaluator is NOT safe for concurrent use: give
// each worker goroutine its own instance.
func NewPooledSimulator() Evaluator { return &pooledSimulator{} }

// pooledSimulator is the per-worker form of Simulator. It is not safe for
// concurrent use; Sweep gives each worker goroutine its own instance.
type pooledSimulator struct {
	Simulator
	pool networkPool
}

// Evaluate implements Evaluator, reusing the worker's pooled network.
func (p *pooledSimulator) Evaluate(s *Scenario) (Result, error) {
	return simulateReplicated(s, &p.pool)
}

// networkPool caches one network plus one workload, built on first use
// and rebound in place to every later scenario's router (see
// wormhole.Network.ResetOn and traffic.Workload.ResetOn).
type networkPool struct {
	nw *wormhole.Network
	wl *traffic.Workload
}

// simulate runs the wormhole simulator on the scenario under an explicit
// seed (the scenario seed, or a replication-derived one). With a pool it
// rebinds the pooled network and workload to the scenario — bitwise
// identical to a fresh build, but skipping the per-run allocation (and,
// on the same routes, the routing work) — or builds and keeps them on
// first use.
func simulate(s *Scenario, pool *networkPool, seed uint64) (Result, error) {
	cfg := wormhole.Config{
		MsgLen:            s.cfg.MsgLen,
		Warmup:            s.cfg.Warmup,
		Measure:           s.cfg.Measure,
		SatQueue:          s.cfg.SatQueue,
		Drain:             s.cfg.Drain,
		MulticastPriority: s.cfg.MulticastPriority,
	}
	// Trace capture and replay bypass the pool: both need their own
	// traffic source for exactly one run.
	var recorder *traffic.Recorder
	var nw *wormhole.Network
	switch {
	case s.cfg.replay != nil:
		rp, err := traffic.NewReplayer(s.router, s.set, s.cfg.replay.tr)
		if err != nil {
			return Result{}, err
		}
		nw, err = wormhole.New(s.router.Graph(), rp, cfg)
		if err != nil {
			return Result{}, err
		}
	case s.cfg.record != nil:
		w, err := traffic.NewWorkload(s.router, s.trafficSpec(), seed)
		if err != nil {
			return Result{}, err
		}
		recorder = traffic.NewRecorder(w)
		nw, err = wormhole.New(s.router.Graph(), recorder, cfg)
		if err != nil {
			return Result{}, err
		}
		// The recorder stamps absolute injection times.
		nw.Attach(wormhole.ObserverHook(recorder), wormhole.HookWormInjected)
	case pool != nil && pool.nw != nil:
		if err := pool.wl.ResetOn(s.router, s.trafficSpec(), seed); err != nil {
			return Result{}, err
		}
		if err := pool.nw.ResetOn(s.router.Graph(), pool.wl, cfg); err != nil {
			return Result{}, err
		}
		nw = pool.nw
	default:
		w, err := traffic.NewWorkload(s.router, s.trafficSpec(), seed)
		if err != nil {
			return Result{}, err
		}
		nw, err = wormhole.New(s.router.Graph(), w, cfg)
		if err != nil {
			return Result{}, err
		}
		if pool != nil {
			pool.nw, pool.wl = nw, w
		}
	}
	// Every observation is a hook subscriber: the trace, the detail
	// breakdown and the metrics collector, which appends every hook
	// position into a per-run in-memory sink, aggregated into
	// Result.Series after the run. They only record — the Result is
	// bitwise-identical to an unhooked run — and a pooled network drops
	// its hooks on Reset, so reuse stays clean.
	var trace *wormhole.Trace
	if s.cfg.TraceLimit > 0 {
		trace = wormhole.NewTrace(s.router.Graph(), topology.NodeID(s.cfg.TraceNode), s.cfg.TraceLimit)
		nw.Attach(trace, trace.Positions()...)
	}
	var detail *wormhole.Instrumentation
	if s.cfg.Detail {
		detail = wormhole.NewInstrumentation(s.router, cfg)
		nw.Attach(detail, detail.Positions()...)
	}
	var metrics *obs.MemorySink
	if s.cfg.MetricsBuckets > 0 {
		metrics = obs.NewMemorySink()
		nw.Attach(obs.NewCollector(metrics, 0))
	}
	r := nw.Run()
	if recorder != nil {
		tr := recorder.Trace()
		// The workload does not know the message length (it is a
		// simulator knob), so stamp it here: only the recorded length
		// reproduces the recorded results.
		tr.MsgLen = s.cfg.MsgLen
		s.cfg.record.tr = tr
	}
	res := Result{
		Evaluator:   "simulator",
		Unicast:     r.Unicast.Mean(),
		Multicast:   r.Multicast.Mean(),
		Saturated:   r.Saturated,
		UnicastCI:   r.UnicastBM.HalfWidth(1.96),
		MulticastCI: r.MulticastBM.HalfWidth(1.96),
		UnicastN:    r.Unicast.N(),
		MulticastN:  r.Multicast.N(),
		Generated:   r.Generated,
		Completed:   r.Completed,
		Time:        r.Time,
		Events:      r.Events,
		MaxUtil:     r.MaxUtil,
	}
	if detail != nil {
		res.DetailSummary = detail.Summary()
	}
	if trace != nil && len(trace.Events) > 0 {
		res.TraceText = wormhole.FormatTrace(s.router.Graph(), trace.Events)
	}
	if metrics != nil {
		res.Series = obs.Aggregate(metrics.Records(),
			s.router.Graph().NumChannels(), s.cfg.MetricsBuckets, r.Time)
	}
	return res, nil
}
