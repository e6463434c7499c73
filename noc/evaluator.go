package noc

import (
	"errors"
	"fmt"
	"slices"

	"quarc/internal/core"
	"quarc/internal/obs"
	"quarc/internal/routing"
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

// evaluateRep implements replicator: one seeded replication.
func (Simulator) evaluateRep(s *Scenario, rep int) (Result, error) {
	return simulate(s, nil, repSeed(s.cfg.Seed, rep))
}

// forkWorker implements workerForker: each Sweep worker gets its own
// stateful copy that keeps one wormhole.Network alive across the points
// it runs, resetting it instead of rebuilding per point.
func (Simulator) forkWorker() Evaluator { return &pooledSimulator{} }

// NewPooledSimulator returns a stateful Simulator that keeps one
// wormhole network and workload alive across Evaluate calls, resetting
// them in place whenever consecutive scenarios share their routed
// topology (as Scenario.With and Spec.ScenarioWith forks do) — the same
// reuse path a Sweep worker gets, exposed for long-lived serving layers
// like noc/service. Results are bitwise-identical to the stateless
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

// evaluateRep implements replicator over the worker's pooled network.
func (p *pooledSimulator) evaluateRep(s *Scenario, rep int) (Result, error) {
	return simulate(s, &p.pool, repSeed(s.cfg.Seed, rep))
}

// networkPool caches one network plus one workload and the router they
// were built over; both are only reused while the scenario resolves to
// the same router object (Scenario.With shares it across the points of a
// sweep), which implies the same channel graph.
type networkPool struct {
	nw *wormhole.Network
	wl *traffic.Workload
	rt routing.Router
}

// simulate runs the wormhole simulator on the scenario under an explicit
// seed (the scenario seed, or a replication-derived one). With a pool it
// reuses the pooled network and workload via their Resets when the
// router is unchanged — bitwise identical to a fresh build, but skipping
// the per-point allocation and routing work — and caches what it builds
// otherwise.
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
	case pool != nil && pool.nw != nil && pool.rt == s.router:
		if err := pool.wl.Reset(s.trafficSpec(), seed); err != nil {
			return Result{}, err
		}
		if err := pool.nw.Reset(pool.wl, cfg); err != nil {
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
			pool.nw, pool.wl, pool.rt = nw, w, s.router
		}
	}
	// Every observation is a hook subscriber: the trace, the detail
	// breakdown and the metrics collector, which drains every hook
	// position into an in-memory sink (teed into the scenario's extra
	// sink, if any), aggregated into Result.Series after the run. They
	// only record — the Result is bitwise-identical to an unhooked run —
	// and a pooled network drops its hooks on Reset, so reuse stays
	// clean.
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
	var metricsSink *obs.MemorySink
	var metricsColl *obs.Collector
	if s.cfg.MetricsBuckets > 0 {
		metricsSink = obs.NewMemorySink()
		sink := obs.Sink(metricsSink)
		if s.cfg.metricsSink != nil {
			sink = obs.Tee(metricsSink, s.cfg.metricsSink)
		}
		metricsColl = obs.NewCollector(sink, 0)
		nw.Attach(metricsColl)
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
	if metricsColl != nil {
		if err := metricsColl.Flush(); err != nil {
			return Result{}, fmt.Errorf("noc: metrics sink: %w", err)
		}
		res.Series = obs.Aggregate(metricsSink.Records(),
			s.router.Graph().NumChannels(), s.cfg.MetricsBuckets, r.Time)
	}
	return res, nil
}
