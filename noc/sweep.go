package noc

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"quarc/internal/core"
)

// SweepOptions controls a Sweep run.
type SweepOptions struct {
	// Rates lists the per-node generation rates to evaluate. When empty,
	// Points rates are auto-placed at 10%..95% of the model's saturation
	// rate, as the paper's figures do.
	Rates []float64
	// Points is the auto-grid size (default 8; ignored when Rates is
	// set).
	Points int
	// MsgLens optionally sweeps message sizes as well; the default is the
	// scenario's message length. The sweep covers the cross product
	// MsgLens x rates.
	MsgLens []int
	// Workers bounds the concurrent evaluations; <= 0 selects
	// GOMAXPROCS. Results are deterministic regardless of worker count.
	Workers int
	// Evaluators are run in order at every point; the default pair is
	// {Model{}, Simulator{}}.
	Evaluators []Evaluator
}

// SweepPoint is one (message length, rate) sample of a sweep, holding one
// result per evaluator in the order they were given.
type SweepPoint struct {
	MsgLen  int      `json:"msglen"`
	Rate    float64  `json:"rate"`
	Results []Result `json:"results"`
}

// Get returns the point's result for a named evaluator.
func (p SweepPoint) Get(name string) (Result, bool) {
	for _, r := range p.Results {
		if r.Evaluator == name {
			return r, true
		}
	}
	return Result{}, false
}

// SweepResult is a completed sweep.
type SweepResult struct {
	// Topology and Set identify the swept configuration.
	Topology string `json:"topology"`
	Set      string `json:"multicast_set"`
	// SatRate is the model's saturation rate the auto grid was scaled
	// to: the scenario's own message length when it is part of the
	// sweep, otherwise the first swept length. Zero when the sweep used
	// explicit rates.
	SatRate float64 `json:"model_saturation_rate,omitempty"`
	// Points are ordered by (MsgLen, Rate) in the input order.
	Points []SweepPoint `json:"points"`
}

// SaturationRate bisects for the highest generation rate at which the
// analytical model is stable for the scenario — its spatial pattern and
// model knobs included — within relative tolerance 1e-3. The paper's
// figures scale their rate grids to this boundary. The arrival process is
// left out, so scenarios the model itself declines (onoff, bernoulli, ...)
// still get a grid for simulator-only sweeps.
func SaturationRate(s *Scenario) (float64, error) {
	in := modelInput(s)
	in.Spec.Arrival = ""
	m, err := core.NewModel(in)
	if err != nil {
		return 0, err
	}
	return m.SaturationRate(1e-3)
}

// Sweep evaluates the scenario across a rate (and optionally message-size)
// grid with a bounded worker pool, running every evaluator at every point.
// When the scenario's Spec asks for Replications n > 1, every (point,
// replication) pair becomes one job on the same shared pool — replications of one
// point and different points interleave freely across workers — and each
// point's replications are aggregated in replication order, so results
// are deterministic for any worker count. It generalizes the figure-panel
// sweep: any scenario, any evaluator set, deterministic results in input
// order.
func Sweep(s *Scenario, o SweepOptions) (SweepResult, error) {
	if s.cfg.record != nil {
		// Every point of a sweep would race to overwrite the one shared
		// TraceWorkload, leaving whichever point finished last. A trace
		// is the capture of one run: record by evaluating a single
		// scenario instead.
		return SweepResult{}, fmt.Errorf("noc: trace recording inside a sweep is not supported (evaluate the scenario directly)")
	}
	if s.cfg.replay != nil {
		// A replayed workload ignores the swept rate axis entirely, so
		// every point would be the same run; a flat table with a working
		// rate column would misread as a real sweep.
		return SweepResult{}, fmt.Errorf("noc: trace replay inside a sweep is not supported (the trace fixes the workload, so every point would be identical)")
	}
	evals := o.Evaluators
	if len(evals) == 0 {
		evals = []Evaluator{Model{}, Simulator{}}
	}
	msgLens := o.MsgLens
	if len(msgLens) == 0 {
		msgLens = []int{s.cfg.MsgLen}
	}
	reps := s.cfg.Replications
	if reps < 1 {
		reps = 1
	}

	out := SweepResult{Topology: s.cfg.Topology, Set: s.SetString()}

	// Build the point grid. With explicit rates the grid is the plain
	// cross product; otherwise each message length gets its own grid
	// scaled to its saturation rate. A length's analytical model is
	// built once, here, and serves the bisection and every point.
	useModel := slices.ContainsFunc(evals, func(ev Evaluator) bool { _, ok := ev.(Model); return ok })
	models := sweepModels{}
	type pointSpec struct {
		msgLen int
		rate   float64
	}
	var specs []pointSpec
	for _, msgLen := range msgLens {
		sm, err := s.With(MsgLen(msgLen))
		rates := o.Rates
		if len(rates) == 0 {
			if err != nil {
				return SweepResult{}, err
			}
			sat, err := models.saturationRate(sm)
			if err != nil {
				return SweepResult{}, err
			}
			if msgLen == s.cfg.MsgLen || out.SatRate == 0 {
				out.SatRate = sat
			}
			points := o.Points
			if points <= 0 {
				points = 8
			}
			rates = make([]float64, points)
			// Sample 10%..95% of the model's stable region; a single
			// point lands mid-region.
			step := 0.0
			if points > 1 {
				step = (0.95 - 0.10) / float64(points-1)
			}
			for i := range rates {
				frac := 0.10 + float64(step*float64(i))
				if points == 1 {
					frac = 0.50
				}
				rates[i] = sat * frac
			}
		} else if err == nil && useModel {
			// A length that does not resolve is reported by its points.
			models.of(sm)
		}
		for _, rate := range rates {
			specs = append(specs, pointSpec{msgLen: msgLen, rate: rate})
		}
	}

	// One job per (point, replication). Replication 0 runs every
	// evaluator; higher replications run only the replicating ones (the
	// deterministic Model would just repeat itself).
	type job struct {
		point, rep int
	}
	jobs := make([]job, 0, len(specs)*reps)
	for p := range specs {
		for r := 0; r < reps; r++ {
			jobs = append(jobs, job{point: p, rep: r})
		}
	}
	// raw[point][eval][rep] holds every run's result before aggregation.
	raw := make([][][]Result, len(specs))
	for p := range raw {
		raw[p] = make([][]Result, len(evals))
		for e := range evals {
			raw[p][e] = make([]Result, reps)
		}
	}

	workers := o.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(jobs) {
		workers = len(jobs)
	}

	errs := make([]error, len(jobs))
	// The job channel is buffered with every index up front and closed
	// before the workers start, so the feed can never block: a worker that
	// dies mid-job (it shouldn't — runJob recovers panics) cannot
	// deadlock the sweep. On the first error the remaining queued jobs are
	// skipped so a broken sweep fails fast.
	ch := make(chan int, len(jobs))
	for i := range jobs {
		ch <- i
	}
	close(ch)
	var failed atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		// Each worker gets its own evaluator instances so stateful
		// evaluators (Simulator's reusable network, Model's solve state)
		// never race.
		evs := workerEvaluators(evals, models)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range ch {
				if failed.Load() {
					continue
				}
				j := jobs[i]
				errs[i] = runJob(s, specs[j.point].msgLen, specs[j.point].rate, j.rep, evs, raw[j.point])
				if errs[i] != nil {
					failed.Store(true)
				}
			}
		}()
	}
	wg.Wait()

	for i, err := range errs {
		if err != nil {
			j := jobs[i]
			return SweepResult{}, fmt.Errorf("noc: sweep point (msglen=%d, rate=%g, rep=%d): %w",
				specs[j.point].msgLen, specs[j.point].rate, j.rep, err)
		}
	}

	points := make([]SweepPoint, len(specs))
	for p, spec := range specs {
		pt := SweepPoint{MsgLen: spec.msgLen, Rate: spec.rate}
		for e, ev := range evals {
			if _, ok := ev.(replicator); ok && reps > 1 {
				pt.Results = append(pt.Results, aggregateReplications(raw[p][e]))
			} else {
				pt.Results = append(pt.Results, raw[p][e][0])
			}
		}
		points[p] = pt
	}
	out.Points = points
	return out, nil
}

// runJob evaluates one (point, replication) job into dst[eval][rep]. A
// panicking evaluator must not kill the process (and with it the whole
// sweep): surface it as the job's error instead.
func runJob(s *Scenario, msgLen int, rate float64, rep int, evals []Evaluator, dst [][]Result) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("evaluator panicked: %v", r)
		}
	}()
	sp, err := s.With(MsgLen(msgLen), Rate(rate))
	if err != nil {
		return err
	}
	for e, ev := range evals {
		if r, ok := ev.(replicator); ok {
			res, err := r.evaluateRep(sp, rep)
			if err != nil {
				return err
			}
			dst[e][rep] = res
			continue
		}
		if rep != 0 {
			continue // deterministic evaluators run once, on replication 0
		}
		res, err := ev.Evaluate(sp)
		if err != nil {
			return err
		}
		dst[e][rep] = res
	}
	return nil
}

// workerForker is implemented by evaluators that want a private, stateful
// instance per Sweep worker (e.g. Simulator, which keeps a reusable
// network). Stateless evaluators are shared as-is.
type workerForker interface {
	forkWorker() Evaluator
}

// workerEvaluators returns the evaluator list for one worker goroutine,
// forking the evaluators that carry per-worker state; Model becomes a
// sweepModel over the worker's own copies of the sweep's models.
func workerEvaluators(evals []Evaluator, models sweepModels) []Evaluator {
	out := make([]Evaluator, len(evals))
	for i, ev := range evals {
		switch ev := ev.(type) {
		case Model:
			out[i] = sweepModel{models: models.clone()}
		case workerForker:
			out[i] = ev.forkWorker()
		default:
			out[i] = ev
		}
	}
	return out
}

// sweepModels holds the analytical model of each message length of one
// Sweep call, or the error that building it returned. The points of a
// length differ in rate alone, which a built model re-solves.
type sweepModels map[int]builtModel

type builtModel struct {
	m   *core.Model
	err error
}

// of returns the model of the scenario's message length, building it on
// first use.
func (ms sweepModels) of(s *Scenario) builtModel {
	bm, ok := ms[s.cfg.MsgLen]
	if !ok {
		bm.m, bm.err = buildModel(s)
		ms[s.cfg.MsgLen] = bm
	}
	return bm
}

// saturationRate is SaturationRate on the scenario's model in ms. A
// scenario the model declines still gets a grid, from a model of its own.
func (ms sweepModels) saturationRate(s *Scenario) (float64, error) {
	bm := ms.of(s)
	if bm.err != nil {
		return SaturationRate(s)
	}
	return bm.m.SaturationRate(1e-3)
}

// clone copies the models for another goroutine: a solve mutates its
// model.
func (ms sweepModels) clone() sweepModels {
	out := make(sweepModels, len(ms))
	for msgLen, bm := range ms {
		if bm.m != nil {
			bm.m = bm.m.Clone()
		}
		out[msgLen] = bm
	}
	return out
}

// sweepModel is Model as one Sweep worker runs it: it solves the sweep's
// model of the point's message length at the point's rate, bit for bit
// what Model{}.Evaluate computes on a model built for the point.
type sweepModel struct {
	Model
	models sweepModels
}

// Evaluate implements Evaluator.
func (w sweepModel) Evaluate(s *Scenario) (Result, error) {
	bm := w.models.of(s)
	if bm.err != nil {
		return Result{}, bm.err
	}
	return solveModel(s, bm.m)
}
