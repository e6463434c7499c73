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
	// Workers bounds the concurrent evaluations; <= 0 selects
	// GOMAXPROCS. Results are deterministic regardless of worker count.
	Workers int
	// Evaluators are run in order at every point; the default pair is
	// {Model{}, Simulator{}}.
	Evaluators []Evaluator
}

// SweepPoint is one rate sample of a sweep, holding one result per
// evaluator in the order they were given.
type SweepPoint struct {
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
	// to; zero when the sweep used explicit rates.
	SatRate float64 `json:"model_saturation_rate,omitempty"`
	// Points are ordered by rate in the input order.
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

// Sweep evaluates the scenario across a rate grid with a bounded worker
// pool, running every evaluator at every point.
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
	reps := max(s.cfg.Replications, 1)

	out := SweepResult{Topology: s.cfg.Topology, Set: s.SetString()}

	// The points differ in rate alone, which a built analytical model
	// re-solves: one model, built here, serves the auto grid's
	// bisection and every point.
	var model sweepModel
	rates := o.Rates
	if len(rates) == 0 || slices.ContainsFunc(evals, func(ev Evaluator) bool { _, ok := ev.(Model); return ok }) {
		model.m, model.err = buildModel(s)
	}
	if len(rates) == 0 {
		// A scenario the model declines still gets a grid, from a model
		// of its own.
		var sat float64
		var err error
		if model.err == nil {
			sat, err = model.m.SaturationRate(1e-3)
		} else {
			sat, err = SaturationRate(s)
		}
		if err != nil {
			return SweepResult{}, err
		}
		out.SatRate = sat
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
	}

	// One job per (point, replication). Replication 0 runs every
	// evaluator; higher replications run only the simulators (the
	// deterministic Model would just repeat itself).
	type job struct {
		point, rep int
	}
	jobs := make([]job, 0, len(rates)*reps)
	for p := range rates {
		for r := 0; r < reps; r++ {
			jobs = append(jobs, job{point: p, rep: r})
		}
	}
	// raw[point][eval][rep] holds every run's result before aggregation.
	raw := make([][][]Result, len(rates))
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
	// Worker 0 starts last: it solves on the sweep's model, which every
	// other worker's evaluators clone before it may move.
	for w := workers - 1; w >= 0; w-- {
		// Each worker gets its own evaluator instances so stateful
		// evaluators (Simulator's reusable network, Model's solve state)
		// never race.
		evs := workerEvaluators(evals, model, w)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range ch {
				if failed.Load() {
					continue
				}
				j := jobs[i]
				errs[i] = runJob(s, rates[j.point], j.rep, evs, raw[j.point])
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
			return SweepResult{}, fmt.Errorf("noc: sweep point (rate=%g, rep=%d): %w", rates[j.point], j.rep, err)
		}
	}

	points := make([]SweepPoint, len(rates))
	for p, rate := range rates {
		pt := SweepPoint{Rate: rate}
		for e, ev := range evals {
			res := raw[p][e][0]
			switch ev.(type) {
			case Simulator, *pooledSimulator:
				if reps > 1 {
					res = aggregateReplications(raw[p][e])
				}
			}
			pt.Results = append(pt.Results, res)
		}
		points[p] = pt
	}
	out.Points = points
	return out, nil
}

// runJob evaluates one (point, replication) job into dst[eval][rep]. A
// panicking evaluator must not kill the process (and with it the whole
// sweep): surface it as the job's error instead.
func runJob(s *Scenario, rate float64, rep int, evals []Evaluator, dst [][]Result) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("evaluator panicked: %v", r)
		}
	}()
	sp, err := s.With(Rate(rate))
	if err != nil {
		return err
	}
	for e, ev := range evals {
		if p, ok := ev.(*pooledSimulator); ok {
			res, err := simulate(sp, &p.pool, repSeed(sp.cfg.Seed, rep))
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

// workerEvaluators returns the evaluator list for worker w's goroutine.
// A simulator, pooled or not, becomes the worker's own pooled simulator,
// which keeps one network alive across the jobs the worker runs and
// which runJob replicates; Model becomes the sweep's model, which worker 0
// solves on and every other worker on its own clone, since a solve
// mutates its model (and starts cold, so nothing of the saturation
// search's solves carries over). Any other evaluator is shared as-is.
func workerEvaluators(evals []Evaluator, model sweepModel, w int) []Evaluator {
	out := make([]Evaluator, len(evals))
	for i, ev := range evals {
		switch ev := ev.(type) {
		case Model:
			if model.m != nil && w > 0 {
				model.m = model.m.Clone()
			}
			out[i] = model
		case Simulator, *pooledSimulator:
			out[i] = &pooledSimulator{}
		default:
			out[i] = ev
		}
	}
	return out
}

// sweepModel is Model as one Sweep worker runs it: it solves the sweep's
// one model, or returns the error building it returned, at the point's
// rate — bit for bit what Model{}.Evaluate computes on a model built for
// the point.
type sweepModel struct {
	Model
	m   *core.Model
	err error
}

// Evaluate implements Evaluator.
func (w sweepModel) Evaluate(s *Scenario) (Result, error) {
	if w.err != nil {
		return Result{}, w.err
	}
	return solveModel(s, w.m)
}
