package noc

import (
	"runtime"
	"sync"

	"quarc/internal/obs"
	"quarc/internal/stats"
)

// replicator is implemented by evaluators whose runs replicate under
// derived seeds (the Simulator). Sweep and simulateReplicated fan the
// replications of such evaluators out as individual jobs and aggregate
// them with aggregateReplications; evaluators without the interface (the
// deterministic Model) run once per point.
type replicator interface {
	evaluateRep(s *Scenario, rep int) (Result, error)
}

// repSeed derives the seed of replication rep from the scenario seed via
// a splitmix64 finalizer. Replication 0 uses the scenario seed itself, so
// a single-replication evaluation is bitwise-identical to the plain
// single-run path.
func repSeed(base uint64, rep int) uint64 {
	if rep == 0 {
		return base
	}
	z := base + uint64(rep)*0x9E3779B97F4A7C15
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	return z
}

// simulateReplicated runs the scenario's configured replications and
// aggregates them. Replications fan out over Spec.Parallelism workers, each
// with its own pooled network reused across the replications it runs (the
// same Reset path a sweep worker uses); results are aggregated in
// replication order, so the outcome is bitwise-identical for every k.
func simulateReplicated(s *Scenario, pool *networkPool) (Result, error) {
	n := s.cfg.Replications
	if n <= 1 {
		return simulate(s, pool, s.cfg.Seed)
	}
	k := s.cfg.Parallelism
	if k <= 0 {
		k = runtime.GOMAXPROCS(0)
	}
	if k > n {
		k = n
	}
	results := make([]Result, n)
	errs := make([]error, n)
	if k == 1 {
		// Serial: reuse the caller's pool (or one local pool) across all
		// replications.
		if pool == nil {
			pool = &networkPool{}
		}
		for rep := 0; rep < n; rep++ {
			results[rep], errs[rep] = simulate(s, pool, repSeed(s.cfg.Seed, rep))
		}
	} else {
		ch := make(chan int, n)
		for rep := 0; rep < n; rep++ {
			ch <- rep
		}
		close(ch)
		var wg sync.WaitGroup
		for w := 0; w < k; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				var p networkPool // per-worker: reused across its replications
				for rep := range ch {
					results[rep], errs[rep] = simulate(s, &p, repSeed(s.cfg.Seed, rep))
				}
			}()
		}
		wg.Wait()
	}
	for _, err := range errs {
		if err != nil {
			return Result{}, err
		}
	}
	return aggregateReplications(results), nil
}

// aggregateReplications folds per-replication results into one Result by
// the independent-replications method: latencies become grand means over
// the replication means with z=1.96 confidence half-widths from the
// across-replication variance (stats.Replicates); message and event
// counts sum; Time is the total simulated time; Saturated is sticky
// (any saturated replication marks the point); MaxUtil is the worst
// replication's peak. Detail and trace output, which do not aggregate
// meaningfully, are taken from replication 0. The fold runs in
// replication order, so the aggregate is independent of how the
// replications were scheduled.
func aggregateReplications(results []Result) Result {
	var uni, mc stats.Replicates
	agg := Result{
		Evaluator:    results[0].Evaluator,
		Replications: len(results),
	}
	for _, r := range results {
		uni.Add(r.Unicast)
		mc.Add(r.Multicast)
		agg.UnicastN += r.UnicastN
		agg.MulticastN += r.MulticastN
		agg.Generated += r.Generated
		agg.Completed += r.Completed
		agg.Events += r.Events
		agg.Time += r.Time
		if r.Saturated {
			agg.Saturated = true
		}
		if r.MaxUtil > agg.MaxUtil {
			agg.MaxUtil = r.MaxUtil
		}
	}
	agg.Unicast = uni.Mean()
	agg.UnicastCI = uni.HalfWidth(1.96)
	agg.Multicast = mc.Mean()
	agg.MulticastCI = mc.HalfWidth(1.96)
	agg.DetailSummary = results[0].DetailSummary
	agg.TraceText = results[0].TraceText
	if results[0].Series != nil {
		// Combine per-replication series in replication order (each
		// replication records into its own collector, so the combined
		// series is also independent of Parallelism scheduling).
		series := make([]*TimeSeries, 0, len(results))
		for _, r := range results {
			if r.Series != nil {
				series = append(series, r.Series)
			}
		}
		agg.Series = obs.Combine(series)
	}
	return agg
}
