// Package service is the engine-resident serving layer of the quarc
// reproduction: a content-addressed result cache, singleflight
// deduplication and a bounded worker pool in front of the noc
// evaluators. One long-lived Evaluator serves many declarative noc.Spec
// requests (the quarcd daemon's backend), with three layers of reuse:
//
//   - identical specs (same canonical encoding) hit the LRU Result cache
//     and never evaluate twice;
//   - identical specs in flight at the same time coalesce onto one
//     evaluation (singleflight);
//   - structurally identical specs (same topology/pattern/spatial
//     sub-spec) share one compiled base scenario, so workers reuse
//     routing tables and their pooled wormhole networks across requests,
//     exactly like a noc.Sweep worker does across points.
//
// With Config.Store set, a durable on-disk layer (noc/service/store)
// sits behind the LRU: computed results are persisted write-through,
// and a restarted evaluator serves its warm set from disk — checksummed
// and bitwise-identical — instead of recomputing it.
//
// Every response is bitwise-identical to evaluating the spec cold with
// noc.Simulator/noc.Model directly — caching, pooling and persistence
// are pure memoization (pinned by the package tests).
package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"quarc/noc"
	"quarc/noc/service/store"
)

// Sentinel errors; match with errors.Is.
var (
	// ErrClosed reports an Evaluate/Sweep call against a Close()d
	// evaluator.
	ErrClosed = errors.New("service: evaluator is closed")
	// ErrTraceSpec rejects specs that ask for trace record/replay: both
	// resolve file paths on the server, which a network-facing service
	// must not do on a client's behalf.
	ErrTraceSpec = errors.New("service: trace record/replay specs are not servable")
	// ErrQueueSaturated reports a submission that timed out while the
	// job queue was full: the box is overloaded, not broken, so clients
	// should back off and retry elsewhere.
	ErrQueueSaturated = errors.New("service: job queue saturated")
	// ErrNotFound reports a Trace query for a fingerprint no cached,
	// in-flight or stored evaluation answers to.
	ErrNotFound = errors.New("service: no result for that fingerprint")
)

// MaxSweepPoints bounds one sweep request's rate grid, here and in the
// fleet dispatcher that fans sweeps out.
const MaxSweepPoints = 1024

// Config sizes an Evaluator. The zero value selects the defaults.
type Config struct {
	// CacheEntries bounds the Result cache (default 1024 entries).
	CacheEntries int
	// ScenarioEntries bounds the compiled base-scenario cache (default
	// 64 entries).
	ScenarioEntries int
	// Workers bounds the concurrent evaluations (default GOMAXPROCS).
	Workers int
	// QueueDepth bounds the pending-job buffer (default 4*Workers).
	// Submitters past it block until a worker frees up or their context
	// expires.
	QueueDepth int
	// Store, when non-nil, persists every computed Result and serves
	// warm entries across restarts.
	Store *store.Store
}

func (c Config) withDefaults() Config {
	if c.CacheEntries <= 0 {
		c.CacheEntries = 1024
	}
	if c.ScenarioEntries <= 0 {
		c.ScenarioEntries = 64
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 4 * c.Workers
	}
	return c
}

// Source reports how a response was produced.
type Source string

const (
	// SourceComputed means this request ran the evaluation.
	SourceComputed Source = "computed"
	// SourceCache means the Result came from the content-addressed cache.
	SourceCache Source = "cache"
	// SourceCoalesced means the request joined an identical in-flight
	// evaluation (singleflight).
	SourceCoalesced Source = "coalesced"
	// SourceStore means the Result was read from the durable on-disk
	// store (a warm restart).
	SourceStore Source = "store"
	// SourceFleet means a fleet dispatcher obtained the Result from a
	// peer quarcd rather than the local pool.
	SourceFleet Source = "fleet"
)

// Stats is a point-in-time snapshot of the evaluator's counters.
type Stats struct {
	// Hits/Misses/Coalesced classify Evaluate calls: cache hit, cold
	// evaluation started, joined an in-flight evaluation.
	Hits      uint64 `json:"cache_hits"`
	Misses    uint64 `json:"cache_misses"`
	Coalesced uint64 `json:"coalesced"`
	// Evaluations counts evaluations actually executed by the pool;
	// Evictions counts cache entries dropped by the LRU bound.
	Evaluations uint64 `json:"evaluations"`
	Evictions   uint64 `json:"evictions"`
	// StoreHits counts Evaluate calls served from the durable store;
	// StoreErrors counts persistence failures (the response still
	// succeeds — durability is best-effort per request).
	StoreHits   uint64 `json:"store_hits,omitempty"`
	StoreErrors uint64 `json:"store_errors,omitempty"`
	// DurableResults/Quarantined snapshot the durable store: live
	// entries and entries rejected by validation since open. Zero when
	// no store is configured.
	DurableResults int    `json:"durable_results,omitempty"`
	Quarantined    uint64 `json:"quarantined,omitempty"`
	// CachedResults/CachedScenarios/InFlight are current occupancy.
	CachedResults   int `json:"cached_results"`
	CachedScenarios int `json:"cached_scenarios"`
	InFlight        int `json:"in_flight"`
	// Workers echoes the pool size.
	Workers int `json:"workers"`
}

// Health statuses.
const (
	// StatusOK means the backend accepts new work.
	StatusOK = "ok"
	// StatusDegraded means the backend still answers but should not
	// receive new work (draining, saturated); healthz maps it to 503.
	StatusDegraded = "degraded"
)

// HealthState is a backend's serviceability verdict, served by
// GET /v1/healthz and consumed by load balancers and the fleet's
// per-peer circuit breakers.
type HealthState struct {
	Status string `json:"status"`
	Reason string `json:"reason,omitempty"`
}

// flight is one in-progress evaluation; waiters block on done.
type flight struct {
	done chan struct{}
	res  noc.Result
	err  error
}

// job is one queued evaluation of a canonical spec. persist marks
// results the durable store has not seen yet (computed, as opposed to
// read back from it).
type job struct {
	key     string
	sp      noc.Spec
	f       *flight
	persist bool
}

// Evaluator is the engine-resident serving core. It is safe for
// concurrent use by any number of goroutines.
type Evaluator struct {
	cfg  Config
	jobs chan job
	done chan struct{}
	wg   sync.WaitGroup
	once sync.Once

	mu      sync.Mutex
	results *lruCache[noc.Result]
	bases   *lruCache[*noc.Scenario]
	flights map[string]*flight

	draining atomic.Bool

	hits, misses, coalesced atomic.Uint64
	evaluations, evictions  atomic.Uint64
	storeHits, storeErrors  atomic.Uint64
}

// New starts an evaluator with cfg.Workers resident workers, each owning
// a pooled Simulator fork. Close it when done.
func New(cfg Config) *Evaluator {
	cfg = cfg.withDefaults()
	e := &Evaluator{
		cfg:     cfg,
		jobs:    make(chan job, cfg.QueueDepth),
		done:    make(chan struct{}),
		results: newLRU[noc.Result](cfg.CacheEntries),
		bases:   newLRU[*noc.Scenario](cfg.ScenarioEntries),
		flights: make(map[string]*flight),
	}
	for w := 0; w < cfg.Workers; w++ {
		e.wg.Add(1)
		go e.worker()
	}
	return e
}

// Close stops the workers (after their current evaluations finish) and
// fails any jobs still queued with ErrClosed. It is idempotent.
func (e *Evaluator) Close() {
	e.once.Do(func() {
		e.draining.Store(true)
		close(e.done)
		e.wg.Wait()
		for {
			select {
			case j := <-e.jobs:
				e.resolve(j, noc.Result{}, ErrClosed)
			default:
				return
			}
		}
	})
}

// Stats returns a snapshot of the counters.
func (e *Evaluator) Stats() Stats {
	e.mu.Lock()
	cachedResults, cachedScenarios, inFlight := e.results.len(), e.bases.len(), len(e.flights)
	e.mu.Unlock()
	st := Stats{
		Hits:            e.hits.Load(),
		Misses:          e.misses.Load(),
		Coalesced:       e.coalesced.Load(),
		Evaluations:     e.evaluations.Load(),
		Evictions:       e.evictions.Load(),
		StoreHits:       e.storeHits.Load(),
		StoreErrors:     e.storeErrors.Load(),
		CachedResults:   cachedResults,
		CachedScenarios: cachedScenarios,
		InFlight:        inFlight,
		Workers:         e.cfg.Workers,
	}
	if e.cfg.Store != nil {
		st.DurableResults = e.cfg.Store.Len()
		st.Quarantined = e.cfg.Store.Quarantined()
	}
	return st
}

// SetDraining flips the drain flag Healthz reports: a draining
// evaluator still serves, but advertises itself degraded so load
// balancers and fleet circuit breakers stop routing new work to it.
// quarcd sets it on SIGTERM before starting the graceful shutdown.
func (e *Evaluator) SetDraining(v bool) { e.draining.Store(v) }

// Healthz reports the evaluator's serviceability: degraded while
// draining (shutdown in progress) or when the job queue is saturated
// (every worker busy and the pending buffer full), ok otherwise.
func (e *Evaluator) Healthz() HealthState {
	if e.draining.Load() {
		return HealthState{Status: StatusDegraded, Reason: "draining: shutdown in progress"}
	}
	if cap(e.jobs) > 0 && len(e.jobs) >= cap(e.jobs) {
		return HealthState{Status: StatusDegraded, Reason: "job queue saturated"}
	}
	return HealthState{Status: StatusOK}
}

// Evaluate serves one spec: from the cache when its canonical encoding
// was evaluated before, by joining an identical in-flight evaluation, or
// by scheduling a fresh evaluation on the worker pool. The returned
// Source says which; cached and cold responses for the same spec are
// bitwise identical.
func (e *Evaluator) Evaluate(ctx context.Context, sp noc.Spec) (noc.Result, Source, error) {
	if err := sp.Validate(); err != nil {
		return noc.Result{}, "", err
	}
	if sp.Record != "" || sp.Replay != "" {
		return noc.Result{}, "", ErrTraceSpec
	}
	// Canonicalize once: the encoding is the cache key, and the canonical
	// spec itself is what a worker compiles.
	canon := sp.Canonical()
	cjson, err := json.Marshal(canon)
	if err != nil {
		return noc.Result{}, "", fmt.Errorf("service: encoding spec: %w", err)
	}
	key := string(cjson)

	e.mu.Lock()
	if res, ok := e.results.get(key); ok {
		e.mu.Unlock()
		e.hits.Add(1)
		return res, SourceCache, nil
	}
	if f, ok := e.flights[key]; ok {
		e.mu.Unlock()
		e.coalesced.Add(1)
		res, err := e.wait(ctx, f)
		if err != nil && ctx.Err() == nil &&
			(errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)) {
			// The submitting caller gave up before its job reached the
			// queue and failed the shared flight with its own context
			// error; ours is still live, so take over with a fresh
			// attempt instead of propagating a foreign cancellation.
			return e.Evaluate(ctx, sp)
		}
		return res, SourceCoalesced, err
	}
	f := &flight{done: make(chan struct{})}
	e.flights[key] = f
	e.mu.Unlock()

	// Durable layer: a warm restart finds the result on disk. The
	// lookup runs under the flight, so concurrent identical requests
	// coalesce onto one disk read exactly as they do onto one
	// evaluation; resolve() promotes the hit into the LRU.
	if e.cfg.Store != nil {
		if res, ok := e.cfg.Store.Get(key); ok {
			e.storeHits.Add(1)
			e.resolve(job{key: key, f: f}, res, nil)
			return res, SourceStore, nil
		}
	}
	e.misses.Add(1)

	// Execution advice is not content — Canonical dropped it from the key
	// — but it does reach the engine: the caller's intra-run sharding, and
	// serial replications, so that Workers is the only concurrency bound
	// (the aggregate is bitwise-independent of that choice).
	canon.Parallelism, canon.IntraParallelism = 1, sp.IntraParallelism
	select {
	case e.jobs <- job{key: key, sp: canon, f: f, persist: true}:
	case <-ctx.Done():
		err := ctx.Err()
		if cap(e.jobs) > 0 && len(e.jobs) >= cap(e.jobs) {
			// The context expired while the pending buffer was full: the
			// request died of overload, not of its own deadline, and the
			// typed error lets clients (and fleet peers) retry elsewhere.
			err = fmt.Errorf("%w (%v)", ErrQueueSaturated, ctx.Err()) //quarclint:ignore errdiscipline the context error must NOT join the chain: overload classifies as queue_saturated, not as the caller's timeout
		}
		e.resolve(job{key: key, f: f}, noc.Result{}, err)
		return noc.Result{}, "", err
	case <-e.done:
		e.resolve(job{key: key, f: f}, noc.Result{}, ErrClosed)
		return noc.Result{}, "", ErrClosed
	}
	res, err := e.wait(ctx, f)
	return res, SourceComputed, err
}

// Sweep evaluates the spec across a rate grid on the shared pool — one
// content-addressed job per rate, so repeated and overlapping sweeps
// deduplicate point-wise. Results are returned in rate order.
func (e *Evaluator) Sweep(ctx context.Context, sp noc.Spec, rates []float64) ([]noc.Result, error) {
	if len(rates) == 0 {
		return nil, fmt.Errorf("%w: a sweep needs at least one rate", noc.ErrInvalidSpec)
	}
	if len(rates) > MaxSweepPoints {
		return nil, fmt.Errorf("%w: %d sweep points exceed the %d-point bound", noc.ErrInvalidSpec, len(rates), MaxSweepPoints)
	}
	for _, r := range rates {
		if math.IsNaN(r) || math.IsInf(r, 0) || r < 0 {
			return nil, fmt.Errorf("%w: invalid sweep rate %v", noc.ErrInvalidSpec, r)
		}
	}
	results := make([]noc.Result, len(rates))
	errs := make([]error, len(rates))
	var wg sync.WaitGroup
	for i, r := range rates {
		pt := sp
		pt.Rate = r
		wg.Add(1)
		go func(i int, pt noc.Spec) {
			defer wg.Done()
			results[i], _, errs[i] = e.Evaluate(ctx, pt)
		}(i, pt)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("service: sweep point rate=%g: %w", rates[i], err)
		}
	}
	return results, nil
}

// Trace serves the observability payload of a previous (or in-flight)
// evaluation by content address: the Result whose spec fingerprint is
// fp, searched through the LRU cache, the in-flight table (a live
// evaluation resolves the query when it completes) and the durable
// store. The fingerprint is derivable from the cache key — it is the
// FNV-1a hash of the canonical spec encoding, the same address
// noc.Spec.Fingerprint computes — so no side index is needed; the scan
// is O(entries) per query, far off the evaluation hot path. A result
// evaluated without Metrics resolves to ErrNotFound: the daemon never
// recomputes on a GET.
func (e *Evaluator) Trace(ctx context.Context, fp uint64) (noc.Result, Source, error) {
	e.mu.Lock()
	for _, key := range e.results.keys() {
		if fingerprintOf(key) != fp {
			continue
		}
		res, _ := e.results.get(key)
		e.mu.Unlock()
		return traceResult(res, SourceCache)
	}
	var live *flight
	for key, f := range e.flights {
		if fingerprintOf(key) == fp {
			live = f
			break
		}
	}
	e.mu.Unlock()
	if live != nil {
		res, err := e.wait(ctx, live)
		if err != nil {
			return noc.Result{}, "", err
		}
		return traceResult(res, SourceCoalesced)
	}
	if e.cfg.Store != nil {
		for _, key := range e.cfg.Store.Keys() {
			if fingerprintOf(key) != fp {
				continue
			}
			if res, ok := e.cfg.Store.Get(key); ok {
				e.storeHits.Add(1)
				return traceResult(res, SourceStore)
			}
		}
	}
	return noc.Result{}, "", fmt.Errorf("%w: %016x has not been evaluated here", ErrNotFound, fp)
}

// traceResult finishes a Trace lookup: a hit without a recorded series
// is still ErrNotFound, with a hint at the missing spec field.
func traceResult(res noc.Result, src Source) (noc.Result, Source, error) {
	if res.Series == nil {
		return noc.Result{}, "", fmt.Errorf("%w: the result has no recorded series (evaluate with \"metrics\": true)", ErrNotFound)
	}
	return res, src, nil
}

// fingerprintOf is the FNV-1a content address of a cache key — by
// construction identical to noc.Spec.Fingerprint() of the spec the key
// canonically encodes.
func fingerprintOf(key string) uint64 {
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

// wait blocks until the flight resolves, the caller's context expires or
// the evaluator closes. An abandoned flight still completes and caches
// its result for the next request.
func (e *Evaluator) wait(ctx context.Context, f *flight) (noc.Result, error) {
	select {
	case <-f.done:
		return f.res, f.err
	case <-ctx.Done():
		return noc.Result{}, ctx.Err()
	case <-e.done:
		// The pool is shutting down; the flight may never run. Give a
		// resolved flight precedence over the shutdown signal.
		select {
		case <-f.done:
			return f.res, f.err
		default:
			return noc.Result{}, ErrClosed
		}
	}
}

// resolve publishes a flight's outcome (caching successes) and wakes its
// waiters. Freshly computed results are persisted to the durable store
// before the flight resolves, so a result is on disk by the time any
// client has seen it; a persistence failure only degrades durability
// (counted, response unaffected).
func (e *Evaluator) resolve(j job, res noc.Result, err error) {
	if err == nil && j.persist && e.cfg.Store != nil {
		if perr := e.cfg.Store.Put(j.key, res); perr != nil {
			e.storeErrors.Add(1)
		}
	}
	e.mu.Lock()
	if err == nil {
		e.evictions.Add(uint64(e.results.add(j.key, res)))
	}
	delete(e.flights, j.key)
	e.mu.Unlock()
	j.f.res, j.f.err = res, err
	close(j.f.done)
}

// worker is one resident evaluation loop. Each worker owns a pooled
// Simulator fork, so consecutive jobs that share a base scenario reuse
// one wormhole network via its in-place Reset (the PR 2/3 hot path).
func (e *Evaluator) worker() {
	defer e.wg.Done()
	sim := noc.NewPooledSimulator()
	for {
		select {
		case <-e.done:
			return
		case j := <-e.jobs:
			res, err := e.evaluateSpec(j.sp, sim)
			e.evaluations.Add(1)
			e.resolve(j, res, err)
		}
	}
}

// evaluateSpec compiles and runs one canonical spec on this worker.
// Compilation goes through the shared base-scenario cache: the spec's
// structural sub-spec (topology, pattern, spatial) resolves to one base
// Scenario reused by every structurally identical request, and
// ScenarioWith stores the spec on top of it — bitwise-identical to a cold
// Spec.Scenario build.
func (e *Evaluator) evaluateSpec(sp noc.Spec, sim noc.Evaluator) (noc.Result, error) {
	base, err := e.baseFor(sp)
	if err != nil {
		return noc.Result{}, err
	}
	s, err := sp.ScenarioWith(base)
	if err != nil {
		return noc.Result{}, err
	}
	if sp.Evaluator == "model" {
		return noc.Model{}.Evaluate(s)
	}
	return sim.Evaluate(s)
}

// baseFor returns the shared compiled scenario for the spec's structural
// sub-spec, compiling and caching it on first use. Two workers racing on
// a cold key may compile twice; the cache keeps one and both builds are
// equivalent, so this is a benign inefficiency, not a correctness issue.
func (e *Evaluator) baseFor(sp noc.Spec) (*noc.Scenario, error) {
	st := sp.Structural()
	cjson, err := json.Marshal(st)
	if err != nil {
		return nil, fmt.Errorf("service: encoding structural spec: %w", err)
	}
	key := string(cjson)
	e.mu.Lock()
	base, ok := e.bases.get(key)
	e.mu.Unlock()
	if ok {
		return base, nil
	}
	base, err = st.Scenario()
	if err != nil {
		return nil, err
	}
	e.mu.Lock()
	e.bases.add(key, base)
	e.mu.Unlock()
	return base, nil
}
