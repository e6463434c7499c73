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
	"bytes"
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
	// ErrUnencodable reports a Result the response encoder refused (a
	// non-finite number outside the latency fields). It fails the
	// evaluation before anything is cached, persisted or written.
	ErrUnencodable = errors.New("service: result is not encodable")
)

// MaxSweepPoints bounds one sweep request's rate grid.
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
	// SourceFleet means the Result came from a peer quarcd, through the
	// noc/service/fleet shim; a daemon never answers with it.
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
// GET /v1/healthz and consumed by load balancers.
type HealthState struct {
	Status string `json:"status"`
	Reason string `json:"reason,omitempty"`
}

// Response is one served evaluation: the Result, the response document
// it encodes to, the content address of the spec that produced it and
// how this request obtained it. Body is the exact byte string every
// request for the same spec is answered with — computed, cached,
// coalesced, read back from the store or traced — and is shared between
// them: callers must treat it as read-only.
type Response struct {
	Result      noc.Result
	Body        []byte
	Fingerprint uint64
	Source      Source

	// ent is the entry the response was served from, whose prebuilt
	// header value the handler writes while Fingerprint still names it.
	ent *entry
}

// entry is one cached evaluation, immutable once built: the Result, its
// encoded response document, the fingerprint of its spec and that
// fingerprint's X-Quarc-Fingerprint value (cap == len, so a handler that
// appends to it copies it). It is built exactly once, where the Result is
// born (newEntry), and shared by the LRU, the flight that produced it and
// every Response served from it.
type entry struct {
	res      noc.Result
	body     []byte
	fp       uint64
	fpHeader []string
}

func newEntry(fp uint64, res noc.Result) (*entry, error) {
	body, err := encodeResult(res)
	if err != nil {
		return nil, err
	}
	return &entry{res: res, body: body, fp: fp, fpHeader: []string{hex16(fp)}}, nil
}

// encodeResult is the one Result encoder of the serving stack: the
// response document of /v1/evaluate and /v1/trace, newline-terminated,
// HTML characters unescaped.
func encodeResult(res noc.Result) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(res); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrUnencodable, err)
	}
	return buf.Bytes(), nil
}

func (ent *entry) response(src Source) Response {
	return Response{Result: ent.res, Body: ent.body, Fingerprint: ent.fp, Source: src, ent: ent}
}

// flight is one in-progress evaluation of the spec whose fingerprint is
// fp; waiters block on done.
type flight struct {
	done chan struct{}
	fp   uint64
	ent  *entry
	err  error
}

// job is one queued evaluation of a canonical spec. key is the spec's
// in-memory key (noc.Spec.AppendKey), under which the flight and the
// result are filed; doc is its canonical JSON, the durable store's key.
// persist marks results the durable store has not seen yet (computed, as
// opposed to read back from it).
type job struct {
	key, doc string
	sp       noc.Spec
	f        *flight
	persist  bool
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
	results *lruCache[*entry]
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
		results: newLRU[*entry](cfg.CacheEntries),
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
// balancers stop routing new work to it.
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

// Serve answers one spec: from the cache when its canonical form was
// evaluated before, by joining an identical in-flight evaluation, or by
// scheduling a fresh evaluation on the worker pool. Response.Source says
// which; whichever it is, the same spec is answered with the same bytes.
func (e *Evaluator) Serve(ctx context.Context, sp noc.Spec) (Response, error) {
	if err := sp.Validate(); err != nil {
		return Response{}, err
	}
	if sp.Record != "" || sp.Replay != "" {
		return Response{}, ErrTraceSpec
	}
	// Canonicalize once: the canonical spec's binary key names it in the
	// tables (DESIGN.md §13, "In-memory keys"), and the canonical spec
	// itself is what a worker compiles.
	canon := sp.Canonical()
	var kb [256]byte
	key := canon.AppendKey(kb[:0])

	// Both lookups go by the key's bytes, on the stack for any ordinary
	// spec; only a miss pays for the strings the tables keep.
	e.mu.Lock()
	if ent, ok := e.results.get(key); ok {
		e.mu.Unlock()
		e.hits.Add(1)
		return ent.response(SourceCache), nil
	}
	if f, ok := e.flights[string(key)]; ok {
		e.mu.Unlock()
		e.coalesced.Add(1)
		ent, err := e.wait(ctx, f)
		if err != nil {
			if ctx.Err() == nil &&
				(errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)) {
				// The submitting caller gave up before its job reached the
				// queue and failed the shared flight with its own context
				// error; ours is still live, so take over with a fresh
				// attempt instead of propagating a foreign cancellation.
				return e.Serve(ctx, sp)
			}
			return Response{}, err
		}
		return ent.response(SourceCoalesced), nil
	}
	// A miss. The canonical JSON names the result outside this process:
	// hashed, it is the fingerprint; as is, the durable store's key.
	var db [512]byte
	doc, err := canon.AppendJSON(db[:0])
	if err != nil {
		e.mu.Unlock()
		return Response{}, fmt.Errorf("service: encoding spec: %w", err)
	}
	j := job{key: string(key), doc: string(doc), f: &flight{done: make(chan struct{}), fp: noc.FingerprintOf(doc)}}
	e.flights[j.key] = j.f
	e.mu.Unlock()

	// Durable layer: a warm restart finds the result on disk. The
	// lookup runs under the flight, so concurrent identical requests
	// coalesce onto one disk read exactly as they do onto one
	// evaluation; resolve() encodes the hit and promotes it into the LRU.
	if e.cfg.Store != nil {
		if res, ok := e.cfg.Store.Get(j.doc); ok {
			e.storeHits.Add(1)
			e.resolve(j, res, nil)
			if j.f.err != nil {
				return Response{}, j.f.err
			}
			return j.f.ent.response(SourceStore), nil
		}
	}
	e.misses.Add(1)

	// Execution advice is not content — Canonical dropped it from the key.
	// Replications run serially inside a job, so that Workers is the only
	// concurrency bound (the aggregate is bitwise-independent of that
	// choice).
	canon.Parallelism = 1
	j.sp, j.persist = canon, true
	select {
	case e.jobs <- j:
	case <-ctx.Done():
		err := ctx.Err()
		if cap(e.jobs) > 0 && len(e.jobs) >= cap(e.jobs) {
			// The context expired while the pending buffer was full: the
			// request died of overload, not of its own deadline, and the
			// typed error lets clients retry elsewhere.
			err = fmt.Errorf("%w (%v)", ErrQueueSaturated, ctx.Err()) //quarclint:ignore errdiscipline the context error must NOT join the chain: overload classifies as queue_saturated, not as the caller's timeout
		}
		e.resolve(j, noc.Result{}, err)
		return Response{}, err
	case <-e.done:
		e.resolve(j, noc.Result{}, ErrClosed)
		return Response{}, ErrClosed
	}
	ent, err := e.wait(ctx, j.f)
	if err != nil {
		return Response{}, err
	}
	return ent.response(SourceComputed), nil
}

// Evaluate is Serve for callers that want the Result alone.
func (e *Evaluator) Evaluate(ctx context.Context, sp noc.Spec) (noc.Result, Source, error) {
	resp, err := e.Serve(ctx, sp)
	return resp.Result, resp.Source, err
}

// Sweep evaluates the spec across a rate grid on the shared pool — one
// content-addressed job per rate, so repeated and overlapping sweeps
// deduplicate point-wise. It validates the grid first and returns the
// results in rate order, or the first failing point's error.
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
// evaluation by content address: the response whose spec fingerprint is
// fp, searched through the LRU cache, the in-flight table (a live
// evaluation resolves the query when it completes) and the durable
// store. Every cached entry and every flight carries its fingerprint, so
// the cache and in-flight scans compare integers under the mutex and
// allocate nothing; the store's key list is hashed per query — the
// fingerprint is the FNV-1a hash of the canonical spec encoding, the same
// address noc.Spec.Fingerprint computes, so no side index is needed. A result evaluated without
// Metrics resolves to ErrNotFound: the daemon never recomputes on a GET.
func (e *Evaluator) Trace(ctx context.Context, fp uint64) (Response, error) {
	e.mu.Lock()
	if ent, ok := e.results.find(func(ent *entry) bool { return ent.fp == fp }); ok {
		e.mu.Unlock()
		return traceResponse(ent, SourceCache)
	}
	var live *flight
	for _, f := range e.flights {
		if f.fp == fp {
			live = f
			break
		}
	}
	e.mu.Unlock()
	if live != nil {
		ent, err := e.wait(ctx, live)
		if err != nil {
			return Response{}, err
		}
		return traceResponse(ent, SourceCoalesced)
	}
	if e.cfg.Store != nil {
		for _, key := range e.cfg.Store.Keys() {
			if noc.FingerprintOf(key) != fp {
				continue
			}
			if res, ok := e.cfg.Store.Get(key); ok {
				e.storeHits.Add(1)
				ent, err := newEntry(fp, res)
				if err != nil {
					return Response{}, err
				}
				return traceResponse(ent, SourceStore)
			}
		}
	}
	return Response{}, fmt.Errorf("%w: %016x has not been evaluated here", ErrNotFound, fp)
}

// traceResponse finishes a Trace lookup: a hit without a recorded series
// is still ErrNotFound, with a hint at the missing spec field.
func traceResponse(ent *entry, src Source) (Response, error) {
	if ent.res.Series == nil {
		return Response{}, fmt.Errorf("%w: the result has no recorded series (evaluate with \"metrics\": true)", ErrNotFound)
	}
	return ent.response(src), nil
}

// wait blocks until the flight resolves, the caller's context expires or
// the evaluator closes. An abandoned flight still completes and caches
// its result for the next request.
func (e *Evaluator) wait(ctx context.Context, f *flight) (*entry, error) {
	select {
	case <-f.done:
		return f.ent, f.err
	case <-ctx.Done():
		return nil, ctx.Err()
	case <-e.done:
		// The pool is shutting down; the flight may never run. Give a
		// resolved flight precedence over the shutdown signal.
		select {
		case <-f.done:
			return f.ent, f.err
		default:
			return nil, ErrClosed
		}
	}
}

// resolve publishes a flight's outcome and wakes its waiters. This is
// where a Result is born as far as serving goes: a success is encoded
// into its entry here, once — on the worker for computed results, on the
// requesting goroutine for a store read-back — and an encode failure
// fails the flight like any evaluation error, so nothing unencodable is
// cached, persisted or answered 200. Freshly computed results are
// persisted to the durable store (under the job's canonical JSON) before
// the flight resolves, so a result
// is on disk by the time any client has seen it; a persistence failure
// only degrades durability (counted, response unaffected).
func (e *Evaluator) resolve(j job, res noc.Result, err error) {
	var ent *entry
	if err == nil {
		ent, err = newEntry(j.f.fp, res)
	}
	if err == nil && j.persist && e.cfg.Store != nil {
		if perr := e.cfg.Store.Put(j.doc, res); perr != nil {
			e.storeErrors.Add(1)
		}
	}
	e.mu.Lock()
	if err == nil {
		e.evictions.Add(uint64(e.results.add(j.key, ent)))
	}
	delete(e.flights, j.key)
	e.mu.Unlock()
	j.f.ent, j.f.err = ent, err
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
	var kb [256]byte
	key := st.AppendKey(kb[:0])
	e.mu.Lock()
	base, ok := e.bases.get(key)
	e.mu.Unlock()
	if ok {
		return base, nil
	}
	base, err := st.Scenario()
	if err != nil {
		return nil, err
	}
	e.mu.Lock()
	e.bases.add(string(key), base)
	e.mu.Unlock()
	return base, nil
}
