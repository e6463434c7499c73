// Package fleet fans quarc evaluations out to peer quarcd daemons over
// the service HTTP protocol, with the failure handling a real fleet
// needs: per-job deadlines, bounded retries under capped exponential
// backoff with deterministic jitter, hedged re-dispatch of stragglers,
// a healthz-driven circuit breaker per peer, and graceful degradation
// to local evaluation when no peer can serve.
//
// Correctness leans on content addressing: a spec's fingerprint names
// its result, so re-dispatching a job — retry, hedge, or fallback — can
// only ever produce the same bytes. The dispatcher verifies the
// X-Quarc-Fingerprint echoed by peers against the spec it sent, so a
// confused peer is treated as a transport failure, never trusted.
package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"quarc/noc"
	"quarc/noc/service"
)

// maxResponseBody bounds one peer response document.
const maxResponseBody = 1 << 24

// errNoPeers reports that no configured peer is currently admissible.
var errNoPeers = errors.New("fleet: no admissible peers")

// Config tunes a Dispatcher. Zero durations and counts take the
// defaults noted on each field.
type Config struct {
	// Peers are the base URLs of peer quarcd daemons, e.g.
	// "http://10.0.0.2:8080". Trailing slashes are stripped.
	Peers []string
	// Local is the evaluator of last resort (and the authority on spec
	// errors). Required.
	Local *service.Evaluator
	// Client performs peer HTTP calls. Defaults to a plain http.Client;
	// tests thread a faultinject.Transport through here.
	Client *http.Client
	// RequestTimeout bounds one peer call (default 30s).
	RequestTimeout time.Duration
	// MaxAttempts bounds dispatch attempts per job, first try included
	// (default 3).
	MaxAttempts int
	// BaseBackoff and MaxBackoff shape the capped exponential backoff
	// between attempts (defaults 25ms and 1s).
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
	// HedgeAfter launches a second dispatch to another peer when the
	// first has not answered within this duration; first answer wins.
	// Zero disables hedging.
	HedgeAfter time.Duration
	// FailThreshold consecutive failures open a peer's circuit breaker
	// (default 3).
	FailThreshold int
	// Cooldown is how long an open breaker waits before probing the
	// peer's healthz for re-admission (default 5s).
	Cooldown time.Duration
	// ProbeTimeout bounds one re-admission healthz probe (default 2s).
	ProbeTimeout time.Duration
	// Concurrency bounds in-flight sweep points (default 2 per peer,
	// minimum 4).
	Concurrency int
	// Seed drives the deterministic backoff jitter.
	Seed uint64
}

// Counters snapshots the dispatcher's fleet-level activity. All fields
// are lifetime totals.
type Counters struct {
	// Dispatched counts jobs answered by a peer.
	Dispatched uint64 `json:"dispatched"`
	// Retries counts re-dispatches after a retryable peer failure.
	Retries uint64 `json:"retries"`
	// Hedges counts hedged second dispatches; HedgeWins counts the ones
	// that answered first.
	Hedges    uint64 `json:"hedges"`
	HedgeWins uint64 `json:"hedge_wins"`
	// Fallbacks counts jobs degraded to local evaluation.
	Fallbacks uint64 `json:"fallbacks"`
	// BreakerOpens counts breaker open transitions across all peers.
	BreakerOpens uint64 `json:"breaker_opens"`
}

// Dispatcher fans evaluations out to peers and implements
// service.Backend (plus service.PeerReporter), so quarcd serves it
// exactly like a local evaluator.
type Dispatcher struct {
	cfg    Config
	client *http.Client
	local  *service.Evaluator
	peers  []*peer
	next   atomic.Uint64
	jitter *jitterSource

	dispatched   atomic.Uint64
	retries      atomic.Uint64
	hedges       atomic.Uint64
	hedgeWins    atomic.Uint64
	fallbacks    atomic.Uint64
	breakerOpens atomic.Uint64

	// Trace routing: which peer computed which fingerprint, so a
	// /v1/trace query lands on the box whose cache actually holds the
	// series. Bounded FIFO; a forgotten (or wrong) route only costs a
	// fallback to local lookup.
	traceMu    sync.Mutex
	tracePeers map[uint64]*peer
	traceRing  []uint64
	traceNext  int
}

// maxTraceRoutes bounds the fingerprint-to-peer trace routing table.
const maxTraceRoutes = 4096

// New builds a Dispatcher. Local is required; an empty peer list is
// legal and degrades every job to local evaluation.
func New(cfg Config) (*Dispatcher, error) {
	if cfg.Local == nil {
		return nil, errors.New("fleet: Config.Local is required")
	}
	if cfg.Client == nil {
		cfg.Client = &http.Client{}
	}
	if cfg.RequestTimeout <= 0 {
		cfg.RequestTimeout = 30 * time.Second
	}
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = 3
	}
	if cfg.BaseBackoff <= 0 {
		cfg.BaseBackoff = 25 * time.Millisecond
	}
	if cfg.MaxBackoff <= 0 {
		cfg.MaxBackoff = time.Second
	}
	if cfg.FailThreshold <= 0 {
		cfg.FailThreshold = 3
	}
	if cfg.Cooldown <= 0 {
		cfg.Cooldown = 5 * time.Second
	}
	if cfg.ProbeTimeout <= 0 {
		cfg.ProbeTimeout = 2 * time.Second
	}
	if cfg.Concurrency <= 0 {
		cfg.Concurrency = max(4, 2*len(cfg.Peers))
	}
	d := &Dispatcher{
		cfg:    cfg,
		client: cfg.Client,
		local:  cfg.Local,
		jitter: newJitterSource(cfg.Seed),
	}
	for _, u := range cfg.Peers {
		u = strings.TrimRight(strings.TrimSpace(u), "/")
		if u == "" {
			return nil, errors.New("fleet: empty peer URL")
		}
		d.peers = append(d.peers, &peer{url: u})
	}
	return d, nil
}

// Serve answers one spec: dispatched to a peer when one is admissible,
// degraded to the local evaluator otherwise. Peer-served responses
// carry service.SourceFleet.
func (d *Dispatcher) Serve(ctx context.Context, sp noc.Spec) (service.Response, error) {
	if len(d.peers) > 0 {
		resp, err := d.dispatch(ctx, sp)
		if err == nil {
			d.dispatched.Add(1)
			return resp, nil
		}
		if ctx.Err() != nil {
			return service.Response{}, fmt.Errorf("fleet: %w", ctx.Err())
		}
		// Every dispatch failure — peers down, retries exhausted, or a
		// peer-side 4xx — degrades to local evaluation, which either
		// serves the job or produces the authoritative typed error.
		d.fallbacks.Add(1)
	}
	return d.local.Serve(ctx, sp)
}

// Evaluate is Serve for callers that want the Result alone.
func (d *Dispatcher) Evaluate(ctx context.Context, sp noc.Spec) (noc.Result, service.Source, error) {
	resp, err := d.Serve(ctx, sp)
	return resp.Result, resp.Source, err
}

// Sweep evaluates the spec across the rate grid, fanning the points out
// as independent jobs under the concurrency bound (service.Sweep).
func (d *Dispatcher) Sweep(ctx context.Context, sp noc.Spec, rates []float64) ([]noc.Result, error) {
	return service.Sweep(ctx, sp, rates, d.cfg.Concurrency, d.Evaluate)
}

// Trace serves a /v1/trace query: forwarded to the peer that computed
// the fingerprint's result (per the trace routing table) when that
// peer is admissible, answered from the local evaluator's caches
// otherwise — including when the peer has since forgotten or lost the
// entry.
func (d *Dispatcher) Trace(ctx context.Context, fp uint64) (service.Response, error) {
	if p := d.tracePeer(fp); p != nil && d.admissible(p) {
		res, err := d.getTrace(ctx, p, fp)
		if err == nil {
			d.recordSuccess(p)
			return service.NewResponse(res, fp, service.SourceFleet)
		}
		if ctx.Err() != nil {
			return service.Response{}, fmt.Errorf("fleet: %w", ctx.Err())
		}
		var se *statusError
		if !errors.As(err, &se) {
			// The peer answered nothing at all; that counts against its
			// breaker. An answered error (404 after an eviction, 503 while
			// draining) does not — the box is alive.
			d.recordFailure(p)
		}
	}
	return d.local.Trace(ctx, fp)
}

// getTrace performs one GET /v1/trace call against p, with the same
// response validation as post.
func (d *Dispatcher) getTrace(ctx context.Context, p *peer, fp uint64) (noc.Result, error) {
	cctx, cancel := context.WithTimeout(ctx, d.cfg.RequestTimeout)
	defer cancel()
	want := fmt.Sprintf("%016x", fp)
	req, err := http.NewRequestWithContext(cctx, http.MethodGet, p.url+"/v1/trace/"+want, nil)
	if err != nil {
		return noc.Result{}, fmt.Errorf("fleet: peer %s: %w", p.url, err)
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return noc.Result{}, fmt.Errorf("fleet: peer %s: %w", p.url, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, maxResponseBody))
	if err != nil {
		return noc.Result{}, fmt.Errorf("fleet: peer %s: reading response: %w", p.url, err)
	}
	if resp.StatusCode != http.StatusOK {
		msg, ec := compactError(data)
		return noc.Result{}, &statusError{url: p.url, code: resp.StatusCode, errCode: ec, body: msg}
	}
	if got := resp.Header.Get(service.HeaderFingerprint); got != "" && got != want {
		return noc.Result{}, fmt.Errorf("fleet: peer %s answered fingerprint %s for trace %s", p.url, got, want)
	}
	var res noc.Result
	if err := json.Unmarshal(data, &res); err != nil {
		return noc.Result{}, fmt.Errorf("fleet: peer %s: decoding result: %w", p.url, err)
	}
	return res, nil
}

// rememberTrace records that p computed fp's result, evicting the
// oldest route past the table bound.
func (d *Dispatcher) rememberTrace(fp uint64, p *peer) {
	d.traceMu.Lock()
	defer d.traceMu.Unlock()
	if d.tracePeers == nil {
		d.tracePeers = make(map[uint64]*peer)
	}
	if _, ok := d.tracePeers[fp]; !ok {
		if len(d.traceRing) < maxTraceRoutes {
			d.traceRing = append(d.traceRing, fp)
		} else {
			delete(d.tracePeers, d.traceRing[d.traceNext])
			d.traceRing[d.traceNext] = fp
			d.traceNext = (d.traceNext + 1) % maxTraceRoutes
		}
	}
	d.tracePeers[fp] = p
}

// tracePeer returns the recorded computing peer for fp, nil when
// unknown.
func (d *Dispatcher) tracePeer(fp uint64) *peer {
	d.traceMu.Lock()
	defer d.traceMu.Unlock()
	return d.tracePeers[fp]
}

// Stats delegates to the local evaluator's counters.
func (d *Dispatcher) Stats() service.Stats { return d.local.Stats() }

// Healthz delegates to the local evaluator's state.
func (d *Dispatcher) Healthz() service.HealthState { return d.local.Healthz() }

// Counters snapshots the fleet-level activity totals.
func (d *Dispatcher) Counters() Counters {
	return Counters{
		Dispatched:   d.dispatched.Load(),
		Retries:      d.retries.Load(),
		Hedges:       d.hedges.Load(),
		HedgeWins:    d.hedgeWins.Load(),
		Fallbacks:    d.fallbacks.Load(),
		BreakerOpens: d.breakerOpens.Load(),
	}
}

// PeerHealth implements service.PeerReporter: one breaker snapshot per
// configured peer, in configuration order.
func (d *Dispatcher) PeerHealth() []service.PeerHealth {
	out := make([]service.PeerHealth, len(d.peers))
	for i, p := range d.peers {
		out[i] = p.snapshot()
	}
	return out
}

// dispatch runs the retry loop: pick an admissible peer, call it (with
// hedging), back off and repeat on retryable failure. A peer-side 4xx
// is non-retryable — the spec itself is wrong and every peer will say
// the same.
//
// The job's content address is hashed once, here, from the canonical
// body every attempt posts; the peer's answer is decoded in full (post)
// and re-encoded through the serving stack's one encoder, so a fleet
// response is the document a local evaluation would have served.
func (d *Dispatcher) dispatch(ctx context.Context, sp noc.Spec) (service.Response, error) {
	body, err := sp.CanonicalJSON()
	if err != nil {
		return service.Response{}, fmt.Errorf("fleet: encoding spec: %w", err)
	}
	fp := noc.FingerprintOf(body)
	var lastErr error
	for attempt := 1; attempt <= d.cfg.MaxAttempts; attempt++ {
		if err := ctx.Err(); err != nil {
			return service.Response{}, err
		}
		p := d.pickPeer(nil)
		if p == nil {
			if lastErr != nil {
				return service.Response{}, fmt.Errorf("%w after %d attempts: %w", errNoPeers, attempt-1, lastErr)
			}
			return service.Response{}, errNoPeers
		}
		if attempt > 1 {
			d.retries.Add(1)
		}
		res, err := d.callHedged(ctx, p, body, fp)
		if err == nil {
			return service.NewResponse(res, fp, service.SourceFleet)
		}
		if isNonRetryable(err) {
			return service.Response{}, err
		}
		lastErr = err
		if attempt < d.cfg.MaxAttempts {
			if err := sleepCtx(ctx, d.backoff(attempt)); err != nil {
				return service.Response{}, err
			}
		}
	}
	return service.Response{}, fmt.Errorf("fleet: %d attempts exhausted: %w", d.cfg.MaxAttempts, lastErr)
}

// callHedged performs one dispatch attempt against primary, launching a
// hedged second call to another peer if the first is still unanswered
// after HedgeAfter. First success wins; the loser is canceled. The
// outcome channel is buffered to the launch count so abandoned calls
// never leak a goroutine.
func (d *Dispatcher) callHedged(ctx context.Context, primary *peer, body []byte, fp uint64) (noc.Result, error) {
	cctx, cancel := context.WithTimeout(ctx, d.cfg.RequestTimeout)
	defer cancel()

	type outcome struct {
		res    noc.Result
		err    error
		peer   *peer
		hedged bool
	}
	ch := make(chan outcome, 2)
	launch := func(p *peer, hedged bool) {
		go func() {
			res, err := d.post(cctx, p, body, fp)
			ch <- outcome{res: res, err: err, peer: p, hedged: hedged}
		}()
	}
	launch(primary, false)
	outstanding := 1

	var hedge <-chan time.Time
	if d.cfg.HedgeAfter > 0 && len(d.peers) > 1 {
		t := time.NewTimer(d.cfg.HedgeAfter)
		defer t.Stop()
		hedge = t.C
	}

	var lastErr error
	for {
		select {
		case o := <-ch:
			outstanding--
			if o.err == nil {
				d.recordSuccess(o.peer)
				d.rememberTrace(fp, o.peer)
				if o.hedged {
					d.hedgeWins.Add(1)
				}
				return o.res, nil
			}
			// A deadline expiry counts against the breaker too: a peer
			// that cannot answer within the job deadline is failing,
			// whatever the transport says.
			d.recordFailure(o.peer)
			if isNonRetryable(o.err) {
				return noc.Result{}, o.err
			}
			lastErr = o.err
			if outstanding == 0 {
				return noc.Result{}, lastErr
			}
		case <-hedge:
			hedge = nil
			if p := d.pickPeer(primary); p != nil {
				d.hedges.Add(1)
				launch(p, true)
				outstanding++
			}
		}
	}
}

// post performs one /v1/evaluate call and validates the answer: status,
// echoed fingerprint, and a full JSON decode. Anything short of a
// complete, correctly-addressed result is an error — a truncated or
// corrupted response can never be mistaken for data.
func (d *Dispatcher) post(ctx context.Context, p *peer, body []byte, fp uint64) (noc.Result, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, p.url+"/v1/evaluate", bytes.NewReader(body))
	if err != nil {
		return noc.Result{}, fmt.Errorf("fleet: peer %s: %w", p.url, err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := d.client.Do(req)
	if err != nil {
		return noc.Result{}, fmt.Errorf("fleet: peer %s: %w", p.url, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, maxResponseBody))
	if err != nil {
		return noc.Result{}, fmt.Errorf("fleet: peer %s: reading response: %w", p.url, err)
	}
	if resp.StatusCode != http.StatusOK {
		msg, ec := compactError(data)
		return noc.Result{}, &statusError{url: p.url, code: resp.StatusCode, errCode: ec, body: msg}
	}
	want := fmt.Sprintf("%016x", fp)
	if got := resp.Header.Get(service.HeaderFingerprint); got != "" && got != want {
		return noc.Result{}, fmt.Errorf("fleet: peer %s answered fingerprint %s for job %s", p.url, got, want)
	}
	var res noc.Result
	if err := json.Unmarshal(data, &res); err != nil {
		return noc.Result{}, fmt.Errorf("fleet: peer %s: decoding result: %w", p.url, err)
	}
	return res, nil
}

// pickPeer round-robins over the admissible peers, skipping exclude
// when any other peer qualifies. Nil when no peer is admissible.
func (d *Dispatcher) pickPeer(exclude *peer) *peer {
	if len(d.peers) == 0 {
		return nil
	}
	start := int(d.next.Add(1)-1) % len(d.peers)
	var fallback *peer
	for i := 0; i < len(d.peers); i++ {
		p := d.peers[(start+i)%len(d.peers)]
		if !d.admissible(p) {
			continue
		}
		if p == exclude {
			fallback = p
			continue
		}
		return p
	}
	return fallback
}

// statusError is a non-200 peer response. errCode carries the
// machine-readable code from the service error envelope when the peer
// sent one ("" for legacy or non-JSON bodies).
type statusError struct {
	url     string
	code    int
	errCode string
	body    string
}

func (e *statusError) Error() string {
	if e.body == "" {
		return fmt.Sprintf("fleet: peer %s answered %d", e.url, e.code)
	}
	return fmt.Sprintf("fleet: peer %s answered %d: %s", e.url, e.code, e.body)
}

// isNonRetryable reports whether the peer's answer settles the job.
// The envelope code is authoritative when present: invalid_spec and
// not_found are verdicts about the request itself, which every peer
// will repeat, while draining and queue_saturated are verdicts about
// that peer only — another one may serve the job, whatever the HTTP
// status said. Without a code, a 4xx is taken as a refusal of the
// request (the pre-envelope heuristic).
func isNonRetryable(err error) bool {
	var se *statusError
	if !errors.As(err, &se) {
		return false
	}
	switch se.errCode {
	case "invalid_spec", "not_found":
		return true
	case "":
		return se.code >= 400 && se.code < 500
	}
	return false
}

// compactError extracts the message and machine code from a peer's
// JSON error envelope, falling back to a trimmed raw prefix.
func compactError(data []byte) (msg, code string) {
	var eb struct {
		Error string `json:"error"`
		Code  string `json:"code"`
	}
	if err := json.Unmarshal(data, &eb); err == nil && eb.Error != "" {
		return eb.Error, eb.Code
	}
	s := strings.TrimSpace(string(data))
	if len(s) > 200 {
		s = s[:200] + "..."
	}
	return s, ""
}
