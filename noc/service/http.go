package service

import (
	"bytes"
	"context"
	_ "embed"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"quarc/noc"
)

// dashboardHTML is the static time-series dashboard page served at
// GET /dashboard: a dependency-free viewer that fetches /v1/trace/{fp}
// and plots the series with inline SVG.
//
//go:embed dashboard.html
var dashboardHTML []byte

// maxRequestBody bounds one request document. Specs are small; a larger
// body is hostile or a client bug.
const maxRequestBody = 1 << 20

// Response headers identifying the served content and how it was
// produced.
const (
	// HeaderFingerprint carries the spec's FNV-1a content address
	// (hexadecimal, 16 digits).
	HeaderFingerprint = "X-Quarc-Fingerprint"
	// HeaderSource carries the response Source: computed, cache,
	// coalesced, store or fleet.
	HeaderSource = "X-Quarc-Source"
)

// Backend is what the HTTP handler serves: the Evaluator, or a scripted
// fake in the handler tests. Implementations must be safe for concurrent
// use.
type Backend interface {
	// Serve answers one spec; see Evaluator.Serve. The handler writes
	// Response.Body as is and never modifies it.
	Serve(ctx context.Context, sp noc.Spec) (Response, error)
	// Sweep evaluates the spec across a rate grid; see Evaluator.Sweep.
	Sweep(ctx context.Context, sp noc.Spec, rates []float64) ([]noc.Result, error)
	// Trace serves the response (with its recorded time series) of a
	// previous evaluation by content address; see Evaluator.Trace.
	Trace(ctx context.Context, fp uint64) (Response, error)
	// Stats snapshots the serving counters.
	Stats() Stats
	// Healthz reports current serviceability.
	Healthz() HealthState
}

// HandlerConfig tunes NewHandlerConfig.
type HandlerConfig struct {
	// RequestTimeout is the per-evaluation server deadline for the
	// evaluate and sweep routes; when it expires before the client's
	// own context, the response is 504 Gateway Timeout. Zero disables.
	RequestTimeout time.Duration
}

// SweepRequest is the POST /v1/sweep document: one spec plus the rate
// grid to evaluate it across.
type SweepRequest struct {
	Spec  noc.Spec  `json:"spec"`
	Rates []float64 `json:"rates"`
}

// SweepPoint is one rate sample of a sweep response.
type SweepPoint struct {
	Rate   float64    `json:"rate"`
	Result noc.Result `json:"result"`
}

// SweepResponse is the POST /v1/sweep response body.
type SweepResponse struct {
	Fingerprint string       `json:"fingerprint"`
	Points      []SweepPoint `json:"points"`
}

// Registry is the GET /v1/registry response body: every name the spec
// codec accepts, straight from the noc name tables.
type Registry struct {
	Topologies []string `json:"topologies"`
	Routers    []string `json:"routers"`
	Patterns   []string `json:"patterns"`
	Arrivals   []string `json:"arrivals"`
	Spatials   []string `json:"spatials"`
	Evaluators []string `json:"evaluators"`
}

// Health is the GET /v1/healthz response body. Status "ok" is served
// with 200; anything else (draining, saturated queue) with 503 so load
// balancers take the box out of rotation while it still answers.
type Health struct {
	Status        string  `json:"status"`
	Reason        string  `json:"reason,omitempty"`
	UptimeSeconds float64 `json:"uptime_seconds"`
	Stats         Stats   `json:"stats"`
}

// Machine-readable error codes, carried in every non-2xx response so
// clients classify failures without parsing English. The human-readable
// message may change freely; the code set is API.
const (
	// CodeInvalidSpec marks client mistakes: malformed documents,
	// out-of-range fields, unservable option combinations. Never retry.
	CodeInvalidSpec = "invalid_spec"
	// CodeDraining marks a server in graceful shutdown. Retry elsewhere.
	CodeDraining = "draining"
	// CodeQueueSaturated marks an overloaded job queue. Retry elsewhere
	// after backoff.
	CodeQueueSaturated = "queue_saturated"
	// CodeNotFound marks a trace query no evaluation answers to.
	CodeNotFound = "not_found"
	// CodeCanceled and CodeTimeout mark a dead client context and an
	// expired server deadline respectively.
	CodeCanceled = "canceled"
	CodeTimeout  = "timeout"
	// CodeInternal is everything else.
	CodeInternal = "internal"
)

// errorBody is every non-2xx response body: a human-readable message
// plus the machine-readable code.
type errorBody struct {
	Error string `json:"error"`
	Code  string `json:"code"`
}

// errorCode classifies an error into the wire code writeError serves.
func errorCode(err error) string {
	switch {
	case errors.Is(err, noc.ErrInvalidSpec), errors.Is(err, noc.ErrInvalidOption),
		errors.Is(err, noc.ErrOptionConflict), errors.Is(err, ErrTraceSpec),
		errors.Is(err, noc.ErrModelInapplicable):
		return CodeInvalidSpec
	case errors.Is(err, ErrQueueSaturated):
		return CodeQueueSaturated
	case errors.Is(err, ErrClosed):
		return CodeDraining
	case errors.Is(err, ErrNotFound):
		return CodeNotFound
	case errors.Is(err, context.DeadlineExceeded):
		return CodeTimeout
	case errors.Is(err, context.Canceled):
		return CodeCanceled
	}
	return CodeInternal
}

// NewHandler wraps the backend in the quarcd HTTP API:
//
//	POST /v1/evaluate           Spec JSON     -> Result JSON
//	POST /v1/sweep              {spec, rates} -> {fingerprint, points}
//	GET  /v1/trace/{fp}                       -> Result JSON with series
//	GET  /dashboard                           -> time-series dashboard page
//	GET  /v1/registry                         -> the names specs may use
//	GET  /v1/healthz                          -> status + cache/pool stats
//
// Evaluate and sweep responses carry X-Quarc-Fingerprint (the content
// address) and X-Quarc-Source (computed/cache/coalesced/store/fleet).
func NewHandler(b Backend) http.Handler {
	return NewHandlerConfig(b, HandlerConfig{})
}

// NewHandlerConfig is NewHandler with explicit tuning.
func NewHandlerConfig(b Backend, hc HandlerConfig) http.Handler {
	start := time.Now()
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/evaluate", func(w http.ResponseWriter, r *http.Request) {
		body, err := readBody(w, r)
		if err != nil {
			writeError(w, err)
			return
		}
		sp, err := noc.ParseSpec(body)
		if err != nil {
			writeError(w, err)
			return
		}
		ctx, cancel := hc.requestCtx(r)
		defer cancel()
		resp, err := b.Serve(ctx, sp)
		if err != nil {
			writeRequestError(w, r, ctx, err)
			return
		}
		writeResponse(w, &resp)
	})
	mux.HandleFunc("POST /v1/sweep", func(w http.ResponseWriter, r *http.Request) {
		body, err := readBody(w, r)
		if err != nil {
			writeError(w, err)
			return
		}
		// The embedded spec goes through the same strict ParseSpec as
		// /v1/evaluate: a typo'd field must 400 here too, not silently
		// sweep the default value.
		var raw struct {
			Spec  json.RawMessage `json:"spec"`
			Rates []float64       `json:"rates"`
		}
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&raw); err != nil {
			writeError(w, fmt.Errorf("%w: %w", noc.ErrInvalidSpec, err))
			return
		}
		// A null spec is as absent as an omitted one, though ParseSpec
		// reads a bare null document as the default spec.
		if len(raw.Spec) == 0 || string(raw.Spec) == "null" {
			writeError(w, fmt.Errorf("%w: a sweep request needs a spec", noc.ErrInvalidSpec))
			return
		}
		req := SweepRequest{Rates: raw.Rates}
		if req.Spec, err = noc.ParseSpec(raw.Spec); err != nil {
			writeError(w, err)
			return
		}
		ctx, cancel := hc.requestCtx(r)
		defer cancel()
		results, err := b.Sweep(ctx, req.Spec, req.Rates)
		if err != nil {
			writeRequestError(w, r, ctx, err)
			return
		}
		resp := SweepResponse{
			Fingerprint: hex16(req.Spec.Fingerprint()),
			Points:      make([]SweepPoint, len(results)),
		}
		for i, res := range results {
			resp.Points[i] = SweepPoint{Rate: req.Rates[i], Result: res}
		}
		w.Header().Set(HeaderFingerprint, resp.Fingerprint)
		writeJSON(w, http.StatusOK, resp)
	})
	mux.HandleFunc("GET /v1/trace/{fingerprint}", func(w http.ResponseWriter, r *http.Request) {
		fp, err := strconv.ParseUint(r.PathValue("fingerprint"), 16, 64)
		if err != nil {
			writeError(w, fmt.Errorf("%w: fingerprint must be the 16-digit hex content address: %w", noc.ErrInvalidSpec, err))
			return
		}
		ctx, cancel := hc.requestCtx(r)
		defer cancel()
		resp, err := b.Trace(ctx, fp)
		if err != nil {
			writeRequestError(w, r, ctx, err)
			return
		}
		// The body is the full Result — the very bytes /v1/evaluate
		// served for this spec, series included — so offline recorder
		// output diffs against it bitwise.
		writeResponse(w, &resp)
	})
	mux.HandleFunc("GET /dashboard", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/html; charset=utf-8")
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write(dashboardHTML)
	})
	mux.HandleFunc("GET /v1/registry", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, Registry{
			Topologies: noc.Topologies(),
			Routers:    noc.Routers(),
			Patterns:   noc.Patterns(),
			Arrivals:   noc.Arrivals(),
			Spatials:   noc.Spatials(),
			Evaluators: []string{"model", "simulator"},
		})
	})
	mux.HandleFunc("GET /v1/healthz", func(w http.ResponseWriter, r *http.Request) {
		hs := b.Healthz()
		status := http.StatusOK
		if hs.Status != StatusOK {
			status = http.StatusServiceUnavailable
		}
		writeJSON(w, status, Health{
			Status:        hs.Status,
			Reason:        hs.Reason,
			UptimeSeconds: time.Since(start).Seconds(),
			Stats:         b.Stats(),
		})
	})
	return mux
}

// requestCtx derives the evaluation context: the request's own context,
// bounded by the configured per-evaluation deadline when one is set.
func (hc HandlerConfig) requestCtx(r *http.Request) (context.Context, context.CancelFunc) {
	if hc.RequestTimeout <= 0 {
		return r.Context(), func() {}
	}
	return context.WithTimeout(r.Context(), hc.RequestTimeout)
}

// readBody reads one request document, bounded by maxRequestBody, into
// a buffer sized from the declared Content-Length (one spare byte lets
// the final Read report EOF without growing it); an undeclared length
// starts at io.ReadAll's 512 bytes.
func readBody(w http.ResponseWriter, r *http.Request) ([]byte, error) {
	size := r.ContentLength
	if size < 0 {
		size = 511
	}
	buf := make([]byte, 0, min(size, maxRequestBody)+1)
	rd := http.MaxBytesReader(w, r.Body, maxRequestBody)
	for {
		n, err := rd.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return nil, fmt.Errorf("%w: reading request: %w", noc.ErrInvalidSpec, err)
		}
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
	}
}

// writeRequestError distinguishes the server-imposed evaluation
// deadline from a client cancelation before falling back to the shared
// status mapping: when the evaluation context hit its deadline while
// the client was still waiting, the request timed out server-side and
// the honest answer is 504 Gateway Timeout, not the client-gone 499.
func writeRequestError(w http.ResponseWriter, r *http.Request, ctx context.Context, err error) {
	if errors.Is(err, context.DeadlineExceeded) &&
		errors.Is(ctx.Err(), context.DeadlineExceeded) && r.Context().Err() == nil {
		writeJSON(w, http.StatusGatewayTimeout, errorBody{Error: err.Error(), Code: CodeTimeout})
		return
	}
	writeError(w, err)
}

// writeError maps service/spec errors onto HTTP statuses and wire
// codes: client mistakes are 400s, an unknown fingerprint is 404, a
// closing or overloaded server is 503, cancellations map to the
// client-gone 499 convention, anything else is a 500.
func writeError(w http.ResponseWriter, err error) {
	code := errorCode(err)
	status := http.StatusInternalServerError
	switch code {
	case CodeInvalidSpec:
		status = http.StatusBadRequest
	case CodeNotFound:
		status = http.StatusNotFound
	case CodeDraining, CodeQueueSaturated:
		status = http.StatusServiceUnavailable
	case CodeCanceled, CodeTimeout:
		status = 499 // client closed request (nginx convention)
	}
	writeJSON(w, status, errorBody{Error: err.Error(), Code: code})
}

// Header values shared by every response that carries them. Each
// slice has cap == len, so an Add to a response's header copies it
// instead of writing into it.
var (
	jsonContentType = []string{"application/json"}
	sourceHeaders   = [...][]string{
		{string(SourceComputed)}, {string(SourceCache)}, {string(SourceCoalesced)},
		{string(SourceStore)}, {string(SourceFleet)},
	}
)

// writeResponse serves an evaluate or trace Response: the three headers
// and the body the Response already carries. The header values are
// shared, not built per request: the content type and the source are
// package values, and the fingerprint is its entry's prebuilt one.
func writeResponse(w http.ResponseWriter, resp *Response) {
	h := w.Header()
	h["Content-Type"] = jsonContentType
	h[HeaderFingerprint] = resp.fingerprintHeader()
	h[HeaderSource] = sourceHeader(resp.Source)
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(resp.Body) // a failed write is a gone client; there is nobody left to tell
}

// fingerprintHeader is the X-Quarc-Fingerprint value: the entry's own,
// formatted afresh only for a Response without an entry or one whose
// Fingerprint was changed after it was served.
func (resp *Response) fingerprintHeader() []string {
	if resp.ent != nil && resp.ent.fp == resp.Fingerprint {
		return resp.ent.fpHeader
	}
	return []string{hex16(resp.Fingerprint)}
}

// sourceHeader is the X-Quarc-Source value of src.
func sourceHeader(src Source) []string {
	for _, v := range sourceHeaders {
		if v[0] == string(src) {
			return v
		}
	}
	return []string{string(src)}
}

// hex16 formats a content address the way the wire carries it: sixteen
// lower-case hexadecimal digits.
func hex16(fp uint64) string {
	const digits = "0123456789abcdef"
	var b [16]byte
	for i := len(b) - 1; i >= 0; i-- {
		b[i] = digits[fp&0xf]
		fp >>= 4
	}
	return string(b[:])
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}
