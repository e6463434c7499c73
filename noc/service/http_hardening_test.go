package service

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"quarc/noc"
)

// fakeBackend scripts Backend behavior for handler-level tests that
// would be awkward to stage through a real evaluator (slow jobs,
// specific health states).
type fakeBackend struct {
	eval   func(ctx context.Context, sp noc.Spec) (noc.Result, Source, error)
	trace  func(ctx context.Context, fp uint64) (Response, error)
	health HealthState
}

func (f *fakeBackend) Serve(ctx context.Context, sp noc.Spec) (Response, error) {
	res, src, err := f.eval(ctx, sp)
	if err != nil {
		return Response{}, err
	}
	ent, err := newEntry(sp.Fingerprint(), res)
	if err != nil {
		return Response{}, err
	}
	return ent.response(src), nil
}

func (f *fakeBackend) Sweep(ctx context.Context, sp noc.Spec, rates []float64) ([]noc.Result, error) {
	out := make([]noc.Result, len(rates))
	for i := range rates {
		res, _, err := f.eval(ctx, sp)
		if err != nil {
			return nil, err
		}
		out[i] = res
	}
	return out, nil
}

func (f *fakeBackend) Trace(ctx context.Context, fp uint64) (Response, error) {
	if f.trace != nil {
		return f.trace(ctx, fp)
	}
	return Response{}, ErrNotFound
}

func (f *fakeBackend) Stats() Stats         { return Stats{} }
func (f *fakeBackend) Healthz() HealthState { return f.health }

// blockingBackend evaluates by waiting out the context — the shape of a
// stuck or overlong evaluation.
func blockingBackend() *fakeBackend {
	return &fakeBackend{
		eval: func(ctx context.Context, sp noc.Spec) (noc.Result, Source, error) {
			<-ctx.Done()
			return noc.Result{}, "", ctx.Err()
		},
		health: HealthState{Status: StatusOK},
	}
}

// TestHTTPRequestTimeout pins the -request-timeout satellite: an
// evaluation that outlives the server's per-request deadline answers
// 504 Gateway Timeout, on both the evaluate and sweep routes.
func TestHTTPRequestTimeout(t *testing.T) {
	srv := httptest.NewServer(NewHandlerConfig(blockingBackend(), HandlerConfig{RequestTimeout: 30 * time.Millisecond}))
	defer srv.Close()

	resp, body := postJSON(t, srv.URL+"/v1/evaluate", testSpec())
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Errorf("evaluate status = %d (%s), want 504", resp.StatusCode, body)
	}
	var eb errorBody
	if err := json.Unmarshal(body, &eb); err != nil || eb.Error == "" {
		t.Errorf("504 body %q is not {error: ...}", body)
	}

	resp, body = postJSON(t, srv.URL+"/v1/sweep", SweepRequest{Spec: testSpec(), Rates: []float64{0.001}})
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Errorf("sweep status = %d (%s), want 504", resp.StatusCode, body)
	}
}

// TestHTTPRequestTimeoutNotTriggered pins that a fast evaluation is
// untouched by the deadline machinery.
func TestHTTPRequestTimeoutNotTriggered(t *testing.T) {
	e := New(Config{Workers: 1})
	defer e.Close()
	srv := httptest.NewServer(NewHandlerConfig(e, HandlerConfig{RequestTimeout: time.Minute}))
	defer srv.Close()
	resp, body := postJSON(t, srv.URL+"/v1/evaluate", testSpec())
	if resp.StatusCode != http.StatusOK {
		t.Errorf("status = %d (%s)", resp.StatusCode, body)
	}
}

// TestHTTPHealthzDegraded pins the degraded healthz satellite: a
// draining evaluator answers 503 with a reason while still serving,
// and a scripted degraded backend does the same.
func TestHTTPHealthzDegraded(t *testing.T) {
	srv, e := newTestServer(t, Config{Workers: 1})
	if resp, _ := getHealth(t, srv.URL); resp.StatusCode != http.StatusOK {
		t.Errorf("healthy status = %d", resp.StatusCode)
	}
	e.SetDraining(true)
	resp, h := getHealth(t, srv.URL)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("draining status = %d, want 503", resp.StatusCode)
	}
	if h.Status != StatusDegraded || h.Reason == "" {
		t.Errorf("draining health = %+v", h)
	}
	// Draining is advisory: the box still answers requests.
	if resp, body := postJSON(t, srv.URL+"/v1/evaluate", testSpec()); resp.StatusCode != http.StatusOK {
		t.Errorf("draining evaluate status = %d (%s)", resp.StatusCode, body)
	}
	e.SetDraining(false)
	if resp, _ := getHealth(t, srv.URL); resp.StatusCode != http.StatusOK {
		t.Errorf("recovered status = %d", resp.StatusCode)
	}
}

func getHealth(t *testing.T, base string) (*http.Response, Health) {
	t.Helper()
	resp, err := http.Get(base + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h Health
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	return resp, h
}
