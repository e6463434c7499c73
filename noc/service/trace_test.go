package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"quarc/noc"
	"quarc/noc/service/store"
)

// metricsSpec is testSpec with recording turned on — the shape a client
// evaluates when it wants /v1/trace to answer later.
func metricsSpec() noc.Spec {
	sp := testSpec()
	sp.Metrics = true
	return sp
}

func getTrace(t *testing.T, base, fp string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(base + "/v1/trace/" + fp)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

// TestHTTPTraceRoundTrip pins the trace endpoint's core promise: after
// evaluating a spec with "metrics": true, GET /v1/trace/{fp} serves the
// very same Result document, bitwise, with the series attached.
func TestHTTPTraceRoundTrip(t *testing.T) {
	srv, _ := newTestServer(t, Config{Workers: 2})
	sp := metricsSpec()

	resp, evalBody := postJSON(t, srv.URL+"/v1/evaluate", sp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("evaluate status %d: %s", resp.StatusCode, evalBody)
	}
	fp := resp.Header.Get(HeaderFingerprint)
	if fp == "" {
		t.Fatal("evaluate response without a fingerprint header")
	}

	resp, traceBody := getTrace(t, srv.URL, fp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("trace status %d: %s", resp.StatusCode, traceBody)
	}
	if got := resp.Header.Get(HeaderFingerprint); got != fp {
		t.Errorf("trace fingerprint header %q, want %q", got, fp)
	}
	if got := resp.Header.Get(HeaderSource); got != string(SourceCache) {
		t.Errorf("trace source %q, want cache", got)
	}
	if !bytes.Equal(traceBody, evalBody) {
		t.Errorf("trace body differs from evaluate body:\n %s\n %s", traceBody, evalBody)
	}
	var res noc.Result
	if err := json.Unmarshal(traceBody, &res); err != nil {
		t.Fatal(err)
	}
	if res.Series == nil {
		t.Fatal("traced result has no series")
	}
	if res.Series.Buckets != noc.DefaultMetricsBuckets {
		t.Errorf("series buckets = %d, want the default %d", res.Series.Buckets, noc.DefaultMetricsBuckets)
	}
}

// TestHTTPTraceErrors pins the error envelope on the trace route: every
// failure mode answers with a machine-readable code.
func TestHTTPTraceErrors(t *testing.T) {
	srv, _ := newTestServer(t, Config{Workers: 1})

	// A fingerprint nothing was evaluated under: 404 not_found.
	resp, body := getTrace(t, srv.URL, "00000000deadbeef")
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown fp status %d (%s), want 404", resp.StatusCode, body)
	}
	var eb errorBody
	if err := json.Unmarshal(body, &eb); err != nil || eb.Code != CodeNotFound {
		t.Errorf("unknown fp body %s, want code %q", body, CodeNotFound)
	}

	// A fingerprint that is not hex: 400 invalid_spec.
	resp, body = getTrace(t, srv.URL, "not-a-fingerprint")
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed fp status %d (%s), want 400", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &eb); err != nil || eb.Code != CodeInvalidSpec {
		t.Errorf("malformed fp body %s, want code %q", body, CodeInvalidSpec)
	}

	// A result evaluated WITHOUT metrics: cached, but no series to
	// serve — 404, never a recomputation.
	sp := testSpec()
	if resp, b := postJSON(t, srv.URL+"/v1/evaluate", sp); resp.StatusCode != http.StatusOK {
		t.Fatalf("evaluate status %d: %s", resp.StatusCode, b)
	}
	resp, body = getTrace(t, srv.URL, fmt.Sprintf("%016x", sp.Fingerprint()))
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("metrics-less trace status %d (%s), want 404", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &eb); err != nil || eb.Code != CodeNotFound {
		t.Errorf("metrics-less trace body %s, want code %q", body, CodeNotFound)
	}
}

// TestHTTPTraceFromStore pins durability: a restarted daemon answers
// trace queries for results computed before the restart, from the
// durable store, without re-simulating.
func TestHTTPTraceFromStore(t *testing.T) {
	dir := t.TempDir()
	sp := metricsSpec()
	fp := fmt.Sprintf("%016x", sp.Fingerprint())

	st, err := store.Open(store.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	e := New(Config{Workers: 1, Store: st})
	if _, _, err := e.Evaluate(context.Background(), sp); err != nil {
		t.Fatal(err)
	}
	e.Close()

	st2, err := store.Open(store.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	e2 := New(Config{Workers: 1, Store: st2})
	defer e2.Close()
	srv := httptest.NewServer(NewHandler(e2))
	defer srv.Close()

	resp, body := getTrace(t, srv.URL, fp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("trace-after-restart status %d: %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get(HeaderSource); got != string(SourceStore) {
		t.Errorf("trace-after-restart source %q, want store", got)
	}
	if st := e2.Stats(); st.Evaluations != 0 {
		t.Errorf("trace-after-restart ran %d evaluations, want 0", st.Evaluations)
	}
}

// TestErrorCodes pins the error-to-code classification table clients
// read from every non-2xx envelope.
func TestErrorCodes(t *testing.T) {
	cases := []struct {
		err  error
		code string
	}{
		{noc.ErrInvalidSpec, CodeInvalidSpec},
		{fmt.Errorf("wrap: %w", noc.ErrInvalidSpec), CodeInvalidSpec},
		{fmt.Errorf("wrap: %w", noc.ErrOptionConflict), CodeInvalidSpec},
		{ErrQueueSaturated, CodeQueueSaturated},
		{fmt.Errorf("%w (%v)", ErrQueueSaturated, context.DeadlineExceeded), CodeQueueSaturated},
		{ErrClosed, CodeDraining},
		{ErrNotFound, CodeNotFound},
		{context.DeadlineExceeded, CodeTimeout},
		{context.Canceled, CodeCanceled},
		{errors.New("disk on fire"), CodeInternal},
	}
	for _, c := range cases {
		if got := errorCode(c.err); got != c.code {
			t.Errorf("errorCode(%v) = %q, want %q", c.err, got, c.code)
		}
	}
	// The queue-saturation wrap must NOT read as a deadline error: it
	// would turn an overload 503 into a 504 and defeat retry-elsewhere.
	err := fmt.Errorf("%w (%v)", ErrQueueSaturated, context.DeadlineExceeded)
	if errors.Is(err, context.DeadlineExceeded) {
		t.Error("queue-saturated error wraps the context error; overload would classify as timeout")
	}
}

// TestHTTPErrorEnvelope pins the wire shape of the envelope across the
// status codes a scripted backend can produce.
func TestHTTPErrorEnvelope(t *testing.T) {
	cases := []struct {
		err    error
		status int
		code   string
	}{
		{noc.ErrInvalidSpec, http.StatusBadRequest, CodeInvalidSpec},
		{ErrQueueSaturated, http.StatusServiceUnavailable, CodeQueueSaturated},
		{ErrClosed, http.StatusServiceUnavailable, CodeDraining},
		{ErrNotFound, http.StatusNotFound, CodeNotFound},
		{errors.New("boom"), http.StatusInternalServerError, CodeInternal},
	}
	for _, c := range cases {
		b := &fakeBackend{
			eval: func(ctx context.Context, sp noc.Spec) (noc.Result, Source, error) {
				return noc.Result{}, "", c.err
			},
			health: HealthState{Status: StatusOK},
		}
		srv := httptest.NewServer(NewHandler(b))
		resp, body := postJSON(t, srv.URL+"/v1/evaluate", testSpec())
		srv.Close()
		if resp.StatusCode != c.status {
			t.Errorf("%v: status %d, want %d", c.err, resp.StatusCode, c.status)
		}
		var eb errorBody
		if err := json.Unmarshal(body, &eb); err != nil || eb.Code != c.code || eb.Error == "" {
			t.Errorf("%v: body %s, want code %q with a message", c.err, body, c.code)
		}
	}
}

// TestHTTPDashboard pins that the embedded dashboard page serves.
func TestHTTPDashboard(t *testing.T) {
	srv, _ := newTestServer(t, Config{Workers: 1})
	resp, err := http.Get(srv.URL + "/dashboard")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if !bytes.Contains(body, []byte("/v1/trace/")) {
		t.Error("dashboard page does not reference the trace endpoint")
	}
}
