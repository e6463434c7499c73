package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"quarc/noc"
)

// newTestServer starts an httptest server over a fresh evaluator and
// hands both back.
func newTestServer(t *testing.T, cfg Config) (*httptest.Server, *Evaluator) {
	t.Helper()
	e := New(cfg)
	srv := httptest.NewServer(NewHandler(e))
	t.Cleanup(func() {
		srv.Close()
		e.Close()
	})
	return srv, e
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}

// TestHTTPEvaluate drives the full evaluate path end to end: a cold
// request computes, an identical request hits the cache with a
// bitwise-identical body, and both match a direct noc evaluation.
func TestHTTPEvaluate(t *testing.T) {
	srv, _ := newTestServer(t, Config{Workers: 2})
	sp := testSpec()

	resp, cold := postJSON(t, srv.URL+"/v1/evaluate", sp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, cold)
	}
	if got := resp.Header.Get(HeaderSource); got != string(SourceComputed) {
		t.Errorf("cold %s = %q, want computed", HeaderSource, got)
	}
	wantFP := fmt.Sprintf("%016x", sp.Fingerprint())
	if got := resp.Header.Get(HeaderFingerprint); got != wantFP {
		t.Errorf("%s = %q, want %q", HeaderFingerprint, got, wantFP)
	}

	resp2, hot := postJSON(t, srv.URL+"/v1/evaluate", sp)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp2.StatusCode, hot)
	}
	if got := resp2.Header.Get(HeaderSource); got != string(SourceCache) {
		t.Errorf("hot %s = %q, want cache", HeaderSource, got)
	}
	if !bytes.Equal(cold, hot) {
		t.Errorf("cache-hit body differs from cold body:\n %s\n %s", hot, cold)
	}

	s, err := sp.Scenario()
	if err != nil {
		t.Fatal(err)
	}
	direct, err := noc.Simulator{}.Evaluate(s)
	if err != nil {
		t.Fatal(err)
	}
	var got noc.Result
	if err := json.Unmarshal(cold, &got); err != nil {
		t.Fatal(err)
	}
	if resultJSON(t, got) != resultJSON(t, direct) {
		t.Errorf("wire result differs from direct evaluation:\n wire:   %s\n direct: %s", resultJSON(t, got), resultJSON(t, direct))
	}
}

// TestHTTPSingleflight sends N concurrent identical requests through the
// full HTTP stack and checks the evaluation ran exactly once with every
// client receiving identical bytes (run under -race in CI).
func TestHTTPSingleflight(t *testing.T) {
	srv, e := newTestServer(t, Config{Workers: 4})
	sp := testSpec()
	sp.Measure = 20000

	const n = 8
	bodies := make([][]byte, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, body := postJSON(t, srv.URL+"/v1/evaluate", sp)
			if resp.StatusCode != http.StatusOK {
				t.Errorf("request %d: status %d: %s", i, resp.StatusCode, body)
				return
			}
			bodies[i] = body
		}(i)
	}
	wg.Wait()
	for i := 1; i < n; i++ {
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Errorf("request %d body differs:\n %s\n %s", i, bodies[i], bodies[0])
		}
	}
	if st := e.Stats(); st.Evaluations != 1 {
		t.Errorf("evaluations = %d, want exactly 1 for %d concurrent identical requests", st.Evaluations, n)
	}
}

// TestHTTPSweep drives the sweep endpoint and cross-checks each point
// against the evaluate endpoint's cache.
func TestHTTPSweep(t *testing.T) {
	srv, e := newTestServer(t, Config{Workers: 2})
	sp := testSpec()
	rates := []float64{0.001, 0.002}

	resp, body := postJSON(t, srv.URL+"/v1/sweep", SweepRequest{Spec: sp, Rates: rates})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var sr SweepResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	if len(sr.Points) != 2 || sr.Points[0].Rate != 0.001 || sr.Points[1].Rate != 0.002 {
		t.Fatalf("sweep points = %+v", sr.Points)
	}

	// Each sweep point is content-addressed: the evaluate endpoint now
	// serves it from cache, bitwise identical.
	pt := sp
	pt.Rate = rates[1]
	resp2, body2 := postJSON(t, srv.URL+"/v1/evaluate", pt)
	if got := resp2.Header.Get(HeaderSource); got != string(SourceCache) {
		t.Errorf("sweep point not cached for evaluate: source %q", got)
	}
	var single noc.Result
	if err := json.Unmarshal(body2, &single); err != nil {
		t.Fatal(err)
	}
	if resultJSON(t, single) != resultJSON(t, sr.Points[1].Result) {
		t.Errorf("sweep point differs from evaluate result")
	}
	if st := e.Stats(); st.Evaluations != 2 {
		t.Errorf("evaluations = %d, want 2", st.Evaluations)
	}

	resp3, body3 := postJSON(t, srv.URL+"/v1/sweep", SweepRequest{Spec: sp, Rates: []float64{-1}})
	if resp3.StatusCode != http.StatusBadRequest {
		t.Errorf("negative rate: status %d: %s", resp3.StatusCode, body3)
	}

	// The embedded spec is decoded as strictly as /v1/evaluate's: a
	// typo'd field 400s instead of silently sweeping a default.
	for _, body := range []string{
		`{"spec":{"topology":"quarc","n":16,"msg_len":64},"rates":[0.001]}`,
		`{"spec":{"topology":"quarc","n":16},"rates":[0.001],"bogus":1}`,
		`{"rates":[0.001]}`,
	} {
		resp, err := http.Post(srv.URL+"/v1/sweep", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		out, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("sweep body %q: status %d (%s), want 400", body, resp.StatusCode, out)
		}
	}
}

// TestHTTPSweepNullSpec pins that a JSON null spec is as absent as an
// omitted one: 400 invalid_spec, not a sweep of the default spec (a bare
// null document parses as {}).
func TestHTTPSweepNullSpec(t *testing.T) {
	e := New(Config{Workers: 1})
	defer e.Close()
	h := NewHandler(e)
	for _, body := range []string{`{"spec": null, "rates": [0.001]}`, `{"rates":[0.001],"spec":null}`} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/sweep", strings.NewReader(body)))
		var eb errorBody
		if err := json.Unmarshal(rec.Body.Bytes(), &eb); err != nil {
			t.Fatalf("%s: body %q: %v", body, rec.Body.Bytes(), err)
		}
		if rec.Code != http.StatusBadRequest || eb.Code != CodeInvalidSpec || !strings.Contains(eb.Error, "needs a spec") {
			t.Errorf("%s: answered %d %+v, want 400 %s: a sweep request needs a spec", body, rec.Code, eb, CodeInvalidSpec)
		}
	}
	if st := e.Stats(); st.Misses != 0 || st.Evaluations != 0 {
		t.Errorf("a null-spec sweep reached the evaluator: %+v", st)
	}
}

// TestHTTPEvaluateSizeDefault pins the ring-size default on the wire: a
// spec naming quarc without n serves quarc-16, sharing its content
// address with the explicit form.
func TestHTTPEvaluateSizeDefault(t *testing.T) {
	srv, e := newTestServer(t, Config{Workers: 1})
	resp, body := postJSON(t, srv.URL+"/v1/evaluate", noc.Spec{
		Topology: "quarc", Rate: 0.002, MsgLen: 16, Warmup: 500, Measure: 4000, Seed: 5})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	resp2, body2 := postJSON(t, srv.URL+"/v1/evaluate", noc.Spec{
		Topology: "quarc", N: 16, Rate: 0.002, MsgLen: 16, Warmup: 500, Measure: 4000, Seed: 5})
	if got := resp2.Header.Get(HeaderSource); got != string(SourceCache) {
		t.Errorf("explicit n=16 source = %q, want cache (shared content address)", got)
	}
	if !bytes.Equal(body, body2) {
		t.Errorf("bodies differ:\n %s\n %s", body, body2)
	}
	if st := e.Stats(); st.Evaluations != 1 {
		t.Errorf("evaluations = %d, want 1", st.Evaluations)
	}
}

// TestHTTPRegistry pins the discovery endpoint.
func TestHTTPRegistry(t *testing.T) {
	srv, _ := newTestServer(t, Config{Workers: 1})
	resp, err := http.Get(srv.URL + "/v1/registry")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var reg Registry
	if err := json.NewDecoder(resp.Body).Decode(&reg); err != nil {
		t.Fatal(err)
	}
	has := func(list []string, name string) bool {
		for _, v := range list {
			if v == name {
				return true
			}
		}
		return false
	}
	if !has(reg.Topologies, "quarc") || !has(reg.Topologies, "mesh") {
		t.Errorf("topologies = %v", reg.Topologies)
	}
	if !has(reg.Arrivals, "poisson") || !has(reg.Spatials, "transpose") ||
		!has(reg.Patterns, "localized") || !has(reg.Routers, "quarc") {
		t.Errorf("registry = %+v", reg)
	}
	if !has(reg.Evaluators, "model") || !has(reg.Evaluators, "simulator") {
		t.Errorf("evaluators = %v", reg.Evaluators)
	}
}

// TestHTTPHealthz pins the health endpoint and its stats snapshot.
func TestHTTPHealthz(t *testing.T) {
	srv, _ := newTestServer(t, Config{Workers: 3})
	resp, err := http.Get(srv.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h Health
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || h.Status != "ok" {
		t.Fatalf("healthz = %d %+v", resp.StatusCode, h)
	}
	if h.Stats.Workers != 3 {
		t.Errorf("workers = %d, want 3", h.Stats.Workers)
	}
}

// TestHTTPErrors pins the status mapping for hostile or malformed
// requests: client mistakes are 400s, never 500s or panics.
func TestHTTPErrors(t *testing.T) {
	srv, _ := newTestServer(t, Config{Workers: 1})
	post := func(body string) (*http.Response, string) {
		resp, err := http.Post(srv.URL+"/v1/evaluate", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		out, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp, string(out)
	}
	badBodies := []string{
		`not json`,
		`{"unknown_field":1}`,
		`{"n":1000000000}`,
		`{"rate":-5}`,
		`{"topology":"ring","n":16}`,
		`{"topology":"mesh"}`, // builder rejection (no size) is a client mistake
		`{"record":"a","replay":"b"}`,
		`{"record":"server-side-file"}`,
		`{"n":16} {"n":8}`,
	}
	for _, body := range badBodies {
		resp, out := post(body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("body %q: status %d (%s), want 400", body, resp.StatusCode, out)
		}
		var eb errorBody
		if err := json.Unmarshal([]byte(out), &eb); err != nil || eb.Error == "" {
			t.Errorf("body %q: error response %q is not {error: ...}", body, out)
		}
	}

	// Wrong method on a POST route.
	resp, err := http.Get(srv.URL + "/v1/evaluate")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/evaluate status %d, want 405", resp.StatusCode)
	}

	// Unknown route.
	resp, err = http.Get(srv.URL + "/v1/nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("GET /v1/nope status %d, want 404", resp.StatusCode)
	}

	// Oversized body.
	resp, err = http.Post(srv.URL+"/v1/evaluate", "application/json",
		bytes.NewReader(bytes.Repeat([]byte("x"), maxRequestBody+1)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("oversized body status %d, want 400", resp.StatusCode)
	}
}
