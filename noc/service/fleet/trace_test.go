package fleet

import (
	"bytes"
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"

	"quarc/noc"
	"quarc/noc/service"
)

func metricsSpec() noc.Spec {
	sp := testSpec()
	sp.Metrics = true
	return sp
}

// TestTraceForwarding pins the fleet trace path: a dispatched
// evaluation records which peer computed it, a later Trace lands on
// that peer (source fleet), and the served result carries the series.
func TestTraceForwarding(t *testing.T) {
	p1, e1 := newPeer(t)
	local := newLocal(t)
	d, err := New(Config{Peers: []string{p1.URL}, Local: local, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}

	sp := metricsSpec()
	res, src, err := d.Evaluate(context.Background(), sp)
	if err != nil {
		t.Fatal(err)
	}
	if src != service.SourceFleet {
		t.Fatalf("evaluate source %q, want fleet", src)
	}
	if res.Series == nil {
		t.Fatal("fleet-served result has no series")
	}

	traced, err := d.Trace(context.Background(), sp.Fingerprint())
	if err != nil {
		t.Fatal(err)
	}
	got, src := traced.Result, traced.Source
	if src != service.SourceFleet {
		t.Errorf("trace source %q, want fleet (routed to the computing peer)", src)
	}
	if resultJSON(t, got) != resultJSON(t, res) {
		t.Errorf("traced result differs from the evaluated one:\n %s\n %s",
			resultJSON(t, got), resultJSON(t, res))
	}
	if e1.Stats().Evaluations != 1 {
		t.Errorf("peer ran %d evaluations, want 1 (trace must not recompute)", e1.Stats().Evaluations)
	}
	// The local evaluator never saw the spec at all.
	if local.Stats().Evaluations != 0 {
		t.Errorf("local ran %d evaluations", local.Stats().Evaluations)
	}
}

// TestTraceFallsBackToLocal pins the degradation ladder: an unknown
// fingerprint (no route) goes straight to the local evaluator, and a
// peer that answers 404 (evicted entry) falls back without tripping
// the breaker.
func TestTraceFallsBackToLocal(t *testing.T) {
	p1, _ := newPeer(t)
	local := newLocal(t)
	d, err := New(Config{Peers: []string{p1.URL}, Local: local, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}

	// No route recorded: the local evaluator is the only place to look,
	// and it answers not_found.
	if _, err := d.Trace(context.Background(), 0xdeadbeef); !errors.Is(err, service.ErrNotFound) {
		t.Fatalf("unrouted trace = %v, want ErrNotFound", err)
	}

	// Evaluate locally (no peers consulted for the series), then force a
	// route to a peer that never computed it: the peer's answered 404
	// must fall back to the local result and leave the breaker closed.
	sp := metricsSpec()
	want, _, err := local.Evaluate(context.Background(), sp)
	if err != nil {
		t.Fatal(err)
	}
	d.rememberTrace(sp.Fingerprint(), d.peers[0])
	traced, err := d.Trace(context.Background(), sp.Fingerprint())
	if err != nil {
		t.Fatal(err)
	}
	got, src := traced.Result, traced.Source
	if src != service.SourceCache {
		t.Errorf("fallback trace source %q, want cache (local)", src)
	}
	if resultJSON(t, got) != resultJSON(t, want) {
		t.Error("fallback trace result differs from the local evaluation")
	}
	if ph := d.PeerHealth()[0]; ph.State != stateClosed {
		t.Errorf("answered 404 opened the breaker: %+v", ph)
	}
}

// TestTraceDeadPeerFallsBack pins the transport-failure path: a routed
// peer that stopped answering costs a breaker failure but the query
// still resolves locally.
func TestTraceDeadPeerFallsBack(t *testing.T) {
	p1, _ := newPeer(t)
	local := newLocal(t)
	d, err := New(Config{Peers: []string{p1.URL}, Local: local, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	sp := metricsSpec()
	if _, _, err := local.Evaluate(context.Background(), sp); err != nil {
		t.Fatal(err)
	}
	d.rememberTrace(sp.Fingerprint(), d.peers[0])
	p1.Close() // the routed peer is gone

	if traced, err := d.Trace(context.Background(), sp.Fingerprint()); err != nil {
		t.Fatalf("trace with a dead routed peer: %v", err)
	} else if traced.Source != service.SourceCache {
		t.Errorf("source %q, want cache (local fallback)", traced.Source)
	}
	if ph := d.PeerHealth()[0]; ph.Failures == 0 {
		t.Errorf("dead peer's transport failure not recorded: %+v", ph)
	}
}

// TestIsNonRetryableCodes pins the code-first retry classification: the
// envelope code is authoritative when present, the status heuristic
// only covers legacy bodies.
func TestIsNonRetryableCodes(t *testing.T) {
	cases := []struct {
		name string
		err  error
		want bool
	}{
		{"invalid_spec", &statusError{code: 400, errCode: "invalid_spec"}, true},
		{"not_found", &statusError{code: 404, errCode: "not_found"}, true},
		{"draining 503", &statusError{code: 503, errCode: "draining"}, false},
		{"queue_saturated 503", &statusError{code: 503, errCode: "queue_saturated"}, false},
		// A peer may answer 4xx-ish statuses with retryable codes during
		// rollouts; the code wins over the status.
		{"queue_saturated 429", &statusError{code: 429, errCode: "queue_saturated"}, false},
		{"timeout code", &statusError{code: 504, errCode: "timeout"}, false},
		{"legacy 400", &statusError{code: 400}, true},
		{"legacy 500", &statusError{code: 500}, false},
		{"transport", errors.New("connection refused"), false},
	}
	for _, c := range cases {
		if got := isNonRetryable(c.err); got != c.want {
			t.Errorf("%s: isNonRetryable = %v, want %v", c.name, got, c.want)
		}
	}
}

// TestDispatchReadsEnvelopeCode pins that the classification actually
// reaches the dispatch loop: a peer answering the draining envelope
// with a 4xx-family status is still retried away from, not treated as
// a spec verdict.
func TestDispatchReadsEnvelopeCode(t *testing.T) {
	refusals := 0
	refusing := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		refusals++
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusTooManyRequests)
		w.Write([]byte(`{"error":"shedding load","code":"queue_saturated"}`))
	}))
	defer refusing.Close()
	healthy, _ := newPeer(t)

	d, err := New(Config{
		Peers: []string{refusing.URL, healthy.URL},
		Local: newLocal(t),
		Seed:  1,
	})
	if err != nil {
		t.Fatal(err)
	}
	sp := testSpec()
	// Drive enough evaluations that round-robin hits the refusing peer
	// first at least once; every one must still come back correct.
	for i := 0; i < 4; i++ {
		pt := sp
		pt.Seed = uint64(10 + i)
		if _, _, err := d.Evaluate(context.Background(), pt); err != nil {
			t.Fatalf("evaluate %d: %v", i, err)
		}
	}
	if refusals == 0 {
		t.Skip("round-robin never hit the refusing peer")
	}
	if d.retries.Load() == 0 && d.fallbacks.Load() > 0 {
		t.Errorf("refusals were not retried: %d fallbacks", d.fallbacks.Load())
	}
}

// TestServeMatchesLocal pins the fleet's side of "one document": a
// peer-served Response carries the body and content address the local
// evaluator serves for the same spec, on the evaluate and the trace
// path alike.
func TestServeMatchesLocal(t *testing.T) {
	p1, _ := newPeer(t)
	d, err := New(Config{Peers: []string{p1.URL}, Local: newLocal(t), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	sp := metricsSpec()
	want, err := newLocal(t).Serve(context.Background(), sp)
	if err != nil {
		t.Fatal(err)
	}
	got, err := d.Serve(context.Background(), sp)
	if err != nil {
		t.Fatal(err)
	}
	traced, err := d.Trace(context.Background(), sp.Fingerprint())
	if err != nil {
		t.Fatal(err)
	}
	for name, resp := range map[string]service.Response{"evaluate": got, "trace": traced} {
		if resp.Source != service.SourceFleet {
			t.Errorf("%s: source %q, want fleet", name, resp.Source)
		}
		if resp.Fingerprint != sp.Fingerprint() {
			t.Errorf("%s: fingerprint %016x, want %016x", name, resp.Fingerprint, sp.Fingerprint())
		}
		if !bytes.Equal(resp.Body, want.Body) {
			t.Errorf("%s: body differs from the local evaluator's:\n %s\n %s", name, resp.Body, want.Body)
		}
	}
}
