package fleet

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"quarc/noc"
	"quarc/noc/service"
)

// inProcess serves a client's requests from a handler, without a socket.
type inProcess struct{ h http.Handler }

func (p inProcess) RoundTrip(r *http.Request) (*http.Response, error) {
	rec := httptest.NewRecorder()
	p.h.ServeHTTP(rec, r)
	return rec.Result(), nil
}

// TestEvaluateMatchesLocal pins the shim: a peer's answer is the Result
// the local evaluator computes, tagged SourceFleet, and an answer that
// is not a 200 echoing the spec's fingerprint is an error.
func TestEvaluateMatchesLocal(t *testing.T) {
	ctx := context.Background()
	ev := service.New(service.Config{Workers: 1})
	defer ev.Close()
	sp := noc.Spec{
		Topology: "quarc", N: 16, Pattern: "localized", Dests: 4,
		MsgLen: 16, Rate: 0.002, Alpha: 0.05, Seed: 5, Warmup: 500, Measure: 4000,
	}
	local, _, err := ev.Evaluate(ctx, sp)
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(local)
	if err != nil {
		t.Fatal(err)
	}
	ask := func(h http.Handler) (noc.Result, service.Source, error) {
		d, err := New(Config{Peers: []string{"http://peer"}, Client: &http.Client{Transport: inProcess{h}}})
		if err != nil {
			t.Fatal(err)
		}
		return d.Evaluate(ctx, sp)
	}

	res, src, err := ask(service.NewHandler(ev))
	if err != nil || src != service.SourceFleet {
		t.Fatalf("Evaluate = source %q, %v; want fleet", src, err)
	}
	if got, err := json.Marshal(res); err != nil || string(got) != string(want) {
		t.Errorf("peer result differs from the local one:\n got:  %s\n want: %s", got, want)
	}

	answer := func(status int, fp string) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if fp != "" {
				w.Header().Set(service.HeaderFingerprint, fp)
			}
			w.WriteHeader(status)
			_, _ = w.Write(want)
		})
	}
	// The scripted answer is accepted as it stands, so each case below
	// fails for the one thing it changes.
	fp := fmt.Sprintf("%016x", sp.Fingerprint())
	if _, _, err := ask(answer(http.StatusOK, fp)); err != nil {
		t.Fatalf("scripted answer: %v", err)
	}
	for name, h := range map[string]http.Handler{
		"refusal":           answer(http.StatusServiceUnavailable, fp),
		"wrong fingerprint": answer(http.StatusOK, fmt.Sprintf("%016x", sp.Fingerprint()+1)),
		"no fingerprint":    answer(http.StatusOK, ""),
	} {
		if _, _, err := ask(h); err == nil {
			t.Errorf("%s: Evaluate accepted the answer", name)
		}
	}
	if _, err := New(Config{Client: http.DefaultClient}); err == nil {
		t.Error("New accepted a Config without a peer")
	}
}
