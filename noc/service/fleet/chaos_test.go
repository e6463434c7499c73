package fleet

import (
	"context"
	"net/http"
	"testing"
	"time"

	"quarc/internal/faultinject"
	"quarc/noc/service"
	"quarc/noc/service/store"
)

// TestChaosBitwise is the fault-injection suite: under every scenario —
// transport errors, truncated peer responses, stragglers rescued by
// hedging, store write corruption, and all of them at once — a sweep
// either fails cleanly or answers, and every answer is bitwise-
// identical to direct evaluation. Retries, degradation and quarantine
// are allowed; a wrong Result never is. Run under -race in CI.
func TestChaosBitwise(t *testing.T) {
	rates := []float64{0.001, 0.002, 0.003, 0.004, 0.005, 0.006, 0.007, 0.008}
	base := testSpec()
	base.Measure = 2000 // fast points; chaos runs many of them

	// Ground truth, computed once outside any fault machinery.
	want := make(map[float64]string, len(rates))
	for _, r := range rates {
		pt := base
		pt.Rate = r
		want[r] = directJSON(t, pt)
	}

	scenarios := []struct {
		name       string
		transport  []faultinject.Rule
		storeRules []faultinject.Rule
		hedgeAfter time.Duration
		noPeers    bool
	}{
		{
			name: "transport-errors",
			transport: []faultinject.Rule{
				{Point: "peer.rpc", Kind: faultinject.KindError, Prob: 0.4},
			},
		},
		{
			name: "partial-responses",
			transport: []faultinject.Rule{
				{Point: "peer.rpc", Kind: faultinject.KindPartial, Prob: 0.4},
			},
		},
		{
			name: "latency-hedge",
			transport: []faultinject.Rule{
				{Point: "peer.rpc", Kind: faultinject.KindLatency, Prob: 0.3, Latency: time.Second},
			},
			hedgeAfter: 15 * time.Millisecond,
		},
		{
			// No peers: every point computes locally through the faulty
			// store, so the on-disk aftermath below is non-trivial.
			name:    "store-faults",
			noPeers: true,
			storeRules: []faultinject.Rule{
				{Point: "store.put", Kind: faultinject.KindShortWrite, Prob: 0.4},
				{Point: "store.put", Kind: faultinject.KindCorrupt, Prob: 0.3},
				{Point: "store.get", Kind: faultinject.KindError, Prob: 0.3},
			},
		},
		{
			name: "kitchen-sink",
			transport: []faultinject.Rule{
				{Point: "peer.rpc", Kind: faultinject.KindError, Prob: 0.25},
				{Point: "peer.rpc", Kind: faultinject.KindPartial, Prob: 0.25},
				{Point: "peer.rpc", Kind: faultinject.KindLatency, Prob: 0.15, Latency: time.Second},
			},
			storeRules: []faultinject.Rule{
				{Point: "store.put", Kind: faultinject.KindCorrupt, Prob: 0.4},
				{Point: "store.get", Kind: faultinject.KindError, Prob: 0.4},
			},
			hedgeAfter: 15 * time.Millisecond,
		},
	}

	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			var peers []string
			if !sc.noPeers {
				p1, _ := newPeer(t)
				p2, _ := newPeer(t)
				peers = []string{p1.URL, p2.URL}
			}

			dir := t.TempDir()
			var st *store.Store
			if sc.storeRules != nil {
				inj := faultinject.New(11, sc.storeRules...)
				var err error
				if st, err = store.Open(store.Config{Dir: dir, Inject: inj}); err != nil {
					t.Fatal(err)
				}
			}
			local := service.New(service.Config{Workers: 2, Store: st})
			t.Cleanup(local.Close)

			client := &http.Client{}
			if sc.transport != nil {
				client.Transport = &faultinject.Transport{
					Point: "peer.rpc",
					Inj:   faultinject.New(13, sc.transport...),
				}
			}
			// RequestTimeout well under the injected latency: an attempt
			// whose primary AND hedge both straggle times out and
			// retries instead of waiting out the fault.
			d, err := New(Config{
				Peers: peers, Local: local, Client: client,
				RequestTimeout: 250 * time.Millisecond,
				MaxAttempts:    4, BaseBackoff: time.Millisecond, MaxBackoff: 10 * time.Millisecond,
				HedgeAfter: sc.hedgeAfter, FailThreshold: 100, Seed: 17,
			})
			if err != nil {
				t.Fatal(err)
			}

			results, err := d.Sweep(context.Background(), base, rates)
			if err != nil {
				t.Fatalf("chaos sweep failed outright: %v", err)
			}
			for i, r := range rates {
				if got := resultJSON(t, results[i]); got != want[r] {
					t.Errorf("%s rate %g: WRONG RESULT under faults:\n got:  %s\n want: %s",
						sc.name, r, got, want[r])
				}
			}
			t.Logf("%s: %s", sc.name, counters(d))

			if sc.storeRules == nil {
				return
			}
			// Reopen the battered store without injection: whatever the
			// chaos run left on disk is either served bitwise-correct or
			// quarantined — never wrong.
			local.Close()
			clean, err := store.Open(store.Config{Dir: dir})
			if err != nil {
				t.Fatalf("reopening chaos store: %v", err)
			}
			fresh := service.New(service.Config{Workers: 2, Store: clean})
			t.Cleanup(fresh.Close)
			for _, r := range rates {
				pt := base
				pt.Rate = r
				res, src, err := fresh.Evaluate(context.Background(), pt)
				if err != nil {
					t.Fatalf("post-chaos evaluate rate %g: %v", r, err)
				}
				if src != service.SourceStore && src != service.SourceComputed {
					t.Errorf("post-chaos source for rate %g = %s", r, src)
				}
				if got := resultJSON(t, res); got != want[r] {
					t.Errorf("post-chaos rate %g: WRONG RESULT from disk:\n got:  %s\n want: %s", r, got, want[r])
				}
			}
		})
	}
}
