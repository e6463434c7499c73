package service

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"quarc/noc"
	"quarc/noc/service/store"
)

func openStore(t *testing.T, dir string) *store.Store {
	t.Helper()
	st, err := store.Open(store.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestStoreWarmRestart pins the durability contract end to end: an
// evaluator computes and persists, a second evaluator over the same
// directory (a restarted daemon) serves the result from the store,
// bitwise-identical to the cold evaluation and without touching the
// worker pool.
func TestStoreWarmRestart(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	sp := testSpec()

	e1 := New(Config{Workers: 2, Store: openStore(t, dir)})
	cold, src, err := e1.Evaluate(ctx, sp)
	if err != nil {
		t.Fatal(err)
	}
	if src != SourceComputed {
		t.Fatalf("first evaluation source = %s", src)
	}
	if st := e1.Stats(); st.DurableResults != 1 || st.StoreErrors != 0 {
		t.Errorf("stats after compute = %+v, want 1 durable result", st)
	}
	e1.Close()

	e2 := New(Config{Workers: 2, Store: openStore(t, dir)})
	defer e2.Close()
	warm, src, err := e2.Evaluate(ctx, sp)
	if err != nil {
		t.Fatal(err)
	}
	if src != SourceStore {
		t.Fatalf("restarted evaluation source = %s, want store", src)
	}
	if got, want := resultJSON(t, warm), resultJSON(t, cold); got != want {
		t.Errorf("store-served result differs from cold:\n warm: %s\n cold: %s", got, want)
	}
	st := e2.Stats()
	if st.Evaluations != 0 || st.StoreHits != 1 {
		t.Errorf("stats after warm serve = %+v, want 0 evaluations, 1 store hit", st)
	}

	// The store hit is promoted into the LRU: the next request is a
	// plain cache hit without disk I/O.
	if _, src, err := e2.Evaluate(ctx, sp); err != nil || src != SourceCache {
		t.Errorf("post-promotion source = %s, %v, want cache", src, err)
	}
}

// TestStoreCorruptRecompute pins the quarantine path through the
// evaluator: a corrupted on-disk entry is never served — the spec is
// recomputed, the damaged file quarantined, and the fresh result is
// bitwise-identical to the original.
func TestStoreCorruptRecompute(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	sp := testSpec()

	e1 := New(Config{Workers: 1, Store: openStore(t, dir)})
	cold, _, err := e1.Evaluate(ctx, sp)
	if err != nil {
		t.Fatal(err)
	}
	e1.Close()

	// Flip a byte in the single stored entry.
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	corrupted := false
	for _, ent := range ents {
		if ent.IsDir() || !strings.HasSuffix(ent.Name(), ".qre") {
			continue
		}
		path := filepath.Join(dir, ent.Name())
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		data[len(data)/3] ^= 0xff
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		corrupted = true
	}
	if !corrupted {
		t.Fatal("no entry file found to corrupt")
	}

	e2 := New(Config{Workers: 1, Store: openStore(t, dir)})
	defer e2.Close()
	res, src, err := e2.Evaluate(ctx, sp)
	if err != nil {
		t.Fatal(err)
	}
	if src != SourceComputed {
		t.Errorf("source after corruption = %s, want computed (recompute, never serve corrupt)", src)
	}
	if got, want := resultJSON(t, res), resultJSON(t, cold); got != want {
		t.Errorf("recomputed result differs from original:\n %s\n %s", got, want)
	}
	if st := e2.Stats(); st.Quarantined != 1 || st.DurableResults != 1 {
		t.Errorf("stats = %+v, want 1 quarantined and 1 rewritten durable result", st)
	}
}

// TestStorePutFailureDegradesGracefully pins best-effort persistence:
// a write failure (the store directory removed after Open) is counted,
// but the response still succeeds with the computed result.
func TestStorePutFailureDegradesGracefully(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir)
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	e := New(Config{Workers: 1, Store: st})
	defer e.Close()

	sp := testSpec()
	res, src, err := e.Evaluate(context.Background(), sp)
	if err != nil {
		t.Fatalf("evaluation failed on a store write error: %v", err)
	}
	if src != SourceComputed {
		t.Errorf("source = %s", src)
	}
	direct, err := sp.Scenario()
	if err != nil {
		t.Fatal(err)
	}
	want, err := noc.Simulator{}.Evaluate(direct)
	if err != nil {
		t.Fatal(err)
	}
	if resultJSON(t, res) != resultJSON(t, want) {
		t.Errorf("result differs under store failure")
	}
	if stats := e.Stats(); stats.StoreErrors != 1 || stats.DurableResults != 0 {
		t.Errorf("stats = %+v, want 1 store error, 0 durable results", stats)
	}
}

// TestHealthzStates pins the degraded-state reporting: ok when idle,
// degraded while draining, degraded when the job queue is saturated.
func TestHealthzStates(t *testing.T) {
	e := New(Config{Workers: 1})
	if hs := e.Healthz(); hs.Status != StatusOK {
		t.Errorf("idle Healthz = %+v, want ok", hs)
	}
	e.SetDraining(true)
	if hs := e.Healthz(); hs.Status != StatusDegraded || !strings.Contains(hs.Reason, "draining") {
		t.Errorf("draining Healthz = %+v", hs)
	}
	e.SetDraining(false)
	e.Close()
	if hs := e.Healthz(); hs.Status != StatusDegraded {
		t.Errorf("closed Healthz = %+v, want degraded", hs)
	}

	// Saturation, white-box: a full job buffer with no workers draining
	// it is exactly the state a stalled pool presents.
	sat := &Evaluator{jobs: make(chan job, 1)}
	if hs := sat.Healthz(); hs.Status != StatusOK {
		t.Errorf("empty queue Healthz = %+v", hs)
	}
	sat.jobs <- job{}
	if hs := sat.Healthz(); hs.Status != StatusDegraded || !strings.Contains(hs.Reason, "saturated") {
		t.Errorf("saturated Healthz = %+v", hs)
	}
}
