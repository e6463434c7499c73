package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"

	"quarc/noc"
)

// postCoalesced answers doc as a request that joins an in-flight
// evaluation, deterministically: the test registers the flight itself,
// waits until the request has joined it, then evaluates and resolves it
// the way a worker would.
func postCoalesced(t *testing.T, e *Evaluator, doc []byte) *memClient {
	t.Helper()
	sp, err := noc.ParseSpec(doc)
	if err != nil {
		t.Fatal(err)
	}
	canon := sp.Canonical()
	cjson, err := json.Marshal(canon)
	if err != nil {
		t.Fatal(err)
	}
	j := job{
		key: string(canon.AppendKey(nil)), doc: string(cjson),
		f: &flight{done: make(chan struct{}), fp: noc.FingerprintOf(cjson)},
	}
	e.mu.Lock()
	e.flights[j.key] = j.f
	e.mu.Unlock()

	joined := e.Stats().Coalesced
	c := newMemClient(t, NewHandler(e))
	done := make(chan struct{})
	go func() {
		defer close(done)
		c.post(doc)
	}()
	for e.Stats().Coalesced == joined {
		runtime.Gosched()
	}
	canon.Parallelism = 1
	res, err := e.evaluateSpec(canon, noc.NewPooledSimulator())
	e.resolve(j, res, err)
	<-done
	return c
}

// fuzzSpecCorpus reads the documents of the FuzzSpecJSON seed corpus
// (noc/testdata/fuzz/FuzzSpecJSON, Go's corpus file format).
func fuzzSpecCorpus(t *testing.T) [][]byte {
	t.Helper()
	files, err := filepath.Glob("../testdata/fuzz/FuzzSpecJSON/*")
	if err != nil || len(files) == 0 {
		t.Fatalf("no FuzzSpecJSON seed corpus found: %v", err)
	}
	var docs [][]byte
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		_, line, _ := strings.Cut(string(data), "\n")
		line = strings.TrimSuffix(strings.TrimPrefix(strings.TrimSpace(line), "[]byte("), ")")
		doc, err := strconv.Unquote(line)
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		docs = append(docs, []byte(doc))
	}
	return docs
}

// TestHTTPHitAllocs pins the hit path's allocation budget on every
// serve-hot shape: a warm POST /v1/evaluate cache hit through NewHandler
// allocates at most the body buffer and the http.MaxBytesReader. The
// names decode to the vocabulary's own strings, the key is encoded on the
// stack and the header values are shared (28 allocations before
// responses were cached as bytes, 14 before the spec codec stopped
// reflecting, 4 while the key was canonical JSON and the header values
// were built per hit).
func TestHTTPHitAllocs(t *testing.T) {
	e := New(Config{Workers: 1})
	defer e.Close()
	c := newMemClient(t, NewHandler(e))
	for _, s := range hotShapes {
		doc := []byte(s)
		if c.post(doc); c.code != http.StatusOK {
			t.Fatalf("pre-fill: status %d: %s", c.code, c.body.Bytes())
		}
		allocs := testing.AllocsPerRun(200, func() { c.post(doc) })
		if c.code != http.StatusOK || c.hdr.Get(HeaderSource) != string(SourceCache) {
			t.Fatalf("%s: status %d, source %q: not a cache hit", s, c.code, c.hdr.Get(HeaderSource))
		}
		if allocs > 2 {
			t.Errorf("%s: %.0f allocations per POST /v1/evaluate cache hit, want <= 2", s, allocs)
		}
	}
}

// TestFingerprintOfKeyMatchesSpec pins that the fingerprint an entry
// takes from its cache key is the spec's content address: for every
// servable document of the FuzzSpecJSON seed corpus and the eight
// serve-hot shapes, a computed, a cached and a coalesced response carry
// the same X-Quarc-Fingerprint, and it is Spec.Fingerprint's.
func TestFingerprintOfKeyMatchesSpec(t *testing.T) {
	e := New(Config{Workers: 1})
	defer e.Close()
	joiner := New(Config{Workers: 1})
	defer joiner.Close()
	c := newMemClient(t, NewHandler(e))

	docs := fuzzSpecCorpus(t)
	for _, s := range hotShapes {
		docs = append(docs, []byte(s))
	}
	served := 0
	for _, doc := range docs {
		sp, err := noc.ParseSpec(doc)
		if err != nil {
			continue // the corpus is mostly hostile; rejected documents carry no fingerprint
		}
		want := fmt.Sprintf("%016x", sp.Fingerprint())
		check := func(c *memClient, src Source) {
			t.Helper()
			if got := c.hdr.Get(HeaderSource); c.code != http.StatusOK || got != string(src) {
				t.Errorf("%s: answered %d from %q, want 200 %s", doc, c.code, got, src)
			}
			if got := c.hdr.Get(HeaderFingerprint); got != want {
				t.Errorf("%s: %s fingerprint %q, want %q", doc, src, got, want)
			}
		}
		if c.post(doc); c.code != http.StatusOK {
			continue // parsed but unservable (record/replay, unknown registry names)
		}
		served++
		check(c, SourceComputed)
		c.post(doc)
		check(c, SourceCache)
		check(postCoalesced(t, joiner, doc), SourceCoalesced)
	}
	if served < len(hotShapes)+2 {
		t.Errorf("only %d documents were servable; the corpus moved?", served)
	}
}

// TestOneBodyAllSources pins "encoded once": the computed, cached,
// coalesced, store (warm restart) and /v1/trace responses for one
// series-bearing spec are the same bytes, and those bytes are a fresh
// encoding of a direct evaluation.
func TestOneBodyAllSources(t *testing.T) {
	sp := metricsSpec()
	doc, err := json.Marshal(sp)
	if err != nil {
		t.Fatal(err)
	}
	s, err := sp.Scenario()
	if err != nil {
		t.Fatal(err)
	}
	direct, err := noc.Simulator{}.Evaluate(s)
	if err != nil {
		t.Fatal(err)
	}
	want, err := encodeResult(direct)
	if err != nil {
		t.Fatal(err)
	}
	if direct.Series == nil || !bytes.Contains(want, []byte(`"series"`)) {
		t.Fatal("the reference carries no series")
	}
	check := func(c *memClient, src Source) {
		t.Helper()
		if got := c.hdr.Get(HeaderSource); c.code != http.StatusOK || got != string(src) {
			t.Fatalf("answered %d from %q, want 200 %s: %s", c.code, got, src, c.body.Bytes())
		}
		if !bytes.Equal(c.body.Bytes(), want) {
			t.Errorf("%s body differs from a fresh encoding of a direct evaluation:\n got  %s\n want %s", src, c.body.Bytes(), want)
		}
	}
	tracePath := fmt.Sprintf("/v1/trace/%016x", sp.Fingerprint())

	dir := t.TempDir()
	e := New(Config{Workers: 1, Store: openStore(t, dir)})
	c := newMemClient(t, NewHandler(e))
	c.post(doc)
	check(c, SourceComputed)
	c.post(doc)
	check(c, SourceCache)
	c.get(tracePath)
	check(c, SourceCache)
	e.Close()

	// A warm restart: the trace query reads the store without promoting,
	// so the evaluate request after it is still the store's to answer.
	e = New(Config{Workers: 1, Store: openStore(t, dir)})
	defer e.Close()
	c = newMemClient(t, NewHandler(e))
	c.get(tracePath)
	check(c, SourceStore)
	c.post(doc)
	check(c, SourceStore)

	joiner := New(Config{Workers: 1})
	defer joiner.Close()
	check(postCoalesced(t, joiner, doc), SourceCoalesced)
}

// TestHitsDuringTraceAndEviction runs hits on one key against
// concurrent evictions of it and /v1/trace scans of the cache (run
// under -race in CI): every 200 body is the reference, and no Body a
// caller was handed is ever written to again.
func TestHitsDuringTraceAndEviction(t *testing.T) {
	e := New(Config{Workers: 2, CacheEntries: 2})
	defer e.Close()
	h := NewHandler(e)
	sp := metricsSpec()
	doc, err := json.Marshal(sp)
	if err != nil {
		t.Fatal(err)
	}
	first, err := e.Serve(context.Background(), sp)
	if err != nil {
		t.Fatal(err)
	}
	want := bytes.Clone(first.Body)
	tracePath := fmt.Sprintf("/v1/trace/%016x", first.Fingerprint)

	const rounds = 60
	var wg sync.WaitGroup
	held := make([][][]byte, 2) // Bodies kept past their request, re-checked at the end
	for g := range held {
		wg.Add(2)
		go func() { // HTTP hits (or recomputations, after an eviction)
			defer wg.Done()
			c := newMemClient(t, h)
			for i := 0; i < rounds; i++ {
				if c.post(doc); c.code != http.StatusOK || !bytes.Equal(c.body.Bytes(), want) {
					t.Errorf("evaluate answered %d with a body that differs from the reference", c.code)
					return
				}
			}
		}()
		go func() { // library hits that keep the shared Body
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				resp, err := e.Serve(context.Background(), sp)
				if err != nil || !bytes.Equal(resp.Body, want) {
					t.Errorf("Serve: err %v, body equal %v", err, err == nil)
					return
				}
				held[g] = append(held[g], resp.Body)
			}
		}()
	}
	wg.Add(2)
	go func() { // evictions: fresh content addresses through a two-slot cache
		defer wg.Done()
		other := testSpec()
		for i := 0; i < rounds; i++ {
			other.Seed = uint64(1000 + i)
			if _, err := e.Serve(context.Background(), other); err != nil {
				t.Errorf("evicting request: %v", err)
				return
			}
		}
	}()
	go func() { // trace scans: 200 with the reference, or 404 while evicted
		defer wg.Done()
		c := newMemClient(t, h)
		for i := 0; i < rounds; i++ {
			c.get(tracePath)
			if c.code == http.StatusNotFound {
				continue
			}
			if c.code != http.StatusOK || !bytes.Equal(c.body.Bytes(), want) {
				t.Errorf("trace answered %d with a body that differs from the reference", c.code)
				return
			}
		}
	}()
	wg.Wait()

	if e.Stats().Evictions == 0 {
		t.Error("nothing was evicted; the test did not exercise eviction")
	}
	for _, bodies := range held {
		for _, b := range bodies {
			if !bytes.Equal(b, want) {
				t.Fatal("a served Body changed after it was handed out")
			}
		}
	}
}

// TestUnencodableResult pins the encode-failure path: a Result the
// encoder refuses fails its flight with ErrUnencodable where it would
// have been cached — waiters get the error, nothing is cached or
// persisted — and the handler answers the typed 500 envelope with none
// of the success headers.
func TestUnencodableResult(t *testing.T) {
	bad := noc.Result{Evaluator: "simulator", MaxRho: math.NaN()}

	st := openStore(t, t.TempDir())
	e := New(Config{Workers: 1, Store: st})
	defer e.Close()
	j := job{key: "unencodable", doc: `{"unencodable":true}`, f: &flight{done: make(chan struct{})}, persist: true}
	e.mu.Lock()
	e.flights[j.key] = j.f
	e.mu.Unlock()
	e.resolve(j, bad, nil)
	if _, err := e.wait(context.Background(), j.f); !errors.Is(err, ErrUnencodable) {
		t.Errorf("flight resolved with %v, want ErrUnencodable", err)
	}
	if s := e.Stats(); s.CachedResults != 0 || s.InFlight != 0 || s.DurableResults != 0 || s.StoreErrors != 0 {
		t.Errorf("an unencodable result left state behind: %+v", s)
	}

	b := &fakeBackend{
		eval: func(ctx context.Context, sp noc.Spec) (noc.Result, Source, error) {
			return bad, SourceComputed, nil
		},
		health: HealthState{Status: StatusOK},
	}
	c := newMemClient(t, NewHandler(b))
	c.post([]byte(hotShapes[0]))
	var eb errorBody
	if err := json.Unmarshal(c.body.Bytes(), &eb); err != nil {
		t.Fatalf("body %q: %v", c.body.Bytes(), err)
	}
	if c.code != http.StatusInternalServerError || eb.Code != CodeInternal || eb.Error == "" {
		t.Errorf("answered %d %+v, want 500 with code %q and a message", c.code, eb, CodeInternal)
	}
	if c.hdr.Get(HeaderFingerprint) != "" || c.hdr.Get(HeaderSource) != "" {
		t.Errorf("failure response carries success headers: %v", c.hdr)
	}
}
