package service

import (
	"bytes"
	"context"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"quarc/noc"
)

// hotShapes are the eight network shapes of the benchmark's serve-hot
// and serve-cold workloads (benchmark/workloads.go structuralKeys), as
// complete small documents.
var hotShapes = []string{
	`{"topology":"quarc","n":16,"msglen":16,"pattern":"localized","dests":4,"alpha":0.05,"rate":0.004,"seed":11,"warmup":1000,"measure":4000}`,
	`{"topology":"quarc","n":32,"msglen":16,"pattern":"random","dests":6,"set_seed":7,"alpha":0.05,"rate":0.002,"seed":12,"warmup":1000,"measure":4000}`,
	`{"topology":"mesh","w":4,"h":4,"msglen":8,"rate":0.007,"seed":13,"warmup":1000,"measure":4000}`,
	`{"topology":"spidergon","n":16,"msglen":16,"rate":0.003,"seed":14,"warmup":1000,"measure":4000}`,
	`{"topology":"quarc","n":16,"msglen":16,"pattern":"broadcast","alpha":0.03,"rate":0.003,"seed":15,"warmup":1000,"measure":4000}`,
	`{"topology":"torus","w":4,"h":4,"msglen":8,"rate":0.008,"seed":16,"warmup":1000,"measure":4000}`,
	`{"topology":"hypercube","dims":4,"msglen":8,"rate":0.008,"seed":17,"warmup":1000,"measure":4000}`,
	`{"topology":"quarc","n":32,"msglen":8,"pattern":"localized","port":1,"dests":5,"alpha":0.1,"rate":0.004,"seed":18,"warmup":1000,"measure":4000}`,
}

// memClient drives a handler in process the way the benchmark's client
// does: one reused request, an in-memory ResponseWriter, no sockets — so
// what it measures is the handler alone.
type memClient struct {
	h    http.Handler
	req  *http.Request
	rd   bytes.Reader
	hdr  http.Header
	body bytes.Buffer
	code int
}

func (c *memClient) Header() http.Header         { return c.hdr }
func (c *memClient) Write(p []byte) (int, error) { return c.body.Write(p) }
func (c *memClient) WriteHeader(code int)        { c.code = code }
func (c *memClient) Close() error                { return nil }
func (c *memClient) Read(p []byte) (int, error)  { return c.rd.Read(p) }

func newMemClient(tb testing.TB, h http.Handler) *memClient {
	tb.Helper()
	req, err := http.NewRequest(http.MethodPost, "/v1/evaluate", nil)
	if err != nil {
		tb.Fatal(err)
	}
	return &memClient{h: h, req: req, hdr: make(http.Header)}
}

// post serves one document; status, headers and body stay in c until
// the next request.
func (c *memClient) post(doc []byte) {
	c.rd.Reset(doc)
	c.req.Body, c.req.ContentLength = c, int64(len(doc))
	c.serve(c.req)
}

// get serves one GET the same way.
func (c *memClient) get(path string) {
	c.serve(httptest.NewRequest(http.MethodGet, path, nil))
}

func (c *memClient) serve(req *http.Request) {
	clear(c.hdr)
	c.body.Reset()
	c.code = http.StatusOK
	c.h.ServeHTTP(c, req)
}

// BenchmarkHTTPHit measures one POST /v1/evaluate cache hit through the
// handler, cycling the eight serve-hot shapes: parse, key, LRU get,
// write.
func BenchmarkHTTPHit(b *testing.B) {
	e := New(Config{Workers: 1})
	defer e.Close()
	c := newMemClient(b, NewHandler(e))
	docs := make([][]byte, len(hotShapes))
	for i, s := range hotShapes {
		docs[i] = []byte(s)
		if c.post(docs[i]); c.code != http.StatusOK {
			b.Fatalf("pre-fill %d: status %d: %s", i, c.code, c.body.Bytes())
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.post(docs[i%len(docs)])
		if c.code != http.StatusOK || c.hdr[HeaderSource][0] != string(SourceCache) {
			b.Fatalf("status %d, source %v", c.code, c.hdr[HeaderSource])
		}
	}
}

// TestDeclaredLengthSizesNothing pins that the body buffer grows with the
// bytes that arrive, not with the declared Content-Length: a two-byte
// document that declares a mebibyte costs what two bytes cost, where a
// buffer sized from the header cost 1,048 KiB per request.
func TestDeclaredLengthSizesNothing(t *testing.T) {
	b := &fakeBackend{
		eval: func(context.Context, noc.Spec) (noc.Result, Source, error) {
			return noc.Result{Evaluator: "simulator"}, SourceCache, nil
		},
		health: HealthState{Status: StatusOK},
	}
	c := newMemClient(t, NewHandler(b))
	post := func() {
		c.rd.Reset([]byte(`{}`))
		c.req.Body, c.req.ContentLength = c, maxRequestBody
		c.serve(c.req)
		if c.code != http.StatusOK {
			t.Fatalf("status %d: %s", c.code, c.body.Bytes())
		}
	}
	post()
	const runs = 50
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		post()
	}
	runtime.ReadMemStats(&after)
	if perReq := (after.TotalAlloc - before.TotalAlloc) / runs; perReq >= 8<<10 {
		t.Errorf("a 2-byte body declaring Content-Length %d allocates %d bytes per request, want < 8 KiB", maxRequestBody, perReq)
	}
}

// TestLargeBodiesLeaveThePool pins the pool's bound: every body is read
// whole, and a buffer grown past maxPooledBody never comes back from the
// pool.
func TestLargeBodiesLeaveThePool(t *testing.T) {
	for _, size := range []int{2, maxPooledBody / 2, 2 * maxPooledBody} {
		doc := append(bytes.Repeat([]byte(" "), size-2), '{', '}')
		req := httptest.NewRequest(http.MethodPost, "/v1/evaluate", bytes.NewReader(doc))
		body, err := readBody(httptest.NewRecorder(), req)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(*body, doc) {
			t.Fatalf("read %d bytes, want the %d-byte document", len(*body), len(doc))
		}
		grown := cap(*body) > maxPooledBody
		if grown && size <= maxPooledBody/2 {
			t.Errorf("a %d-byte body grew a %d-byte buffer", size, cap(*body))
		}
		releaseBody(body)
		for i := 0; grown && i < 8; i++ {
			if got, _ := bodies.Get().(*[]byte); got == body {
				t.Fatalf("a %d-byte buffer went back to the pool", cap(*body))
			}
		}
	}
}

// TestEvaluateRouteIsTheMuxRoute pins the handler's dispatch: a request
// skips the mux exactly when the mux would route it to the evaluate
// handler, and every request — methods by path spellings, a query, a
// Host — is answered with the status, headers and body of the mux alone.
func TestEvaluateRouteIsTheMuxRoute(t *testing.T) {
	e := New(Config{Workers: 1})
	defer e.Close()
	doc := hotShapes[0]
	sp, err := noc.ParseSpec([]byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := e.Evaluate(context.Background(), sp); err != nil {
		t.Fatal(err)
	}
	h, ok := NewHandler(e).(*handler)
	if !ok {
		t.Fatal("NewHandler did not build the dispatching handler")
	}
	paths := []string{
		"/v1/evaluate", "/v1/evaluate/", "//v1/evaluate", "/v1/./evaluate", "/v1/../v1/evaluate",
		"/v1/%65valuate", "/v1%2Fevaluate", "/v1%2fevaluate", "/V1/evaluate", "/v1/evaluate?q=1",
		"/v1/evaluat", "/v1/sweep", "/v1/registry",
	}
	fast := 0
	for _, method := range []string{http.MethodPost, http.MethodGet, http.MethodHead, http.MethodPut} {
		for _, path := range paths {
			for _, host := range []string{"", "quarcd.example:8080"} {
				req := func() *http.Request {
					r := httptest.NewRequest(method, path, strings.NewReader(doc))
					if host != "" {
						r.Host = host
					}
					return r
				}
				name := method + " " + path + " Host " + host
				// The mux names the pattern for its redirect to a clean
				// path too; it routes to the evaluate handler only when
				// that is the handler it returns.
				mh, pattern := h.mux.Handler(req())
				routed := pattern == evaluatePattern && reflect.ValueOf(mh).Pointer() == reflect.ValueOf(h.evaluate).Pointer()
				if got := routesToEvaluate(req()); got != routed {
					t.Errorf("%s: skips the mux %v, want %v (the mux's pattern is %q)", name, got, routed, pattern)
				}
				if routed {
					fast++
				}
				both, muxOnly := httptest.NewRecorder(), httptest.NewRecorder()
				h.ServeHTTP(both, req())
				h.mux.ServeHTTP(muxOnly, req())
				if both.Code != muxOnly.Code || !reflect.DeepEqual(both.Header(), muxOnly.Header()) ||
					!bytes.Equal(both.Body.Bytes(), muxOnly.Body.Bytes()) {
					t.Errorf("%s: answered %d %v %q, the mux alone %d %v %q", name,
						both.Code, both.Header(), both.Body.Bytes(), muxOnly.Code, muxOnly.Header(), muxOnly.Body.Bytes())
				}
			}
		}
	}
	if fast != 6 {
		t.Errorf("%d requests took the evaluate route, want 6 (three spellings, two hosts)", fast)
	}
}

// TestProgrammaticSpecsAreValidated pins that the one validation of the
// HTTP path (ParseSpec's) is not the only one: a spec that never went
// through ParseSpec is refused by Evaluate and Sweep with the error
// Validate gives it.
func TestProgrammaticSpecsAreValidated(t *testing.T) {
	e := New(Config{Workers: 1})
	defer e.Close()
	ctx := context.Background()
	for _, sp := range []noc.Spec{
		{N: 1 << 30},
		{Rate: math.NaN()},
		{Alpha: 2},
		{Wait: "nope"},
		{MetricsBuckets: 4},
		{SpatialWeights: []float64{math.Inf(1)}},
	} {
		want := sp.Validate()
		if want == nil {
			t.Fatalf("%+v: Validate accepts it", sp)
		}
		if _, _, err := e.Evaluate(ctx, sp); err == nil || err.Error() != want.Error() {
			t.Errorf("Evaluate(%+v) = %v, want %v", sp, err, want)
		}
		// A sweep point takes its rate from the grid, so only what the
		// grid does not repair is refused per point.
		pt := sp
		pt.Rate = 0.001
		if want := pt.Validate(); want != nil {
			if _, err := e.Sweep(ctx, sp, []float64{pt.Rate}); err == nil || !strings.HasSuffix(err.Error(), ": "+want.Error()) {
				t.Errorf("Sweep(%+v) = %v, want it to wrap %v", sp, err, want)
			}
		}
	}
	if s := e.Stats(); s.Hits+s.Misses+s.Coalesced != 0 {
		t.Errorf("a refused spec reached the tables: %+v", s)
	}
}
