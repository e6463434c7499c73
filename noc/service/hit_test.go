package service

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"testing"
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
