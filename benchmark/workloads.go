package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"net/http"
	"strconv"

	"quarc/noc"
	"quarc/noc/service"
)

// checkedOps is how many leading operations of a run have their outputs
// compared byte for byte against a direct evaluation, and pinned in
// golden.json at the default seed.
const checkedOps = 8

// opFailure names one failed operation and why.
type opFailure struct {
	op     int
	reason string
}

// workload is one named set of inputs. Op indices >= 0 are timed
// operations; negative indices are priming and warm-up operations, which
// draw from the same generator but are never checked against goldens.
type workload interface {
	name() string
	// inputs generates, untimed, everything that depends on the seed and
	// is not the program's own work: request documents and the reference
	// outputs the checks compare against.
	inputs(seed uint64) error
	// setup builds the program's state from nothing up to and including
	// one priming operation. It is what setup_s times, so it must redo
	// all of its work when called again.
	setup() error
	// prepare generates operation i's inputs, untimed.
	prepare(i int)
	// op runs operation i. Spans go to tr under parent; tr may be nil.
	op(i int, tr *tracer, parent int) error
	// verify checks, after the timed phase, the outputs the first n
	// operations left behind. It returns the failures and one digest per
	// byte-checked operation.
	verify(n int) ([]opFailure, []uint64)
	close()
}

// entry is a workload with the two constants the harness needs for it.
type entry struct {
	workload
	// sensitivity is how strongly the workload's operations follow the
	// calibrator (see calibrated): two -fit recordings on the reference
	// builder gave 0.69-0.86 (sim), 0.70-0.74, 0.96-0.98 and 0.48-0.64.
	sensitivity float64
	// warmupOps is the least number of untimed operations after set-up
	// (the harness also warms up for at least a second). A pooled
	// network's free lists and sample buffers keep growing over its
	// first ten or so runs (145, 96, 59, 57, 50, 34, ... allocations,
	// then 19-33), and a sim workload has simPool of them.
	warmupOps int
}

// The sim-* scenarios: shares of noc.SaturationRate, and windows sized
// for a 40-60 ms operation. The layer probes run the same two.
const (
	midFrac, midMeasure   = 0.40, 700000
	kneeFrac, kneeMeasure = 0.85, 330000
	simWarmup             = 20000
)

func workloads() []entry {
	return []entry{
		{&simWorkload{id: "sim-mid", frac: midFrac, measure: midMeasure}, 0.75, 10 * simPool},
		{&simWorkload{id: "sim-knee", frac: kneeFrac, measure: kneeMeasure}, 0.75, 10 * simPool},
		{&sweepWorkload{}, 0.70, 2},
		{&serveHot{}, 0.95, 2},
		{&serveCold{}, 0.55, 2},
	}
}

// splitmix64 derives independent streams from the run seed.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ x>>30) * 0xBF58476D1CE4E5B9
	x = (x ^ x>>27) * 0x94D049BB133111EB
	return x ^ x>>31
}

// opSeed is the simulation seed of operation i (or of request k inside
// it): distinct for every (run seed, i, k), never zero (zero means "use
// the default" in a spec) and small enough for any JSON reader.
func opSeed(seed uint64, i, k int) uint64 {
	return 1 + splitmix64(splitmix64(seed^uint64(int64(i))*0x9E3779B97F4A7C15)+uint64(k))&(1<<48-1)
}

// fnv64 is FNV-1a, the digest golden.json pins.
func fnv64(data []byte) uint64 {
	h := fnv.New64a()
	h.Write(data)
	return h.Sum64()
}

// ---- sim-mid, sim-knee ------------------------------------------------

// simPool is how many pooled simulators a sim-* workload rotates over.
// A pooled engine keeps the calendar geometry its first run learned, and
// that geometry alone moves every later run's time by up to 18 % (four
// priming seeds gave 42.7, 45.8, 48.1 and 50.6 ms for one and the same
// operation sequence). So set-up primes simPool simulators on fixed
// seeds: every run, whatever its --seed, measures the same simPool
// geometries, and a change that redraws one of them moves the mix by a
// quarter of its effect. A service has one pooled simulator per worker,
// each with its own history, so the mix is also the realistic case.
const simPool = 4

// simWorkload is one pooled simulator evaluation per operation on
// quarc-64 at a fixed share of the model's saturation rate.
type simWorkload struct {
	id      string
	frac    float64 // share of noc.SaturationRate
	measure float64 // measurement window in cycles

	seed  uint64
	base  *noc.Scenario
	rate  float64
	sims  [simPool]noc.Evaluator
	first [checkedOps]noc.Result
}

func (w *simWorkload) name() string { return w.id }

func (w *simWorkload) inputs(seed uint64) error { w.seed = seed; return nil }

// simOptions is the sim-* network: quarc-64, 32-flit messages, 5 %
// multicasts to 8 localized destinations, poisson arrivals.
func (w *simWorkload) simOptions() []noc.Option {
	return []noc.Option{
		noc.Quarc(64), noc.MsgLen(32), noc.Alpha(0.05), noc.LocalizedDests(noc.PortL, 8),
		noc.Warmup(simWarmup), noc.Measure(w.measure),
	}
}

func (w *simWorkload) setup() error {
	base, err := noc.NewScenario(w.simOptions()...)
	if err != nil {
		return err
	}
	sat, err := noc.SaturationRate(base)
	if err != nil {
		return err
	}
	w.base, w.rate = base, w.frac*sat
	for k := range w.sims {
		w.sims[k] = noc.NewPooledSimulator()
		s, err := base.With(noc.Rate(w.rate), noc.Seed(uint64(k+1)))
		if err != nil {
			return err
		}
		if _, err := w.sims[k].Evaluate(s); err != nil {
			return err
		}
	}
	return nil
}

func (w *simWorkload) prepare(int) {}

func (w *simWorkload) op(i int, tr *tracer, parent int) error {
	id := tr.begin("noc.with", parent, i)
	s, err := w.base.With(noc.Rate(w.rate), noc.Seed(opSeed(w.seed, i, 0)))
	tr.end(id)
	if err != nil {
		return err
	}
	id = tr.begin("noc.evaluate", parent, i)
	r, err := w.sims[uint(i)%simPool].Evaluate(s)
	tr.end(id)
	if err != nil {
		return err
	}
	if i >= 0 && i < checkedOps {
		w.first[i] = r
	}
	if r.Saturated || r.Completed == 0 || r.Events == 0 {
		return fmt.Errorf("degenerate run: saturated=%v completed=%d events=%d", r.Saturated, r.Completed, r.Events)
	}
	return nil
}

// verify re-evaluates the first operations on a scenario built from
// nothing with the stateless simulator: pooling and With-forking must be
// pure reuse.
func (w *simWorkload) verify(n int) ([]opFailure, []uint64) {
	var fails []opFailure
	var digests []uint64
	for i := 0; i < min(n, checkedOps); i++ {
		got, err := json.Marshal(w.first[i])
		if err != nil {
			fails = append(fails, opFailure{i, err.Error()})
			continue
		}
		digests = append(digests, fnv64(got))
		s, err := noc.NewScenario(append(w.simOptions(), noc.Rate(w.rate), noc.Seed(opSeed(w.seed, i, 0)))...)
		if err != nil {
			fails = append(fails, opFailure{i, err.Error()})
			continue
		}
		ref, err := noc.Simulator{}.Evaluate(s)
		if err != nil {
			fails = append(fails, opFailure{i, err.Error()})
			continue
		}
		if want, _ := json.Marshal(ref); !bytes.Equal(got, want) {
			fails = append(fails, opFailure{i, "pooled result differs from a fresh un-pooled evaluation"})
		}
	}
	return fails, digests
}

func (w *simWorkload) close() {}

// ---- sweep-fig --------------------------------------------------------

// coreErrCeilings bounds a panel's mean model-vs-simulator error over
// the core region (rates up to 70 % of saturation). The N=16 panels get
// the ceilings the repo's tier-1 tests hold them to; the N=64 panels get
// twice the largest error EXPERIMENTS.md records for them (8.2 % / 8.0 %),
// which leaves room for the seed: 80 seeds at this effort reached 9.4 %
// and 12.5 %.
func coreErrCeilings(n int) (unicast, multicast float64) {
	if n <= 16 {
		return 0.10, 0.12
	}
	return 0.16, 0.16
}

// sweepWorkload regenerates four of the paper's figure panels per
// operation: model solves, per-point compiles and fresh networks.
type sweepWorkload struct {
	seed    uint64
	panels  []noc.Panel
	results [][]noc.PanelResult
}

func (w *sweepWorkload) name() string { return "sweep-fig" }

func (w *sweepWorkload) inputs(seed uint64) error { w.seed = seed; return nil }

func (w *sweepWorkload) setup() error {
	w.panels = w.panels[:0]
	for _, id := range []string{"fig6-a", "fig6-c", "fig7-a", "fig7-c"} {
		p, err := noc.PanelByID(id)
		if err != nil {
			return err
		}
		p.Points = 4 // the grid EXPERIMENTS.md records
		w.panels = append(w.panels, p)
	}
	w.results = make([][]noc.PanelResult, 0, 4096)
	return w.op(-1, nil, -1)
}

func (w *sweepWorkload) prepare(int) {}

func (w *sweepWorkload) op(i int, tr *tracer, parent int) error {
	e := noc.QuickEffort()
	e.Seed = opSeed(w.seed, i, 0)
	id := tr.begin("noc.run_figure_panels", parent, i)
	res, err := noc.RunFigurePanels(w.panels, e, 1)
	tr.end(id)
	if err != nil {
		return err
	}
	if len(res) != len(w.panels) {
		return fmt.Errorf("%d panel results for %d panels", len(res), len(w.panels))
	}
	if i >= 0 && len(w.results) < cap(w.results) {
		w.results = append(w.results, res)
	}
	return nil
}

// figureAgreement is the part of WriteFiguresJSON the checks read.
type figureAgreement struct {
	Panel string `json:"panel"`
	N     int    `json:"n"`
	Core  struct {
		MeanUnicastErr   float64
		MeanMulticastErr float64
		Compared         int
	} `json:"agreement_core"`
}

// figureErrors renders panel results the way cmd/figures does and
// returns the bytes with the per-panel core-region agreement.
func figureErrors(res []noc.PanelResult) ([]byte, []figureAgreement, error) {
	var buf bytes.Buffer
	if err := noc.WriteFiguresJSON(&buf, res); err != nil {
		return nil, nil, err
	}
	var ag []figureAgreement
	if err := json.Unmarshal(buf.Bytes(), &ag); err != nil {
		return nil, nil, err
	}
	return buf.Bytes(), ag, nil
}

func (w *sweepWorkload) verify(n int) ([]opFailure, []uint64) {
	var fails []opFailure
	var digests []uint64
	for i := 0; i < min(n, len(w.results)); i++ {
		data, ag, err := figureErrors(w.results[i])
		if err != nil {
			fails = append(fails, opFailure{i, err.Error()})
			continue
		}
		if i < checkedOps {
			digests = append(digests, fnv64(data))
		}
		for _, a := range ag {
			maxUni, maxMc := coreErrCeilings(a.N)
			if a.Core.Compared == 0 || a.Core.MeanUnicastErr > maxUni || a.Core.MeanMulticastErr > maxMc {
				fails = append(fails, opFailure{i, fmt.Sprintf("%s: core error uni %.3f mc %.3f over %d points exceeds the ceilings",
					a.Panel, a.Core.MeanUnicastErr, a.Core.MeanMulticastErr, a.Core.Compared)})
				break
			}
		}
	}
	return fails, digests
}

func (w *sweepWorkload) close() {}

// ---- serve-hot, serve-cold --------------------------------------------

// structuralKeys are the eight network shapes the serve workloads draw
// from (each a spec prefix and a per-node rate safely below saturation),
// so the evaluator's base-scenario cache is exercised and its pooled
// network changes shape between requests.
var structuralKeys = [...]struct {
	prefix string
	rate   float64
}{
	{`{"topology":"quarc","n":16,"msglen":16,"pattern":"localized","dests":4,"alpha":0.05`, 0.006},
	{`{"topology":"quarc","n":32,"msglen":16,"pattern":"random","dests":6,"set_seed":7,"alpha":0.05`, 0.003},
	{`{"topology":"mesh","w":4,"h":4,"msglen":8`, 0.01},
	{`{"topology":"spidergon","n":16,"msglen":16`, 0.004},
	{`{"topology":"quarc","n":16,"msglen":16,"pattern":"broadcast","alpha":0.03`, 0.004},
	{`{"topology":"torus","w":4,"h":4,"msglen":8`, 0.012},
	{`{"topology":"hypercube","dims":4,"msglen":8`, 0.012},
	{`{"topology":"quarc","n":32,"msglen":8,"pattern":"localized","port":1,"dests":5,"alpha":0.1`, 0.005},
}

// appendSpec appends request j of the stream identified by (seed, i) to
// dst without allocating: shape j mod 8, a rate at 50-100 % of the
// shape's nominal rate and a fresh simulation seed.
func appendSpec(dst []byte, seed uint64, i, j int, measure int) []byte {
	k := structuralKeys[j%len(structuralKeys)]
	s := opSeed(seed, i, j)
	u := float64(splitmix64(s)>>11) / (1 << 53)
	dst = append(dst, k.prefix...)
	dst = append(dst, `,"rate":`...)
	dst = strconv.AppendFloat(dst, k.rate*(0.5+0.5*u), 'g', 6, 64)
	dst = append(dst, `,"seed":`...)
	dst = strconv.AppendUint(dst, s, 10)
	dst = append(dst, `,"warmup":1000,"measure":`...)
	dst = strconv.AppendInt(dst, int64(measure), 10)
	return append(dst, '}')
}

// directBody is the reference a served response must equal byte for
// byte: the document evaluated cold, outside any service, and encoded
// the way the handler encodes.
func directBody(doc []byte) ([]byte, error) {
	sp, err := noc.ParseSpec(doc)
	if err != nil {
		return nil, err
	}
	s, err := sp.Scenario()
	if err != nil {
		return nil, err
	}
	var ev noc.Evaluator = noc.Simulator{}
	if sp.Canonical().Evaluator == "model" {
		ev = noc.Model{}
	}
	res, err := ev.Evaluate(s)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(res); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// client drives an http.Handler in process: one reused request, an
// in-memory ResponseWriter, no sockets.
type client struct {
	h    http.Handler
	req  *http.Request
	body bodyReader
	hdr  http.Header
	buf  bytes.Buffer
	code int
}

type bodyReader struct{ bytes.Reader }

func (*bodyReader) Close() error { return nil }

func (c *client) Header() http.Header         { return c.hdr }
func (c *client) Write(p []byte) (int, error) { return c.buf.Write(p) }
func (c *client) WriteHeader(code int)        { c.code = code }

func newClient(h http.Handler) (*client, error) {
	req, err := http.NewRequest(http.MethodPost, "/v1/evaluate", nil)
	if err != nil {
		return nil, err
	}
	return &client{h: h, req: req, hdr: make(http.Header)}, nil
}

// post serves one document and checks status and X-Quarc-Source; the
// response body stays in c.buf until the next post.
func (c *client) post(doc []byte, wantSource service.Source) error {
	c.body.Reset(doc)
	c.req.Body, c.req.ContentLength = &c.body, int64(len(doc))
	clear(c.hdr)
	c.buf.Reset()
	c.code = http.StatusOK
	c.h.ServeHTTP(c, c.req)
	if c.code != http.StatusOK {
		return fmt.Errorf("status %d: %s", c.code, bytes.TrimSpace(c.buf.Bytes()))
	}
	if src := c.hdr[service.HeaderSource]; len(src) != 1 || src[0] != string(wantSource) {
		return fmt.Errorf("%s = %q, want %q", service.HeaderSource, src, wantSource)
	}
	return nil
}

const (
	hotSet         = 256  // distinct specs serve-hot cycles through
	hotRequests    = 2048 // requests per serve-hot operation
	hotMeasure     = 4000 // short windows: serve-hot never simulates when timed
	coldRequests   = 32   // never-seen specs per serve-cold operation
	coldMeasure    = 12000
	coldCacheSlots = 2 * coldRequests // filled by set-up, so every timed request evicts
)

// serveHot posts a pre-filled hot set through the handler: parse,
// validate, canonicalize, LRU get and JSON encode, never a simulation.
type serveHot struct {
	docs, want [][]byte
	ev         *service.Evaluator
	c          *client
}

func (w *serveHot) name() string { return "serve-hot" }

func (w *serveHot) inputs(seed uint64) error {
	w.docs, w.want = make([][]byte, hotSet), make([][]byte, hotSet)
	for j := range w.docs {
		w.docs[j] = appendSpec(nil, seed, 0, j, hotMeasure)
		body, err := directBody(w.docs[j])
		if err != nil {
			return fmt.Errorf("hot spec %d: %w", j, err)
		}
		w.want[j] = body
	}
	return nil
}

func (w *serveHot) setup() error {
	w.ev = service.New(service.Config{Workers: 1})
	c, err := newClient(service.NewHandler(w.ev))
	if err != nil {
		return err
	}
	w.c = c
	for j, doc := range w.docs {
		if err := c.post(doc, service.SourceComputed); err != nil {
			return fmt.Errorf("pre-fill %d: %w", j, err)
		}
		if !bytes.Equal(c.buf.Bytes(), w.want[j]) {
			return fmt.Errorf("pre-fill %d: computed body differs from a direct evaluation", j)
		}
	}
	return w.op(-1, nil, -1)
}

func (w *serveHot) prepare(int) {}

func (w *serveHot) op(i int, tr *tracer, parent int) error {
	before := w.ev.Stats().Evaluations
	for k := 0; k < hotRequests; k++ {
		j := k % hotSet
		id := tr.begin("service.http", parent, i)
		err := w.c.post(w.docs[j], service.SourceCache)
		tr.end(id)
		if err != nil {
			return fmt.Errorf("request %d: %w", k, err)
		}
		if !bytes.Equal(w.c.buf.Bytes(), w.want[j]) {
			return fmt.Errorf("request %d: cached body differs from a direct evaluation", k)
		}
	}
	if d := w.ev.Stats().Evaluations - before; d != 0 {
		return fmt.Errorf("%d evaluations on the hot path", d)
	}
	return nil
}

// verify has nothing left to compare (op checks every body); the digest
// pins the reference bodies themselves.
func (w *serveHot) verify(n int) ([]opFailure, []uint64) {
	h := make([]byte, 0, 8*hotSet)
	for _, b := range w.want {
		h = strconv.AppendUint(h, fnv64(b), 16)
	}
	return nil, []uint64{fnv64(h)}
}

func (w *serveHot) close() {
	if w.ev != nil {
		w.ev.Close()
		w.ev = nil
	}
}

// serveCold posts never-seen specs through the same handler with a full
// cache: compile against a cached base scenario, queue hand-off, a small
// simulation, encode, and an eviction per request.
type serveCold struct {
	seed uint64
	docs [coldRequests][]byte
	ev   *service.Evaluator
	c    *client
	kept [checkedOps][coldRequests][]byte // response bodies of the checked ops
}

func (w *serveCold) name() string { return "serve-cold" }

func (w *serveCold) inputs(seed uint64) error { w.seed = seed; return nil }

func (w *serveCold) setup() error {
	w.ev = service.New(service.Config{Workers: 1, CacheEntries: coldCacheSlots})
	c, err := newClient(service.NewHandler(w.ev))
	if err != nil {
		return err
	}
	w.c = c
	for i := -coldCacheSlots / coldRequests; i < 0; i++ {
		w.prepare(i)
		if err := w.op(i, nil, -1); err != nil {
			return err
		}
	}
	return nil
}

func (w *serveCold) prepare(i int) {
	for k := range w.docs {
		w.docs[k] = appendSpec(w.docs[k][:0], w.seed, i, k, coldMeasure)
	}
}

func (w *serveCold) op(i int, tr *tracer, parent int) error {
	before := w.ev.Stats()
	for k, doc := range w.docs {
		id := tr.begin("service.http", parent, i)
		err := w.c.post(doc, service.SourceComputed)
		tr.end(id)
		if err != nil {
			return fmt.Errorf("request %d: %w", k, err)
		}
		if w.c.buf.Len() == 0 {
			return fmt.Errorf("request %d: empty body", k)
		}
		if i >= 0 && i < checkedOps {
			w.kept[i][k] = append(w.kept[i][k][:0], w.c.buf.Bytes()...)
		}
	}
	after := w.ev.Stats()
	if d := after.Evaluations - before.Evaluations; d != coldRequests {
		return fmt.Errorf("%d evaluations for %d never-seen specs", d, coldRequests)
	}
	if i >= 0 && after.Evictions-before.Evictions != coldRequests {
		return fmt.Errorf("%d evictions, want %d: the cache is not at capacity", after.Evictions-before.Evictions, coldRequests)
	}
	return nil
}

func (w *serveCold) verify(n int) ([]opFailure, []uint64) {
	var fails []opFailure
	var digests []uint64
	for i := 0; i < min(n, checkedOps); i++ {
		w.prepare(i)
		var all []byte
		for k, doc := range w.docs {
			all = append(all, w.kept[i][k]...)
			want, err := directBody(doc)
			if err == nil && !bytes.Equal(w.kept[i][k], want) {
				err = fmt.Errorf("served body differs from a direct evaluation")
			}
			if err != nil {
				fails = append(fails, opFailure{i, fmt.Sprintf("request %d: %v", k, err)})
				break
			}
		}
		digests = append(digests, fnv64(all))
	}
	return fails, digests
}

func (w *serveCold) close() {
	if w.ev != nil {
		w.ev.Close()
		w.ev = nil
	}
}
