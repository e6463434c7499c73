package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"quarc/noc"
	"quarc/noc/service"
)

// buildDir holds the binary buildBinary compiles; TestMain removes it.
var buildDir string

// buildBinary compiles the quarcd binary once per test run; the e2e
// tests drive the real executable — real listener, real signals, real
// process death — so the durability contract is pinned end to end.
var buildBinary = sync.OnceValues(func() (string, error) {
	dir, err := os.MkdirTemp("", "quarcd-e2e")
	if err != nil {
		return "", err
	}
	buildDir = dir
	bin := filepath.Join(dir, "quarcd")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", &exec.Error{Name: "go build: " + string(out), Err: err}
	}
	return bin, nil
})

func TestMain(m *testing.M) {
	code := m.Run()
	if buildDir != "" {
		os.RemoveAll(buildDir)
	}
	os.Exit(code)
}

// daemon is one spawned quarcd process.
type daemon struct {
	cmd *exec.Cmd
	url string
}

// startDaemon launches quarcd on an ephemeral port and waits for its
// "serving on" log line to learn the bound address.
func startDaemon(t *testing.T, args ...string) *daemon {
	t.Helper()
	bin, err := buildBinary()
	if err != nil {
		t.Fatalf("building quarcd: %v", err)
	}
	cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatalf("starting quarcd: %v", err)
	}
	d := &daemon{cmd: cmd}
	t.Cleanup(func() {
		if d.cmd.ProcessState == nil {
			_ = d.cmd.Process.Kill()
			_, _ = d.cmd.Process.Wait()
		}
	})
	addrc := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			if i := strings.Index(line, "serving on "); i >= 0 {
				fields := strings.Fields(line[i+len("serving on "):])
				if len(fields) > 0 {
					select {
					case addrc <- fields[0]:
					default:
					}
				}
			}
		}
	}()
	select {
	case addr := <-addrc:
		d.url = "http://" + addr
	case <-time.After(30 * time.Second):
		t.Fatal("quarcd did not report a listen address")
	}
	return d
}

func e2eSpec() noc.Spec {
	return noc.Spec{
		Topology: "quarc", N: 16, Pattern: "localized", Dests: 4,
		MsgLen: 16, Rate: 0.002, Alpha: 0.05,
		Seed: 5, Warmup: 500, Measure: 6000,
	}
}

// directJSON is the in-process ground truth a served result must match
// bitwise.
func directJSON(t *testing.T, sp noc.Spec) string {
	t.Helper()
	s, err := sp.Scenario()
	if err != nil {
		t.Fatal(err)
	}
	res, err := noc.Simulator{}.Evaluate(s)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func postJSON(t *testing.T, url string, v any) (*http.Response, []byte) {
	t.Helper()
	body, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

// countEntries counts durable result files in a store directory.
func countEntries(t *testing.T, dir string) int {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, e := range ents {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".qre") {
			n++
		}
	}
	return n
}

// TestRestartServesFromStore is the crash-restart e2e: a daemon is
// SIGKILLed mid-sweep, a new daemon over the same -store directory
// serves the surviving results warm (source: store), and everything —
// warm or recomputed — is bitwise-identical to in-process evaluation.
func TestRestartServesFromStore(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real daemons")
	}
	dir := t.TempDir()
	sp := e2eSpec()
	rates := make([]float64, 12)
	for i := range rates {
		rates[i] = 0.001 + 0.0005*float64(i)
	}

	d1 := startDaemon(t, "-store", dir, "-workers", "2")
	sweepDone := make(chan struct{})
	go func() {
		defer close(sweepDone)
		body, _ := json.Marshal(service.SweepRequest{Spec: sp, Rates: rates})
		resp, err := http.Post(d1.url+"/v1/sweep", "application/json", bytes.NewReader(body))
		if err == nil {
			resp.Body.Close()
		}
		// An error is expected: the daemon may die mid-sweep.
	}()

	// Kill the daemon the moment some — not necessarily all — results
	// have been persisted.
	deadline := time.Now().Add(60 * time.Second)
	for countEntries(t, dir) < 2 {
		if time.Now().After(deadline) {
			t.Fatal("store never accumulated 2 entries")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := d1.cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	_, _ = d1.cmd.Process.Wait()
	<-sweepDone
	survivors := countEntries(t, dir)
	t.Logf("SIGKILL left %d/%d durable results", survivors, len(rates))

	// Restart over the same directory: surviving points come back warm
	// from the store, the rest recompute; every byte matches direct
	// evaluation.
	d2 := startDaemon(t, "-store", dir, "-workers", "2")
	warm := 0
	for _, r := range rates {
		pt := sp
		pt.Rate = r
		resp, body := postJSON(t, d2.url+"/v1/evaluate", pt)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("rate %g: status %d (%s)", r, resp.StatusCode, body)
		}
		switch src := resp.Header.Get(service.HeaderSource); src {
		case string(service.SourceStore):
			warm++
		case string(service.SourceComputed):
		default:
			t.Errorf("rate %g: unexpected source %q", r, src)
		}
		if got, want := string(body), directJSON(t, pt)+"\n"; got != want {
			t.Errorf("rate %g: restarted result differs from direct:\n got:  %s want: %s", r, got, want)
		}
	}
	if warm < 1 {
		t.Errorf("no point was served from the store after restart (%d survivors on disk)", survivors)
	}
	if warm != survivors {
		t.Logf("note: %d warm serves vs %d files on disk", warm, survivors)
	}

	// A full sweep over the mixed warm/cold state is also bitwise-correct.
	resp, body := postJSON(t, d2.url+"/v1/sweep", service.SweepRequest{Spec: sp, Rates: rates})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sweep status %d (%s)", resp.StatusCode, body)
	}
	var sr service.SweepResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	for i, r := range rates {
		pt := sp
		pt.Rate = r
		got, err := json.Marshal(sr.Points[i].Result)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != directJSON(t, pt) {
			t.Errorf("sweep rate %g differs from direct", r)
		}
	}

	// This daemon gets the dignified exit: SIGTERM drains and stops.
	if err := d2.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := d2.cmd.Wait(); err != nil {
		t.Errorf("graceful shutdown exit: %v", err)
	}
}

// TestTraceMatchesEvaluate is the observability smoke over a real
// socket: a metrics evaluation answers with a 100-bucket series,
// GET /v1/trace/{fp} re-serves the very bytes evaluate answered from the
// cache under the same fingerprint, the series bytes equal those of
// quarcsim -spec -json for the same document, the dashboard points at
// the trace endpoint, and an unknown fingerprint answers not_found.
func TestTraceMatchesEvaluate(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns a real daemon")
	}
	dir := t.TempDir()
	quarcsim := buildTool(t, dir, "quarcsim")
	d := startDaemon(t)
	get := func(path string) (*http.Response, []byte) {
		t.Helper()
		resp, err := http.Get(d.url + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		if _, err := buf.ReadFrom(resp.Body); err != nil {
			t.Fatal(err)
		}
		return resp, buf.Bytes()
	}
	var series struct {
		Series json.RawMessage `json:"series"`
	}
	seriesOf := func(what string, body []byte) []byte {
		t.Helper()
		series.Series = nil
		if err := json.Unmarshal(body, &series); err != nil || len(series.Series) == 0 {
			t.Fatalf("%s carries no series (%v): %.200s", what, err, body)
		}
		return series.Series
	}

	const mspec = `{"topology":"quarc","n":16,"msglen":32,"rate":0.002,"alpha":0.05,"pattern":"localized","dests":4,"seed":42,"warmup":2000,"measure":20000,"metrics":true}`
	resp, err := http.Post(d.url+"/v1/evaluate", "application/json", strings.NewReader(mspec))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	evaluated := buf.Bytes()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("evaluate status %d: %s", resp.StatusCode, evaluated)
	}
	var buckets struct {
		Buckets int `json:"buckets"`
	}
	if err := json.Unmarshal(seriesOf("the evaluate body", evaluated), &buckets); err != nil || buckets.Buckets != 100 {
		t.Errorf("series.buckets = %d (%v), want 100", buckets.Buckets, err)
	}
	fp := resp.Header.Get(service.HeaderFingerprint)
	if fp == "" {
		t.Fatal("evaluate answered without a fingerprint")
	}

	tresp, traced := get("/v1/trace/" + fp)
	if tresp.StatusCode != http.StatusOK {
		t.Fatalf("trace status %d: %s", tresp.StatusCode, traced)
	}
	if got := tresp.Header.Get(service.HeaderFingerprint); got != fp {
		t.Errorf("trace fingerprint %q, want evaluate's %q", got, fp)
	}
	if got := tresp.Header.Get(service.HeaderSource); got != string(service.SourceCache) {
		t.Errorf("trace %s = %q, want %q", service.HeaderSource, got, service.SourceCache)
	}
	if !bytes.Equal(traced, evaluated) {
		t.Errorf("the trace body differs from the evaluate body:\n%s\n%s", traced, evaluated)
	}

	spec := filepath.Join(dir, "mspec.json")
	if err := os.WriteFile(spec, []byte(mspec+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	cli, err := exec.Command(quarcsim, "-spec", spec, "-json").Output()
	if err != nil {
		t.Fatalf("quarcsim -spec -json: %v", err)
	}
	if got, want := seriesOf("the trace body", traced), seriesOf("quarcsim's Result", cli); !bytes.Equal(got, want) {
		t.Errorf("the served series differs from quarcsim's:\n%.300s\n%.300s", got, want)
	}

	if resp, page := get("/dashboard"); resp.StatusCode != http.StatusOK || !bytes.Contains(page, []byte("/v1/trace/")) {
		t.Errorf("dashboard (status %d) does not point at /v1/trace/", resp.StatusCode)
	}
	var envelope struct {
		Code string `json:"code"`
	}
	if _, body := get("/v1/trace/00000000deadbeef"); json.Unmarshal(body, &envelope) != nil || envelope.Code != service.CodeNotFound {
		t.Errorf("an unknown fingerprint answers %s, want code %q", body, service.CodeNotFound)
	}
}

// TestRefusesMuxThatRoutesNothing pins the start-up probe: under
// GODEBUG=httpmuxgo121=1 the mux matches none of the method patterns, so
// quarcd must exit non-zero, naming the setting, instead of serving 404s.
func TestRefusesMuxThatRoutesNothing(t *testing.T) {
	bin, err := buildBinary()
	if err != nil {
		t.Fatalf("building quarcd: %v", err)
	}
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0")
	cmd.Env = append(os.Environ(), "GODEBUG=httpmuxgo121=1")
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatalf("starting quarcd: %v", err)
	}
	var out strings.Builder
	sc := bufio.NewScanner(stderr)
	for sc.Scan() {
		out.WriteString(sc.Text() + "\n")
		if strings.Contains(sc.Text(), "serving on") {
			_ = cmd.Process.Kill()
			_ = cmd.Wait()
			t.Fatalf("quarcd listened under httpmuxgo121=1:\n%s", out.String())
		}
	}
	if err := cmd.Wait(); err == nil {
		t.Fatalf("quarcd exited 0 under httpmuxgo121=1:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "GODEBUG=httpmuxgo121=1") {
		t.Errorf("the refusal does not name the setting:\n%s", out.String())
	}
}

// buildTool compiles another command of this module into dir.
func buildTool(t *testing.T, dir, name string) string {
	t.Helper()
	bin := filepath.Join(dir, name)
	if out, err := exec.Command("go", "build", "-o", bin, "../"+name).CombinedOutput(); err != nil {
		t.Fatalf("go build %s: %v\n%s", name, err, out)
	}
	return bin
}

// TestDaemonMatchesCLI is the daemon-versus-CLI smoke over a real
// socket: a computed response and then its cache hit (sources, one
// 16-digit fingerprint, the JSON content type, the same bytes), each
// answer byte-equal to quarcsim -spec -json for a simulator, a model and
// a fig6-a document, fig6-a's destination set the one cmd/figures
// runs, health, the registry, and a graceful SIGTERM.
func TestDaemonMatchesCLI(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns a real daemon")
	}
	dir := t.TempDir()
	quarcsim, figures := buildTool(t, dir, "quarcsim"), buildTool(t, dir, "figures")
	d := startDaemon(t)

	post := func(doc string) (*http.Response, []byte) {
		t.Helper()
		resp, err := http.Post(d.url+"/v1/evaluate", "application/json", strings.NewReader(doc))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		if _, err := buf.ReadFrom(resp.Body); err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", doc, resp.StatusCode, buf.Bytes())
		}
		return resp, buf.Bytes()
	}
	cli := func(doc string, args ...string) []byte {
		t.Helper()
		spec := filepath.Join(dir, "spec.json")
		if err := os.WriteFile(spec, []byte(doc+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		out, err := exec.Command(quarcsim, append([]string{"-spec", spec}, args...)...).Output()
		if err != nil {
			t.Fatalf("quarcsim -spec %s %v: %v", doc, args, err)
		}
		return out
	}
	fingerprint := regexp.MustCompile(`^[0-9a-f]{16}$`)

	const (
		base  = `{"topology":"quarc","n":16,"msglen":32,"rate":0.002,"alpha":0.05,`
		tail  = `"seed":42,"warmup":2000,"measure":20000`
		sim   = base + `"pattern":"localized","dests":4,` + tail + `}`
		model = base + `"pattern":"localized","dests":4,` + tail + `,"evaluator":"model"}`
		fig6  = base + `"pattern":"random","dests":5,"set_seed":61,"set_stream":1511,` + tail + `}`
		// The trace text names links as "a->b", so the body carries an
		// escaped '>' that both encoders must spell alike.
		traced = base + `"pattern":"localized","dests":4,` + tail + `,"trace_limit":20}`
	)
	first, computed := post(sim)
	second, cached := post(sim)
	for _, c := range []struct {
		resp *http.Response
		src  service.Source
	}{{first, service.SourceComputed}, {second, service.SourceCache}} {
		if got := c.resp.Header.Get(service.HeaderSource); got != string(c.src) {
			t.Errorf("%s = %q, want %q", service.HeaderSource, got, c.src)
		}
		if got := c.resp.Header.Get("Content-Type"); got != "application/json" {
			t.Errorf("%s response: Content-Type %q", c.src, got)
		}
	}
	fp1, fp2 := first.Header.Get(service.HeaderFingerprint), second.Header.Get(service.HeaderFingerprint)
	if !fingerprint.MatchString(fp1) || fp1 != fp2 {
		t.Errorf("fingerprints %q (computed) and %q (cache), want one 16-digit hex address", fp1, fp2)
	}
	if !bytes.Equal(computed, cached) {
		t.Errorf("the cache hit's body differs from the computed one:\n%s\n%s", computed, cached)
	}

	for _, c := range []struct{ name, doc string }{{"simulator", sim}, {"model", model}, {"fig6-a", fig6}, {"traced", traced}} {
		_, served := post(c.doc)
		if want := cli(c.doc, "-json"); !bytes.Equal(served, want) {
			t.Errorf("%s: the daemon's body differs from quarcsim -spec -json:\n%s\n%s", c.name, served, want)
		}
		if c.name == "model" && !bytes.Contains(served, []byte(`"evaluator":"model"`)) {
			t.Errorf("model: the body is not a model result: %s", served)
		}
		if c.name == "traced" && !bytes.Contains(served, []byte(`-\u003e`)) {
			t.Errorf("traced: the body carries no escaped link arrow: %.300s", served)
		}
	}

	// fig6-a's set, stated by its PCG stream (0x5e7 = 1511), is the one
	// cmd/figures draws for that panel.
	out := filepath.Join(dir, "fig6")
	if b, err := exec.Command(figures, "-quick", "-panel", "fig6-a", "-points", "2", "-out", out).CombinedOutput(); err != nil {
		t.Fatalf("figures: %v\n%s", err, b)
	}
	raw, err := os.ReadFile(filepath.Join(out, "figures.json"))
	if err != nil {
		t.Fatal(err)
	}
	var panels []struct {
		MulticastSet string `json:"multicast_set"`
	}
	if err := json.Unmarshal(raw, &panels); err != nil || len(panels) == 0 || panels[0].MulticastSet == "" {
		t.Fatalf("figures.json holds no multicast set (%v): %s", err, raw)
	}
	if want := "set={" + panels[0].MulticastSet + "}"; !bytes.Contains(cli(fig6), []byte(want)) {
		t.Errorf("quarcsim's fig6-a report does not name cmd/figures' %s", want)
	}

	resp, err := http.Get(d.url + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz status %d, want 200", resp.StatusCode)
	}
	resp, err = http.Get(d.url + "/v1/registry")
	if err != nil {
		t.Fatal(err)
	}
	var reg service.Registry
	err = json.NewDecoder(resp.Body).Decode(&reg)
	resp.Body.Close()
	if err != nil || !slices.Contains(reg.Topologies, "quarc") {
		t.Errorf("registry (%v) lists topologies %v, want quarc among them", err, reg.Topologies)
	}

	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := d.cmd.Wait(); err != nil {
		t.Errorf("graceful shutdown exit: %v", err)
	}
}
