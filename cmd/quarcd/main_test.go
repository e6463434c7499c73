package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"quarc/noc"
	"quarc/noc/service"
)

// buildBinary compiles the quarcd binary once per test run; the e2e
// tests drive the real executable — real listener, real signals, real
// process death — so the durability contract is pinned end to end.
var buildBinary = sync.OnceValues(func() (string, error) {
	dir, err := os.MkdirTemp("", "quarcd-e2e")
	if err != nil {
		return "", err
	}
	bin := filepath.Join(dir, "quarcd")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", &exec.Error{Name: "go build: " + string(out), Err: err}
	}
	return bin, nil
})

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
