package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"quarc/internal/lint"
)

// buildBinary compiles the quarclint binary once per test run; every
// e2e test drives the real executable so the exit-code contract is
// pinned end to end.
var buildBinary = sync.OnceValues(func() (string, error) {
	dir, err := os.MkdirTemp("", "quarclint-e2e")
	if err != nil {
		return "", err
	}
	bin := filepath.Join(dir, "quarclint")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", &exec.Error{Name: "go build: " + string(out), Err: err}
	}
	return bin, nil
})

// runLint executes the built binary and returns stdout, stderr and the
// exit code.
func runLint(t *testing.T, args ...string) (string, string, int) {
	t.Helper()
	bin, err := buildBinary()
	if err != nil {
		t.Fatalf("building quarclint: %v", err)
	}
	cmd := exec.Command(bin, args...)
	var stdout, stderr strings.Builder
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	err = cmd.Run()
	code := 0
	if ee, ok := err.(*exec.ExitError); ok {
		code = ee.ExitCode()
	} else if err != nil {
		t.Fatalf("running quarclint: %v", err)
	}
	return stdout.String(), stderr.String(), code
}

// corpusDir is the known-dirty fixture module: the lint corpus always
// produces errdiscipline and hotpath findings under the default config.
func corpusDir(t *testing.T) string {
	t.Helper()
	dir, err := filepath.Abs(filepath.Join("..", "..", "internal", "lint", "testdata", "src"))
	if err != nil {
		t.Fatal(err)
	}
	return dir
}

func TestExitCleanTree(t *testing.T) {
	dir, err := filepath.Abs(filepath.Join("testdata", "clean"))
	if err != nil {
		t.Fatal(err)
	}
	stdout, stderr, code := runLint(t, "-C", dir, "./...")
	if code != 0 {
		t.Fatalf("exit = %d on the clean fixture, want 0\nstdout: %s\nstderr: %s", code, stdout, stderr)
	}
	if stdout != "" {
		t.Errorf("clean tree produced output: %q", stdout)
	}
}

func TestExitFindings(t *testing.T) {
	stdout, stderr, code := runLint(t, "-C", corpusDir(t), "./...")
	if code != 1 {
		t.Fatalf("exit = %d on the dirty corpus, want 1\nstderr: %s", code, stderr)
	}
	if !strings.Contains(stdout, "[errdiscipline]") {
		t.Errorf("expected errdiscipline findings in output:\n%s", stdout)
	}
	if !strings.Contains(stderr, "diagnostic(s)") {
		t.Errorf("expected a diagnostic count on stderr, got: %q", stderr)
	}
}

func TestExitUnknownChecker(t *testing.T) {
	_, stderr, code := runLint(t, "-checkers", "nosuchchecker", "-C", corpusDir(t), "./...")
	if code != 2 {
		t.Fatalf("exit = %d for an unknown checker, want 2\nstderr: %s", code, stderr)
	}
	// The error must teach: every known checker is listed.
	for _, name := range lint.Checkers() {
		if !strings.Contains(stderr, name) {
			t.Errorf("unknown-checker error does not list %q: %s", name, stderr)
		}
	}
}

func TestJSONShape(t *testing.T) {
	stdout, _, code := runLint(t, "-json", "-timing", "-C", corpusDir(t), "./...")
	if code != 1 {
		t.Fatalf("exit = %d, want 1", code)
	}
	var doc struct {
		Diagnostics []lint.Diagnostic    `json:"diagnostics"`
		Count       int                  `json:"count"`
		Timing      []lint.CheckerTiming `json:"timing"`
	}
	if err := json.Unmarshal([]byte(stdout), &doc); err != nil {
		t.Fatalf("decoding -json output: %v\n%s", err, stdout)
	}
	if doc.Count == 0 || doc.Count != len(doc.Diagnostics) {
		t.Errorf("count = %d with %d diagnostics", doc.Count, len(doc.Diagnostics))
	}
	for _, d := range doc.Diagnostics {
		if d.File == "" || d.Line == 0 || d.Checker == "" || d.Message == "" {
			t.Errorf("diagnostic with empty fields: %+v", d)
		}
	}
	var names []string
	for _, tm := range doc.Timing {
		names = append(names, tm.Checker)
	}
	if strings.Join(names, ",") != strings.Join(lint.Checkers(), ",") {
		t.Errorf("timing names = %v, want every checker in registry order %v", names, lint.Checkers())
	}
}

func TestCheckersSubsetFlag(t *testing.T) {
	stdout, _, code := runLint(t, "-checkers", "errdiscipline", "-json", "-C", corpusDir(t), "./...")
	if code != 1 {
		t.Fatalf("exit = %d, want 1", code)
	}
	var doc struct {
		Diagnostics []lint.Diagnostic `json:"diagnostics"`
	}
	if err := json.Unmarshal([]byte(stdout), &doc); err != nil {
		t.Fatalf("decoding -json output: %v", err)
	}
	for _, d := range doc.Diagnostics {
		if d.Checker != "errdiscipline" && d.Checker != "directive" {
			t.Errorf("checker %q ran despite -checkers errdiscipline: %s", d.Checker, d)
		}
	}
	if len(doc.Diagnostics) == 0 {
		t.Error("errdiscipline reported nothing on the corpus")
	}
}
