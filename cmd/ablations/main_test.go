package main

import (
	"bytes"
	"errors"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/quick.golden from the current command")

// build compiles the command into a temporary directory.
func build(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "ablations")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// An unknown study used to match no branch: the command printed nothing
// and exited 0. It must fail and name the studies it knows.
func TestUnknownStudyFails(t *testing.T) {
	out, err := exec.Command(build(t), "-which", "bogus").CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() == 0 {
		t.Fatalf("-which bogus: err = %v, want a non-zero exit\n%s", err, out)
	}
	for _, want := range []string{`"bogus"`, "oneport", "spidergon", "service", "mesh", "workload"} {
		if !strings.Contains(string(out), want) {
			t.Errorf("error does not mention %s:\n%s", want, out)
		}
	}
}

// TestQuickGolden pins every number the five studies print at quick
// effort: each is deterministic per seed, so a refactor of the sweep or
// the studies under it must leave the report byte for byte. Regenerate
// with go test -run TestQuickGolden ./cmd/ablations/ -update only for a
// deliberate change of what is measured.
func TestQuickGolden(t *testing.T) {
	got, err := exec.Command(build(t), "-quick").Output()
	if err != nil {
		t.Fatalf("ablations -quick: %v", err)
	}
	const path = "testdata/quick.golden"
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("ablations -quick output moved:\n got:\n%s\nwant:\n%s", got, want)
	}
}
