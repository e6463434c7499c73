package main

import (
	"errors"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// An unknown study used to match no branch: the command printed nothing
// and exited 0. It must fail and name the studies it knows.
func TestUnknownStudyFails(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "ablations")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	out, err := exec.Command(bin, "-which", "bogus").CombinedOutput()
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
