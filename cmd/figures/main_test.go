package main

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the testdata goldens from the current command")

// build compiles the command into a temporary directory.
func build(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "figures")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// golden compares got with testdata/name, or rewrites the file under
// -update.
func golden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
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
		t.Errorf("%s moved:\n got:\n%s\nwant:\n%s", path, got, want)
	}
}

// TestGoldens pins the bytes of every output the command writes: the
// quick regeneration of all eight panels at four points (stdout with the
// output directory spelled DIR, and the SHA-256 of each CSV and of
// figures.json), the saturation study and the structural figures. Every
// number is deterministic per seed, so one that moves fails here.
// Regenerate with go test -run TestGoldens ./cmd/figures/ -update only
// for a deliberate change of what is measured.
func TestGoldens(t *testing.T) {
	bin := build(t)
	run := func(args ...string) []byte {
		t.Helper()
		out, err := exec.Command(bin, args...).Output()
		if err != nil {
			t.Fatalf("figures %v: %v", args, err)
		}
		return out
	}

	dir := t.TempDir()
	stdout := run("-quick", "-points", "4", "-out", dir)
	golden(t, "quick.golden", bytes.ReplaceAll(stdout, []byte(dir), []byte("DIR")))
	var sums bytes.Buffer
	for _, name := range []string{
		"fig6-a.csv", "fig6-b.csv", "fig6-c.csv", "fig6-d.csv",
		"fig7-a.csv", "fig7-b.csv", "fig7-c.csv", "fig7-d.csv",
		"figures.json",
	} {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&sums, "%x  %s\n", sha256.Sum256(data), name)
	}
	golden(t, "quick.sha256", sums.Bytes())

	golden(t, "sat.golden", run("-sat"))
	golden(t, "ascii.golden", run("-ascii"))
}
