package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"quarc/noc"
)

// buildQuarcsim compiles this command into a fresh temporary directory
// and returns the binary's path.
func buildQuarcsim(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "quarcsim")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// TestFlagsMatchSpec pins quarcsim's one input path: the flags fill the
// same Spec a -spec document decodes into, so each flag set and its
// document print the same bytes — the Result JSON, the human-readable
// report (with -compare where the flags have it; -compare is allowed with
// -spec), and a recording's trace file. A trace file is not spec content:
// the document runs carry -record or -replay beside -spec. A -record
// report names its own trace file, so only its JSON and trace bytes are
// compared; the replay case replays the flags' recording.
func TestFlagsMatchSpec(t *testing.T) {
	bin := buildQuarcsim(t)
	dir := t.TempDir()
	run := func(t *testing.T, args ...string) []byte {
		t.Helper()
		cmd := exec.Command(bin, args...)
		cmd.Dir = dir
		out, err := cmd.Output()
		if err != nil {
			t.Fatalf("quarcsim %v: %v", args, err)
		}
		return out
	}
	same := func(t *testing.T, what string, a, b []byte) {
		t.Helper()
		if !bytes.Equal(a, b) {
			t.Errorf("%s differs:\nflags:\n%s\n-spec:\n%s", what, a, b)
		}
	}

	const (
		base   = `"topology":"quarc","n":16,"msglen":32,"rate":0.001,"alpha":0.05,"seed":42,"warmup":20000,"measure":200000`
		local4 = `"pattern":"localized","dests":4`
	)
	for _, c := range []struct {
		name     string
		doc      string
		flags    []string
		docFlags []string // beside -spec
	}{
		{"defaults", local4, nil, nil},
		{"random set", `"pattern":"random","dests":8,"set_seed":1`, []string{"-random", "-dests", "8", "-compare"}, nil},
		{"onoff transpose", local4 + `,"arrival":"onoff","burst_len":8,"duty_cycle":0.5,"spatial":"transpose"`, []string{"-arrival", "onoff", "-perm", "transpose"}, nil},
		{"detail trace", local4 + `,"detail":true,"trace_node":3,"trace_limit":60`, []string{"-detail", "-trace", "3"}, nil},
		{"record", local4, []string{"-record", "flags.qwtr"}, []string{"-record", "doc.qwtr"}},
		{"replay", local4, []string{"-replay", "flags.qwtr"}, []string{"-replay", "flags.qwtr"}},
	} {
		t.Run(c.name, func(t *testing.T) {
			spec := filepath.Join(dir, "flags.spec.json")
			if err := os.WriteFile(spec, []byte("{"+base+","+c.doc+"}\n"), 0o644); err != nil {
				t.Fatal(err)
			}
			docArgs := append([]string{"-spec", spec}, c.docFlags...)
			same(t, "-json", run(t, append(slices.Clone(c.flags), "-json")...), run(t, append(slices.Clone(docArgs), "-json")...))
			if slices.Contains(c.flags, "-record") {
				flags, err := os.ReadFile(filepath.Join(dir, "flags.qwtr"))
				if err != nil {
					t.Fatal(err)
				}
				doc, err := os.ReadFile(filepath.Join(dir, "doc.qwtr"))
				if err != nil {
					t.Fatal(err)
				}
				same(t, "the recorded trace", flags, doc)
				return
			}
			if slices.Contains(c.flags, "-compare") {
				docArgs = append(docArgs, "-compare")
			}
			same(t, "the report", run(t, c.flags...), run(t, docArgs...))
		})
	}
}

// TestRecordLeavesNoFileOnFailure pins that a -record run which records
// nothing exits 1 and leaves no file at the -record path: beside -replay
// and with replications (both refused before anything runs), and with a
// spec that names the model evaluator (refused before the model runs).
func TestRecordLeavesNoFileOnFailure(t *testing.T) {
	bin := buildQuarcsim(t)
	dir := t.TempDir()
	doc := func(name, spec string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(spec+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	const small = `"n":16,"rate":0.002,"warmup":500,"measure":5000`
	// A trace that -replay reads, so that only the conflict fails.
	if out, err := exec.Command(bin, "-spec", doc("plain.json", "{"+small+"}"), "-record", filepath.Join(dir, "b.qwtr")).CombinedOutput(); err != nil {
		t.Fatalf("recording b.qwtr: %v\n%s", err, out)
	}
	for _, c := range []struct {
		name string
		args []string
		says string // part of the error message
	}{
		{"record with replay", []string{"-n", "16", "-replay", filepath.Join(dir, "b.qwtr")}, "cannot both record and replay"},
		{"record with replications", []string{"-spec", doc("reps.json", "{"+small+`,"replications":3}`)}, "one replication"},
		{"record with the model evaluator", []string{"-spec", doc("model.json", "{"+small+`,"evaluator":"model"}`)}, "model evaluator"},
	} {
		t.Run(c.name, func(t *testing.T) {
			rec := filepath.Join(dir, "a.qwtr")
			out, err := exec.Command(bin, append(c.args, "-record", rec)...).CombinedOutput()
			var exit *exec.ExitError
			if !errors.As(err, &exit) || exit.ExitCode() != 1 {
				t.Fatalf("exit %v, want status 1:\n%s", err, out)
			}
			if !strings.Contains(string(out), c.says) {
				t.Errorf("output %q does not say %q", out, c.says)
			}
			if _, err := os.Stat(rec); !errors.Is(err, fs.ErrNotExist) {
				t.Errorf("the -record path exists after the failed run (stat: %v)", err)
			}
		})
	}
}

// TestCompareDetailPrintsBranches pins the model half of the -compare
// -detail report: after the model line come the fixed point and a
// "branches from node 0:" table with one line per entry of the model
// Result's branches, each stating that entry's port, hops, targets and
// path wait. The expected entries come from the model Result of the same
// scenario (a "evaluator":"model","detail":true document under -json),
// so the report cannot drift from the Result.
func TestCompareDetailPrintsBranches(t *testing.T) {
	bin := buildQuarcsim(t)
	dir := t.TempDir()
	doc := filepath.Join(dir, "model.json")
	const spec = `{"topology":"quarc","n":16,"msglen":32,"rate":0.002,"alpha":0.05,"pattern":"random","dests":6,"set_seed":1,"detail":true,"evaluator":"model"}`
	if err := os.WriteFile(doc, []byte(spec+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := exec.Command(bin, "-spec", doc, "-json").Output()
	if err != nil {
		t.Fatalf("quarcsim -spec -json: %v", err)
	}
	var model noc.Result
	if err := json.Unmarshal(out, &model); err != nil {
		t.Fatal(err)
	}
	if len(model.Branches) < 2 {
		t.Fatalf("the model Result has %d branches, want several: %s", len(model.Branches), out)
	}

	report, err := exec.Command(bin, "-n", "16", "-msg", "32", "-rate", "0.002", "-alpha", "0.05",
		"-dests", "6", "-random", "-warmup", "500", "-measure", "5000", "-compare", "-detail").Output()
	if err != nil {
		t.Fatalf("quarcsim -compare -detail: %v", err)
	}
	lines := strings.Split(string(report), "\n")
	at := slices.Index(lines, "branches from node 0:")
	if at < 1 {
		t.Fatalf("the report has no branch table:\n%s", report)
	}
	want := []string{fmt.Sprintf("fixed point:   iterations=%d converged=%v max channel utilization=%.4f",
		model.Iterations, model.Converged, model.MaxRho), lines[at]}
	for _, b := range model.Branches {
		want = append(want, fmt.Sprintf("  port %-2s  hops=%-3d targets=%v  expected path wait=%.3f cycles",
			b.PortName, b.Hops, b.Targets, b.Wait))
	}
	want = append(want, "") // the table ends the report
	if got := lines[at-1:]; !slices.Equal(got, want) {
		t.Errorf("the branch report differs from the model Result:\n got: %q\nwant: %q", got, want)
	}
}
