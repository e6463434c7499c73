package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"testing"
)

// TestFlagsMatchSpec pins quarcsim's one input path: the flags fill the
// same Spec a -spec document decodes into, so each flag set and its
// document print the same bytes — the Result JSON, the human-readable
// report (with -compare where the flags have it; -compare is allowed with
// -spec), and a recording's trace file. A -record report names its own
// trace file, so only its JSON and trace bytes are compared; the replay
// case replays the flags' recording.
func TestFlagsMatchSpec(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "quarcsim")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
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
		name  string
		doc   string
		flags []string
	}{
		{"defaults", local4, nil},
		{"random set", `"pattern":"random","dests":8,"set_seed":1`, []string{"-random", "-dests", "8", "-compare"}},
		{"onoff transpose", local4 + `,"arrival":"onoff","burst_len":8,"duty_cycle":0.5,"spatial":"transpose"`, []string{"-arrival", "onoff", "-perm", "transpose"}},
		{"detail trace", local4 + `,"detail":true,"trace_node":3,"trace_limit":60`, []string{"-detail", "-trace", "3"}},
		{"record", local4 + `,"record":"doc.qwtr"`, []string{"-record", "flags.qwtr"}},
		{"replay", local4 + `,"replay":"flags.qwtr"`, []string{"-replay", "flags.qwtr"}},
	} {
		t.Run(c.name, func(t *testing.T) {
			spec := filepath.Join(dir, "flags.spec.json")
			if err := os.WriteFile(spec, []byte("{"+base+","+c.doc+"}\n"), 0o644); err != nil {
				t.Fatal(err)
			}
			same(t, "-json", run(t, append(slices.Clone(c.flags), "-json")...), run(t, "-spec", spec, "-json"))
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
			docArgs := []string{"-spec", spec}
			if slices.Contains(c.flags, "-compare") {
				docArgs = append(docArgs, "-compare")
			}
			same(t, "the report", run(t, c.flags...), run(t, docArgs...))
		})
	}
}
