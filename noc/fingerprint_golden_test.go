package noc

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateFingerprints = flag.Bool("update", false, "rewrite testdata/fingerprints.golden from the current codec")

// ciSmokeSpecs are the two documents the CI "smoke evaluate" step posts
// to quarcd and hands to quarcsim -spec.
var ciSmokeSpecs = []string{
	`{"topology":"quarc","n":16,"msglen":32,"rate":0.002,"alpha":0.05,"pattern":"localized","dests":4,"seed":42,"warmup":2000,"measure":20000}`,
	`{"topology":"quarc","n":16,"msglen":32,"rate":0.002,"alpha":0.05,"pattern":"localized","dests":4,"seed":42,"warmup":2000,"measure":20000,"evaluator":"model"}`,
}

// fingerprintLines renders one line per pinned document: its %016x
// Fingerprint (of the spec as decoded, before Validate) and its name, or
// "rejected" when the document does not decode.
func fingerprintLines(t *testing.T) string {
	t.Helper()
	type doc struct{ name, text string }
	var docs []doc
	files, err := filepath.Glob(filepath.Join("testdata", "fuzz", "FuzzSpecJSON", "*"))
	if err != nil {
		t.Fatal(err)
	}
	for i, text := range specCorpus(t, "FuzzSpecJSON") {
		docs = append(docs, doc{"corpus/" + filepath.Base(files[i]), text})
	}
	for i, text := range ciSmokeSpecs {
		docs = append(docs, doc{fmt.Sprintf("ci-smoke/%d", i), text})
	}
	for i, text := range serveHotShapes {
		docs = append(docs, doc{fmt.Sprintf("serve-shape/%d", i), text})
	}
	var b strings.Builder
	for _, d := range docs {
		var sp Spec
		if err := sp.decodeJSON([]byte(d.text)); err != nil {
			fmt.Fprintf(&b, "rejected %s\n", d.name)
			continue
		}
		fmt.Fprintf(&b, "%016x %s\n", sp.Fingerprint(), d.name)
	}
	return b.String()
}

// TestFingerprintGolden pins absolute content addresses: the fingerprint
// of every FuzzSpecJSON corpus document, of the CI smoke specs and of the
// eight serve-workload shapes. Every other fingerprint test compares two
// values computed by the same code; this one catches a codec or
// Canonical change that moves every address at once (and with it every
// quarcd store key). Regenerate with go test -run TestFingerprintGolden
// ./noc/ -update only for a deliberate change of the content address.
func TestFingerprintGolden(t *testing.T) {
	const path = "testdata/fingerprints.golden"
	got := fingerprintLines(t)
	if *updateFingerprints {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("content addresses moved:\n got\n%s\nwant\n%s", got, want)
	}
}
