package noc

import (
	"testing"
)

// FuzzSpecJSON throws hostile documents at the declarative codec. The
// contract under fuzzing:
//
//   - ParseSpec never panics and never lets an unbounded value through
//     (huge sizes, non-finite numbers, unknown fields, trailing data,
//     conflicting record+replay all return errors);
//   - a spec that parses always fingerprints, and its canonical encoding
//     reparses to the same fingerprint (the content address is a fixed
//     point);
//   - compiling a parsed spec to a Scenario may fail (unknown registry
//     names, sizes the topology refuses) but never panics.
//
// The seed corpus under testdata/fuzz/FuzzSpecJSON pins one document per
// hostile class.
func FuzzSpecJSON(f *testing.F) {
	for _, s := range specFuzzSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		sp, err := ParseSpec(data)
		if err != nil {
			return // rejected is always acceptable; panicking is not
		}
		fp := sp.Fingerprint()
		cj, err := sp.CanonicalJSON()
		if err != nil {
			t.Fatalf("parsed spec failed to encode: %v", err)
		}
		back, err := ParseSpec(cj)
		if err != nil {
			t.Fatalf("canonical encoding %s failed to reparse: %v", cj, err)
		}
		if got := back.Fingerprint(); got != fp {
			t.Fatalf("fingerprint not preserved across canonical round-trip: %016x != %016x (%s)", got, fp, cj)
		}
		if sp.Record != "" || sp.Replay != "" {
			return // trace specs touch the filesystem; compile-checked elsewhere
		}
		// Compilation must not panic. Bound the per-execution cost: the
		// codec's own limit is 4096 nodes, which is safe but slow to
		// build thousands of times per second.
		if nodes := max(sp.N, sp.W*sp.H, 1<<min(sp.Dims, 12)); nodes > 512 {
			return
		}
		if s, err := sp.Scenario(); err == nil && s == nil {
			t.Fatal("nil scenario without error")
		}
	})
}

// specFuzzSeeds are FuzzSpecJSON's inline seeds, one document per
// hostile class; FuzzSpecCodecMatchesJSON starts from them too.
var specFuzzSeeds = []string{
	`{}`,
	`{"topology":"quarc","n":16,"rate":0.002,"alpha":0.05,"pattern":"localized","dests":4}`,
	`{"topology":"mesh","w":4,"h":4,"pattern":"highlow","high":[1,3],"low":[2],"arrival":"onoff","burst_len":8,"duty_cycle":0.5}`,
	`{"n":1000000000}`,
	`{"topology":"mesh","w":100000,"h":100000}`,
	`{"topology":"hypercube","dims":64}`,
	`{"rate":1e308,"alpha":2}`,
	`{"rate":-1}`,
	`{"warmup":-5,"measure":0}`,
	`{"record":"a.trace","replay":"b.trace"}`,
	`{"topology":"ring","n":16}`,
	`{"arrival":"bursty"}`,
	`{"spatial":"swirl","spatial_frac":-3}`,
	`{"unknown_field":1}`,
	`{"n":16} trailing`,
	`{"wait":"magic","service":"wizard","evaluator":"oracle"}`,
	`{"replications":-1,"parallelism":-1}`,
	`{"trace_node":-5,"trace_limit":9999999999}`,
	`[1,2,3]`,
	`"quarc"`,
	`{`,
}
