package noc

import (
	"bytes"
	"reflect"
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
//   - the parsed spec keeps no reference to the document: overwriting
//     the bytes it was parsed from changes nothing (checkParseKeepsNothing);
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
		checkParseKeepsNothing(t, data)
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
	`{"topology":"quarc","n":16,"pattern":"random","dests":5,"set_seed":61,"set_stream":1511,"alpha":0.05}`,
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
	`{"hotspot_frac":0.3,"hotspot_node":5}`,
	`{"n":16} trailing`,
	`{"wait":"magic","service":"wizard","evaluator":"oracle"}`,
	`{"replications":-1,"parallelism":-1}`,
	`{"trace_node":-5,"trace_limit":9999999999}`,
	`[1,2,3]`,
	`"quarc"`,
	`{`,
}

// checkParseKeepsNothing parses a private copy of data, overwrites every
// byte of the copy and checks that the spec, or the error, still equals
// a parse of data itself: ParseSpec keeps no reference to its input, so
// a caller may reuse the buffer, as quarcd's handler reuses pooled
// request bodies.
func checkParseKeepsNothing(t *testing.T, data []byte) {
	t.Helper()
	in := bytes.Clone(data)
	got, gotErr := ParseSpec(in)
	for i := range in {
		in[i] ^= 0xff
	}
	want, wantErr := ParseSpec(data)
	if (gotErr == nil) != (wantErr == nil) || gotErr != nil && gotErr.Error() != wantErr.Error() {
		t.Fatalf("%q: overwriting the parsed bytes changed the error: %v, want %v", data, gotErr, wantErr)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%q: overwriting the parsed bytes changed the spec:\n got  %#v\n want %#v", data, got, want)
	}
}

// TestParseSpecKeepsNothing runs checkParseKeepsNothing over documents
// whose values or rejections the decoder could have kept as slices of
// the input: escaped and non-ASCII strings, names outside the
// vocabulary, the record and replay paths, every list field, and
// rejected documents.
func TestParseSpecKeepsNothing(t *testing.T) {
	for _, doc := range []string{
		`{"topology":"qu\u0061rc","n":16,"pattern":"highlow","high":[1,3],"low":[2,5,7]}`,
		`{"topology":"mesh","w":4,"h":4,"pattern":"highlow","high":[1],"low":[2],"spatial":"hotspot","spatial_frac":0.5,"spatial_nodes":[3,9],"spatial_weights":[0.25,0.75]}`,
		`{"record":"runs/a.qwtr"}`,
		`{"replay":"runs/tr\u00e9ce \"b\".jsonl"}`,
		`{"Record":"café.qwtr","topology":"ring","router":"nope"}`,
		`{"spatial_weights":[1e-3,2.5E2,-0,7],"spatial_nodes":[]}`,
		`{"arrival":"onoff","burst_len":8,"duty_cycle":0.5,"wait":"eq3","service":"tail","evaluator":"model"}`,
		`null`,
		`{"topology":"qu\u0061rc","n":99999}`,
		`{"record":"a","replay":"b"}`,
		`{"spatial_nodes":[1,"x"]}`,
		`{"bogus\u00e9":1}`,
	} {
		checkParseKeepsNothing(t, []byte(doc))
	}
}
