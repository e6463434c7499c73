package noc

import (
	"fmt"
	"reflect"
	"testing"
)

// intraDoc is a mid-load spec document cheap enough for the matrix
// below, with extra fields spliced in.
func intraDoc(extra string) string {
	return `{"topology":"quarc","n":16,"pattern":"localized","port":0,"dests":4,` +
		`"msglen":16,"rate":0.004,"alpha":0.05,"seed":21,"warmup":1000,"measure":8000` + extra + `}`
}

// TestIntraParallelismBitwise pins the wire-only field as a no-op: for
// every p — and on both the stateless and the pooled simulator, under
// every arrival process and with metrics recording — a document with
// "intra_parallelism" gives the Result JSON of the same document
// without it.
func TestIntraParallelismBitwise(t *testing.T) {
	cases := []struct {
		name  string
		extra string
	}{
		{name: "poisson"},
		{name: "onoff", extra: `,"arrival":"onoff","burst_len":4,"duty_cycle":0.5`},
		{name: "bernoulli-falls-back", extra: `,"arrival":"bernoulli"`},
		{name: "metrics-falls-back", extra: `,"metrics":true,"metrics_buckets":50`},
	}
	compile := func(t *testing.T, doc string) *Scenario {
		t.Helper()
		sp, err := ParseSpec([]byte(doc))
		if err != nil {
			t.Fatal(err)
		}
		s, err := sp.Scenario()
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			serial, err := (Simulator{}).Evaluate(compile(t, intraDoc(tc.extra)))
			if err != nil {
				t.Fatal(err)
			}
			want := resultJSON(t, serial)
			for _, p := range []int{2, 4, 8} {
				s := compile(t, intraDoc(fmt.Sprintf(`%s,"intra_parallelism":%d`, tc.extra, p)))
				got, err := (Simulator{}).Evaluate(s)
				if err != nil {
					t.Fatalf("p=%d: %v", p, err)
				}
				if gj := resultJSON(t, got); gj != want {
					t.Errorf("p=%d: result diverges\n got %s\nwant %s", p, gj, want)
				}
				got2, err := NewPooledSimulator().Evaluate(s)
				if err != nil {
					t.Fatalf("p=%d pooled: %v", p, err)
				}
				if gj := resultJSON(t, got2); gj != want {
					t.Errorf("p=%d: pooled result diverges\n got %s\nwant %s", p, gj, want)
				}
			}
		})
	}
}

// TestIntraParallelismSpec pins the wire-compatible surface: the JSON
// field still parses and is range-checked, canonicalizes to zero, leaves
// the Fingerprint unperturbed, and still reaches the compiled scenario's
// configuration, where nothing reads it.
func TestIntraParallelismSpec(t *testing.T) {
	sp, err := ParseSpec([]byte(`{"intra_parallelism": 4, "rate": 0.004}`))
	if err != nil {
		t.Fatal(err)
	}
	if sp.IntraParallelism != 4 {
		t.Fatalf("parsed intra_parallelism %d, want 4", sp.IntraParallelism)
	}
	if c := sp.Canonical(); c.IntraParallelism != 0 {
		t.Errorf("canonical form keeps intra_parallelism %d", c.IntraParallelism)
	}
	plain := sp
	plain.IntraParallelism = 0
	if sp.Fingerprint() != plain.Fingerprint() {
		t.Error("intra_parallelism perturbs the spec fingerprint")
	}
	s, err := sp.Scenario()
	if err != nil {
		t.Fatal(err)
	}
	if s.cfg.IntraParallelism != 4 {
		t.Errorf("compiled scenario has intraParallelism %d, want 4", s.cfg.IntraParallelism)
	}
	// The inverse direction canonicalizes it away, like Parallelism.
	if got := s.Spec(); got.IntraParallelism != 0 {
		t.Errorf("Scenario.Spec() reports intra_parallelism %d", got.IntraParallelism)
	}
	if !reflect.DeepEqual(s.Spec(), plain.Canonical()) {
		t.Errorf("spec round-trip diverges: %+v vs %+v", s.Spec(), plain.Canonical())
	}
	if _, err := ParseSpec([]byte(`{"intra_parallelism": -1}`)); err == nil {
		t.Error("negative intra_parallelism accepted")
	}
}
