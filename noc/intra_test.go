package noc

import (
	"reflect"
	"testing"
)

// intraBase is a mid-load scenario cheap enough for the matrix below.
func intraBase(t *testing.T, extra ...Option) *Scenario {
	t.Helper()
	opts := append([]Option{
		Quarc(16), LocalizedDests(PortL, 4),
		MsgLen(16), Rate(0.004), Alpha(0.05),
		Seed(21), Warmup(1000), Measure(8000),
	}, extra...)
	s, err := NewScenario(opts...)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestIntraParallelismBitwise pins the deprecated option as a no-op at
// the API boundary: for every p — and on both the stateless and the
// pooled simulator, under every arrival process and with metrics
// recording — the Result JSON is identical to having no option set.
func TestIntraParallelismBitwise(t *testing.T) {
	cases := []struct {
		name  string
		extra []Option
	}{
		{name: "poisson"},
		{name: "onoff", extra: []Option{OnOff(4, 0.5)}},
		{name: "bernoulli-falls-back", extra: []Option{Arrival("bernoulli")}},
		{name: "metrics-falls-back", extra: []Option{Metrics(50)}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			serial, err := (Simulator{}).Evaluate(intraBase(t, tc.extra...))
			if err != nil {
				t.Fatal(err)
			}
			want := resultJSON(t, serial)
			for _, p := range []int{2, 4, 8} {
				s := intraBase(t, append(tc.extra, IntraParallelism(p))...)
				got, err := (Simulator{}).Evaluate(s)
				if err != nil {
					t.Fatalf("p=%d: %v", p, err)
				}
				if gj := resultJSON(t, got); gj != want {
					t.Errorf("p=%d: parallel result diverges\n got %s\nwant %s", p, gj, want)
				}
				pooled := NewPooledSimulator()
				got2, err := pooled.Evaluate(s)
				if err != nil {
					t.Fatalf("p=%d pooled: %v", p, err)
				}
				if gj := resultJSON(t, got2); gj != want {
					t.Errorf("p=%d: pooled parallel result diverges\n got %s\nwant %s", p, gj, want)
				}
			}
		})
	}
}

// TestIntraParallelismSaturationRerun pins the no-op on a saturating
// scenario: under IntraParallelism it reports exactly the truncated
// saturated Result of a run without the option.
func TestIntraParallelismSaturationRerun(t *testing.T) {
	hot := []Option{Rate(0.05), SatQueue(20), Measure(20000)}
	serial, err := (Simulator{}).Evaluate(intraBase(t, hot...))
	if err != nil {
		t.Fatal(err)
	}
	if !serial.Saturated {
		t.Fatal("saturation scenario did not saturate serially")
	}
	got, err := (Simulator{}).Evaluate(intraBase(t, append(hot, IntraParallelism(4))...))
	if err != nil {
		t.Fatal(err)
	}
	if gj, want := resultJSON(t, got), resultJSON(t, serial); gj != want {
		t.Errorf("saturated parallel result diverges\n got %s\nwant %s", gj, want)
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
