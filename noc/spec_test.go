package noc

import (
	"encoding/json"
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"
)

// resultJSON renders a Result for bitwise comparison: equal float64s
// (including the NaN->null cases) encode to equal bytes, and any bit
// difference in any field changes the encoding.
func resultJSON(t *testing.T, r Result) string {
	t.Helper()
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestSpecMatchesOptions is the cross-construction property test for the
// options the benchmark harness still sets one at a time: over a matrix
// of builtin topology x arrival x spatial, a Spec-built scenario and its
// twin — the Spec without those fields, forked With the options — must
// produce bitwise-identical Results from the simulator (and from the
// model where it applies).
func TestSpecMatchesOptions(t *testing.T) {
	type topoCase struct {
		name string
		base Spec // what the options do not state
		opts []Option
		sp   Spec
	}
	topos := []topoCase{
		{
			name: "quarc16-localized",
			opts: []Option{Quarc(16), LocalizedDests(PortL, 4)},
			sp:   Spec{Topology: "quarc", N: 16, Pattern: "localized", Port: PortL, Dests: 4},
		},
		{
			name: "mesh4x4-highlow",
			base: Spec{Topology: "mesh", W: 4, H: 4, Pattern: "highlow", High: []int{1, 3}, Low: []int{2}},
			sp:   Spec{Topology: "mesh", W: 4, H: 4, Pattern: "highlow", High: []int{1, 3}, Low: []int{2}},
		},
	}
	arrivals := []struct {
		name string
		mod  func(*Spec)
	}{
		{name: "poisson", mod: func(*Spec) {}},
		{name: "onoff", mod: func(sp *Spec) { sp.Arrival = "onoff"; sp.BurstLen = 4; sp.DutyCycle = 0.5 }},
		{name: "periodic", mod: func(sp *Spec) { sp.Arrival = "periodic" }},
	}
	spatials := []struct {
		name string
		mod  func(*Spec)
	}{
		{name: "uniform", mod: func(*Spec) {}},
		{name: "transpose", mod: func(sp *Spec) { sp.Spatial = "transpose" }},
		{name: "tornado", mod: func(sp *Spec) { sp.Spatial = "tornado" }},
	}

	common := []Option{MsgLen(16), Rate(0.004), Alpha(0.05), Seed(9), Warmup(1000), Measure(8000)}
	for _, tc := range topos {
		for _, ac := range arrivals {
			for _, sc := range spatials {
				t.Run(tc.name+"/"+ac.name+"/"+sc.name, func(t *testing.T) {
					base := tc.base
					ac.mod(&base)
					sc.mod(&base)
					byOpts, err := base.Scenario()
					if err != nil {
						t.Fatal(err)
					}
					if byOpts, err = byOpts.With(append(append([]Option{}, tc.opts...), common...)...); err != nil {
						t.Fatal(err)
					}
					sp := tc.sp
					sp.MsgLen, sp.Rate, sp.Alpha = 16, 0.004, 0.05
					sp.Seed, sp.Warmup, sp.Measure = 9, 1000, 8000
					ac.mod(&sp)
					sc.mod(&sp)
					bySpec, err := sp.Scenario()
					if err != nil {
						t.Fatal(err)
					}

					simOpt, err := Simulator{}.Evaluate(byOpts)
					if err != nil {
						t.Fatal(err)
					}
					simSpec, err := Simulator{}.Evaluate(bySpec)
					if err != nil {
						t.Fatal(err)
					}
					if got, want := resultJSON(t, simSpec), resultJSON(t, simOpt); got != want {
						t.Errorf("simulator results differ:\n spec: %s\n opts: %s", got, want)
					}

					if ac.name == "poisson" {
						modOpt, err := Model{}.Evaluate(byOpts)
						if err != nil {
							t.Fatal(err)
						}
						modSpec, err := Model{}.Evaluate(bySpec)
						if err != nil {
							t.Fatal(err)
						}
						if got, want := resultJSON(t, modSpec), resultJSON(t, modOpt); got != want {
							t.Errorf("model results differ:\n spec: %s\n opts: %s", got, want)
						}
					}

					// The declarative form must also survive Scenario.Spec:
					// re-deriving the spec from either scenario and
					// canonicalizing lands on one fingerprint.
					if got, want := byOpts.Spec().Fingerprint(), bySpec.Spec().Fingerprint(); got != want {
						t.Errorf("scenario fingerprints differ: options %016x != spec %016x", got, want)
					}
				})
			}
		}
	}
}

// TestSpecRoundTrip pins the codec: Spec -> JSON -> ParseSpec preserves
// the fingerprint, and the canonical encoding is a fixed point.
func TestSpecRoundTrip(t *testing.T) {
	specs := []Spec{
		{},
		{Topology: "quarc", N: 16, Rate: 0.002, Alpha: 0.05, Pattern: "localized", Dests: 4},
		{Topology: "mesh", W: 4, H: 4, Pattern: "highlow", High: []int{1}, Low: []int{2}, Arrival: "onoff", BurstLen: 8, DutyCycle: 0.25},
		{Topology: "spidergon", N: 16, Pattern: "random", Dests: 3, SetSeed: 7, Spatial: "hotspot", SpatialFrac: 0.3, SpatialNodes: []int{0, 5}},
		{Topology: "hypercube", Dims: 4, Wait: "eq3", Service: "tail", Replications: 4, Detail: true},
	}
	for i, sp := range specs {
		data, err := json.Marshal(sp)
		if err != nil {
			t.Fatalf("spec %d: %v", i, err)
		}
		back, err := ParseSpec(data)
		if err != nil {
			t.Fatalf("spec %d: reparse: %v", i, err)
		}
		if got, want := back.Fingerprint(), sp.Fingerprint(); got != want {
			t.Errorf("spec %d: fingerprint %016x != %016x after JSON round-trip", i, got, want)
		}
		cj, err := sp.CanonicalJSON()
		if err != nil {
			t.Fatalf("spec %d: %v", i, err)
		}
		canon, err := ParseSpec(cj)
		if err != nil {
			t.Fatalf("spec %d: reparse canonical: %v", i, err)
		}
		cj2, err := canon.CanonicalJSON()
		if err != nil {
			t.Fatalf("spec %d: %v", i, err)
		}
		if string(cj) != string(cj2) {
			t.Errorf("spec %d: canonical encoding is not a fixed point:\n %s\n %s", i, cj, cj2)
		}
	}

	// Scenario -> Spec -> Scenario: a traced scenario reports its trace
	// knobs and resolves back to the same run.
	traced, err := Spec{N: 16, Rate: 0.003, Warmup: 500, Measure: 5000, TraceNode: 2, TraceLimit: 10000}.Scenario()
	if err != nil {
		t.Fatal(err)
	}
	sp := traced.Spec()
	if sp.TraceNode != 2 || sp.TraceLimit != 10000 {
		t.Errorf("traced scenario reports trace_node %d, trace_limit %d; want 2, 10000", sp.TraceNode, sp.TraceLimit)
	}
	back, err := sp.Scenario()
	if err != nil {
		t.Fatal(err)
	}
	want, err := Simulator{}.Evaluate(traced)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Simulator{}.Evaluate(back)
	if err != nil {
		t.Fatal(err)
	}
	if want.TraceText == "" || resultJSON(t, got) != resultJSON(t, want) {
		t.Errorf("the trace does not survive Spec(): %d trace bytes before, %d after", len(want.TraceText), len(got.TraceText))
	}
}

// TestSpecCanonicalization pins the content-addressing rules: spellings
// that describe the same scenario share a fingerprint, and fields the
// chosen registries do not read are cleared.
func TestSpecCanonicalization(t *testing.T) {
	base := Spec{Topology: "quarc", N: 16, Rate: 0.002}
	cases := []struct {
		name string
		sp   Spec
		same bool
	}{
		{"explicit defaults", Spec{Topology: "quarc", N: 16, Rate: 0.002, MsgLen: 32, Arrival: "poisson", Spatial: "uniform", Pattern: "none", Seed: 1, Warmup: 10000, Measure: 100000, Wait: "pk", Service: "eq6", Evaluator: "simulator", Router: "quarc"}, true},
		{"parallelism is not content", Spec{Topology: "quarc", N: 16, Rate: 0.002, Parallelism: 8}, true},
		{"one replication is the single-run path", Spec{Topology: "quarc", N: 16, Rate: 0.002, Replications: 1}, true},
		{"onoff knobs cleared under poisson", Spec{Topology: "quarc", N: 16, Rate: 0.002, BurstLen: 9, DutyCycle: 0.5}, true},
		{"pattern params cleared under none", Spec{Topology: "quarc", N: 16, Rate: 0.002, Dests: 4, Port: 2, SetSeed: 5}, true},
		{"unread size fields cleared", Spec{Topology: "quarc", N: 16, Rate: 0.002, W: 9, H: 3, Dims: 5}, true},
		{"ring default size filled", Spec{Topology: "quarc", Rate: 0.002}, true},
		{"different rate", Spec{Topology: "quarc", N: 16, Rate: 0.003}, false},
		{"different seed", Spec{Topology: "quarc", N: 16, Rate: 0.002, Seed: 2}, false},
		{"model evaluator", Spec{Topology: "quarc", N: 16, Rate: 0.002, Evaluator: "model"}, false},
		{"two replications", Spec{Topology: "quarc", N: 16, Rate: 0.002, Replications: 2}, false},
	}
	for _, tc := range cases {
		if got := tc.sp.Fingerprint() == base.Fingerprint(); got != tc.same {
			t.Errorf("%s: fingerprint match = %v, want %v", tc.name, got, tc.same)
		}
	}

	// The default spec and NewScenario() agree exactly.
	s, err := NewScenario()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := s.Spec(), (Spec{}).Canonical(); !reflect.DeepEqual(got, want) {
		t.Errorf("NewScenario().Spec() = %+v, want %+v", got, want)
	}
}

// TestScenarioWithSharesStructure pins the serving fast path: compiling
// a spec against a structurally identical base must share the base's
// routed topology and still produce a bitwise-identical Result.
func TestScenarioWithSharesStructure(t *testing.T) {
	sp := Spec{Topology: "quarc", N: 16, Pattern: "localized", Dests: 4,
		Rate: 0.002, Alpha: 0.05, MsgLen: 16, Seed: 5, Warmup: 1000, Measure: 8000}
	base, err := sp.Structural().Scenario()
	if err != nil {
		t.Fatal(err)
	}
	fast, err := sp.ScenarioWith(base)
	if err != nil {
		t.Fatal(err)
	}
	if fast.router != base.router {
		t.Error("ScenarioWith did not share the base router")
	}
	// Naming the topology's router explicitly is the same structure.
	named := sp
	named.Router = "quarc"
	if fork, err := named.ScenarioWith(base); err != nil {
		t.Fatal(err)
	} else if fork.router != base.router {
		t.Error("ScenarioWith rebuilt the routed topology for an explicit default router")
	}
	cold, err := sp.Scenario()
	if err != nil {
		t.Fatal(err)
	}
	rFast, err := Simulator{}.Evaluate(fast)
	if err != nil {
		t.Fatal(err)
	}
	rCold, err := Simulator{}.Evaluate(cold)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := resultJSON(t, rFast), resultJSON(t, rCold); got != want {
		t.Errorf("pooled-base result differs from cold build:\n fast: %s\n cold: %s", got, want)
	}

	// A structurally different base is refused, not silently misused.
	other, err := (Spec{Topology: "mesh", W: 4, H: 4}).Structural().Scenario()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sp.ScenarioWith(other); err == nil {
		t.Error("ScenarioWith accepted a structurally different base")
	}

	// With shares on the same predicate: naming a default explicitly is
	// not a structural change, and ScenarioWith agrees.
	plain, err := NewScenario(Quarc(16), LocalizedDests(PortL, 4))
	if err != nil {
		t.Fatal(err)
	}
	if fork, err := plain.With(Quarc(16), Rate(0.002)); err != nil {
		t.Fatal(err)
	} else if fork.router != plain.router {
		t.Error("With(Quarc(16)) rebuilt the routed topology")
	}
	for name, sp := range map[string]Spec{
		"arrival poisson": {Pattern: "localized", Dests: 4, Arrival: "poisson", Rate: 0.002},
		"spatial uniform": {Pattern: "localized", Dests: 4, Spatial: "uniform", Rate: 0.002},
	} {
		fork, err := sp.ScenarioWith(plain)
		if err != nil {
			t.Fatal(err)
		}
		if fork.router != plain.router {
			t.Errorf("%s rebuilt the routed topology", name)
		}
	}
	if fork, err := plain.With(Quarc(32)); err != nil {
		t.Fatal(err)
	} else if fork.router == plain.router || fork.Nodes() != 32 {
		t.Errorf("With(Quarc(32)) kept the 16-node router (%d nodes)", fork.Nodes())
	}
}

// TestScenarioWithAllocBound pins the per-request compile cost of the
// serving path and the per-operation fork of the sim workloads: neither
// re-encodes or re-canonicalizes anything through the heap.
func TestScenarioWithAllocBound(t *testing.T) {
	sp := Spec{Topology: "quarc", N: 64, Pattern: "localized", Dests: 8,
		Rate: 0.0005, Alpha: 0.05, Seed: 7, Warmup: 1000, Measure: 8000}
	base, err := sp.Structural().Scenario()
	if err != nil {
		t.Fatal(err)
	}
	if got := testing.AllocsPerRun(100, func() {
		if _, err := sp.ScenarioWith(base); err != nil {
			t.Fatal(err)
		}
	}); got > 4 {
		t.Errorf("Spec.ScenarioWith: %v allocs, want <= 4", got)
	}
	if got := testing.AllocsPerRun(100, func() {
		if _, err := base.With(Rate(0.0004)); err != nil {
			t.Fatal(err)
		}
	}); got > 2 {
		t.Errorf("Scenario.With(Rate): %v allocs, want <= 2", got)
	}
}

// TestStructuralPredicateMatchesStructural keeps the two definitions of
// "structural" in step: perturbing a Spec field flips sameStructure
// exactly when it changes Structural().
func TestStructuralPredicateMatchesStructural(t *testing.T) {
	base := config{Spec: Spec{}.Canonical()}
	rt := reflect.TypeOf(base.Spec)
	for i := 0; i < rt.NumField(); i++ {
		mod := base
		switch f := reflect.ValueOf(&mod.Spec).Elem().Field(i); f.Kind() {
		case reflect.String:
			f.SetString("x")
		case reflect.Int, reflect.Uint64:
			f.Set(reflect.ValueOf(7).Convert(f.Type()))
		case reflect.Float64:
			f.SetFloat(0.5)
		case reflect.Bool:
			f.SetBool(true)
		case reflect.Slice:
			f.Set(reflect.MakeSlice(f.Type(), 1, 1))
		default:
			t.Fatalf("field %s: unhandled kind %s", rt.Field(i).Name, f.Kind())
		}
		// Compare the sub-specs as picked, without Structural's
		// re-canonicalization clearing the perturbed field again.
		structural := !reflect.DeepEqual(pickStructural(mod.Spec), pickStructural(base.Spec))
		if got := !sameStructure(&mod, &base); got != structural {
			t.Errorf("field %s: sameStructure sees a change = %v, Structural = %v", rt.Field(i).Name, got, structural)
		}
	}
}

// TestSpecValidateRejects pins the hostile-input bounds.
func TestSpecValidateRejects(t *testing.T) {
	cases := []struct {
		name string
		sp   Spec
	}{
		{"huge n", Spec{N: 1 << 20}},
		{"negative n", Spec{N: -1}},
		{"huge mesh", Spec{Topology: "mesh", W: 4096, H: 4096}},
		{"huge dims", Spec{Topology: "hypercube", Dims: 40}},
		{"nan rate", Spec{Rate: math.NaN()}},
		{"inf rate", Spec{Rate: math.Inf(1)}},
		{"negative rate", Spec{Rate: -0.5}},
		{"alpha above one", Spec{Alpha: 1.5}},
		{"nan warmup", Spec{Warmup: math.NaN()}},
		{"huge measure", Spec{Measure: 1e18}},
		{"negative duty", Spec{Arrival: "onoff", BurstLen: 2, DutyCycle: -1}},
		{"bad wait", Spec{Wait: "magic"}},
		{"bad service", Spec{Service: "magic"}},
		{"bad evaluator", Spec{Evaluator: "oracle"}},
		{"huge replications", Spec{Replications: 1 << 20}},
		{"negative replications", Spec{Replications: -2}},
		{"record and replay", Spec{Record: "a", Replay: "b"}},
	}
	for _, tc := range cases {
		err := tc.sp.Validate()
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if !errors.Is(err, ErrInvalidSpec) && !errors.Is(err, ErrOptionConflict) {
			t.Errorf("%s: error %v is not ErrInvalidSpec/ErrOptionConflict", tc.name, err)
		}
	}
}

// TestParseSpecStrict pins the wire-format strictness: unknown fields
// and trailing garbage are rejected.
func TestParseSpecStrict(t *testing.T) {
	if _, err := ParseSpec([]byte(`{"topology":"quarc","n":16,"bogus":1}`)); err == nil {
		t.Error("unknown field accepted")
	} else if !errors.Is(err, ErrInvalidSpec) {
		t.Errorf("unknown field error %v is not ErrInvalidSpec", err)
	}
	if _, err := ParseSpec([]byte(`{"n":16} {"n":8}`)); err == nil {
		t.Error("trailing document accepted")
	}
	if _, err := ParseSpec([]byte(`{`)); err == nil {
		t.Error("truncated document accepted")
	}
	sp, err := ParseSpec([]byte(`{"topology":"quarc","n":16,"rate":0.002}`))
	if err != nil {
		t.Fatal(err)
	}
	if sp.N != 16 || sp.Rate != 0.002 {
		t.Errorf("parsed spec = %+v", sp)
	}
}

// TestSpecScenarioRejectsUnknownNames ensures registry names are
// resolved (and refused) at compile time with the option sentinels.
func TestSpecScenarioRejectsUnknownNames(t *testing.T) {
	for _, sp := range []Spec{
		{Topology: "ring", N: 16},
		{Topology: "quarc", N: 16, Pattern: "spiral"},
		{Topology: "quarc", N: 16, Arrival: "bursty"},
		{Topology: "quarc", N: 16, Spatial: "swirl"},
		{Topology: "quarc", N: 16, Router: "xy"},
	} {
		if _, err := sp.Scenario(); err == nil {
			t.Errorf("spec %+v compiled", sp)
		} else if !errors.Is(err, ErrInvalidOption) && !strings.Contains(err.Error(), "unknown") {
			t.Errorf("spec %+v: unexpected error %v", sp, err)
		}
	}
}
