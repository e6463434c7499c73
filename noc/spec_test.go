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

// TestSpecMatchesOptions is the cross-construction property test: over a
// matrix of builtin topology x arrival x spatial, a Spec-built scenario
// and its hand-written functional-options twin must produce
// bitwise-identical Results from the simulator (and from the model where
// it applies).
func TestSpecMatchesOptions(t *testing.T) {
	type topoCase struct {
		name string
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
			opts: []Option{Mesh(4, 4), HighLowDests([]int{1, 3}, []int{2})},
			sp:   Spec{Topology: "mesh", W: 4, H: 4, Pattern: "highlow", High: []int{1, 3}, Low: []int{2}},
		},
	}
	type arrCase struct {
		name string
		opts []Option
		mod  func(*Spec)
	}
	arrivals := []arrCase{
		{name: "poisson", opts: nil, mod: func(*Spec) {}},
		{name: "onoff", opts: []Option{OnOff(4, 0.5)}, mod: func(sp *Spec) { sp.Arrival = "onoff"; sp.BurstLen = 4; sp.DutyCycle = 0.5 }},
		{name: "periodic", opts: []Option{Arrival("periodic")}, mod: func(sp *Spec) { sp.Arrival = "periodic" }},
	}
	type spatCase struct {
		name string
		opts []Option
		mod  func(*Spec)
	}
	spatials := []spatCase{
		{name: "uniform", opts: nil, mod: func(*Spec) {}},
		{name: "transpose", opts: []Option{Permutation("transpose")}, mod: func(sp *Spec) { sp.Spatial = "transpose" }},
		{name: "tornado", opts: []Option{Permutation("tornado")}, mod: func(sp *Spec) { sp.Spatial = "tornado" }},
	}

	common := []Option{MsgLen(16), Rate(0.004), Alpha(0.05), Seed(9), Warmup(1000), Measure(8000)}
	for _, tc := range topos {
		for _, ac := range arrivals {
			for _, sc := range spatials {
				t.Run(tc.name+"/"+ac.name+"/"+sc.name, func(t *testing.T) {
					opts := append(append(append(append([]Option{}, tc.opts...), common...), ac.opts...), sc.opts...)
					byOpts, err := NewScenario(opts...)
					if err != nil {
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

	// Scenario -> Spec -> Scenario: Trace(node, 0) means the simulator's
	// default cap, and the spec must say so — a trace_limit of 0 on the
	// wire means "no tracing".
	traced, err := NewScenario(Quarc(16), Rate(0.003), Warmup(500), Measure(5000), Trace(2, 0))
	if err != nil {
		t.Fatal(err)
	}
	sp := traced.Spec()
	if sp.TraceNode != 2 || sp.TraceLimit != 10000 {
		t.Errorf("Trace(2, 0) reports trace_node %d, trace_limit %d; want 2, 10000", sp.TraceNode, sp.TraceLimit)
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
		t.Errorf("Trace(2, 0) does not survive Spec(): %d trace bytes before, %d after", len(want.TraceText), len(got.TraceText))
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
	// not a structural change.
	plain, err := NewScenario(Quarc(16), LocalizedDests(PortL, 4))
	if err != nil {
		t.Fatal(err)
	}
	for name, opt := range map[string]Option{
		"Router(quarc)":    Router("quarc"),
		"Arrival(poisson)": Arrival("poisson"),
		"Spatial(uniform)": Spatial("uniform", SpatialConfig{}),
		"Quarc(16)":        Quarc(16),
	} {
		fork, err := plain.With(opt, Rate(0.002))
		if err != nil {
			t.Fatal(err)
		}
		if fork.router != plain.router {
			t.Errorf("With(%s) rebuilt the routed topology", name)
		}
	}
	if fork, err := plain.With(Spidergon(16)); err != nil {
		t.Fatal(err)
	} else if fork.router == plain.router || fork.Spec().Router != "spidergon" {
		t.Errorf("With(Spidergon(16)) kept the quarc router (%s)", fork.Spec().Router)
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

// TestEveryOptionHasASpecField walks Spec's JSON keys and requires, for
// each, an option that writes it — so a field added to Spec without an
// option (or an option that stores its value anywhere else) fails here.
// Evaluator and the trace paths are wire-only: no option produces them.
func TestEveryOptionHasASpecField(t *testing.T) {
	table := map[string]struct {
		opts []Option
		want any
	}{
		"topology":          {[]Option{Spidergon(16)}, "spidergon"},
		"n":                 {[]Option{Quarc(32)}, 32},
		"w":                 {[]Option{Mesh(4, 2)}, 4},
		"h":                 {[]Option{Mesh(4, 2)}, 2},
		"dims":              {[]Option{Hypercube(3)}, 3},
		"router":            {[]Option{Torus(4, 4), Router("mesh")}, "mesh"},
		"pattern":           {[]Option{Broadcast()}, "broadcast"},
		"dests":             {[]Option{LocalizedDests(PortR, 3)}, 3},
		"port":              {[]Option{LocalizedDests(PortR, 3)}, PortR},
		"set_seed":          {[]Option{RandomDests(3, 7)}, uint64(7)},
		"high":              {[]Option{Mesh(4, 4), HighLowDests([]int{1, 3}, []int{2})}, []int{1, 3}},
		"low":               {[]Option{Mesh(4, 4), HighLowDests([]int{1, 3}, []int{2})}, []int{2}},
		"msglen":            {[]Option{MsgLen(8)}, 8},
		"rate":              {[]Option{Rate(0.002)}, 0.002},
		"alpha":             {[]Option{Broadcast(), Alpha(0.1)}, 0.1},
		"hotspot_frac":      {[]Option{Hotspot(0.2, 3)}, 0.2},
		"hotspot_node":      {[]Option{Hotspot(0.2, 3)}, 3},
		"arrival":           {[]Option{Arrival("periodic")}, "periodic"},
		"burst_len":         {[]Option{OnOff(4, 0.5)}, 4.0},
		"duty_cycle":        {[]Option{OnOff(4, 0.5)}, 0.5},
		"spatial":           {[]Option{Permutation("tornado")}, "tornado"},
		"spatial_frac":      {[]Option{HotspotDests(0.3, []int{0, 5}, []float64{1, 2})}, 0.3},
		"spatial_nodes":     {[]Option{HotspotDests(0.3, []int{0, 5}, []float64{1, 2})}, []int{0, 5}},
		"spatial_weights":   {[]Option{HotspotDests(0.3, []int{0, 5}, []float64{1, 2})}, []float64{1, 2}},
		"damping":           {[]Option{ModelDamping(0.5)}, 0.5},
		"max_iter":          {[]Option{ModelMaxIter(50)}, 50},
		"tol":               {[]Option{ModelTol(1e-6)}, 1e-6},
		"wait":              {[]Option{ModelWait(PaperEq3Literal)}, "eq3"},
		"service":           {[]Option{ModelService(TailRelease)}, "tail"},
		"seed":              {[]Option{Seed(9)}, uint64(9)},
		"warmup":            {[]Option{Warmup(500)}, 500.0},
		"measure":           {[]Option{Measure(5000)}, 5000.0},
		"sat_queue":         {[]Option{SatQueue(64)}, 64},
		"drain":             {[]Option{Drain(true)}, true},
		"detail":            {[]Option{Detail(true)}, true},
		"mc_priority":       {[]Option{MulticastPriority(true)}, true},
		"trace_node":        {[]Option{Trace(2, 8)}, 2},
		"trace_limit":       {[]Option{Trace(2, 8)}, 8},
		"replications":      {[]Option{Replications(3)}, 3},
		"parallelism":       {[]Option{Parallelism(2)}, 2},
		"intra_parallelism": {[]Option{IntraParallelism(4)}, 4},
		"metrics":           {[]Option{Metrics(16)}, true},
		"metrics_buckets":   {[]Option{Metrics(16)}, 16},
	}
	wireOnly := map[string]bool{"evaluator": true, "record": true, "replay": true}
	rt := reflect.TypeOf(Spec{})
	for i := 0; i < rt.NumField(); i++ {
		key, _, _ := strings.Cut(rt.Field(i).Tag.Get("json"), ",")
		tc, ok := table[key]
		if !ok {
			if !wireOnly[key] {
				t.Errorf("Spec.%s (%q) has no option in the table", rt.Field(i).Name, key)
			}
			continue
		}
		s, err := NewScenario(tc.opts...)
		if err != nil {
			t.Errorf("%s: %v", key, err)
			continue
		}
		// Execution advice is stored but canonicalized out of Spec().
		got, advice := s.Spec(), key == "parallelism" || key == "intra_parallelism"
		if advice {
			if v := reflect.ValueOf(got).Field(i); !v.IsZero() {
				t.Errorf("%s: Spec() reports %v, want it canonicalized away", key, v)
			}
			got = s.cfg.Spec
		}
		if v := reflect.ValueOf(got).Field(i).Interface(); !reflect.DeepEqual(v, tc.want) {
			t.Errorf("%s: option stored %#v, want %#v", key, v, tc.want)
		}
	}
	if len(table)+len(wireOnly) != rt.NumField() {
		t.Errorf("table has %d entries + %d wire-only keys for %d Spec fields", len(table), len(wireOnly), rt.NumField())
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
