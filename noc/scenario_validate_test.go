package noc

import (
	"errors"
	"testing"
)

// TestScenarioValidationSentinels pins the build-time rejection of
// conflicting or nonsensical scenarios: each case must fail with the
// documented sentinel, not silently misbehave. A case states its scenario
// as a Spec, or as options where the value is one the wire form reads as
// the default (a zero window) or an attachment.
func TestScenarioValidationSentinels(t *testing.T) {
	cases := []struct {
		name string
		sp   Spec
		opts []Option // when set, NewScenario(opts...) instead of sp
		want error    // nil: the scenario builds
	}{
		{"record with replay", Spec{}, []Option{Quarc(16), Record(&TraceWorkload{}), Replay(&TraceWorkload{})}, ErrOptionConflict},
		{"record with replications", Spec{N: 16, Record: "unused.qwtr", Replications: 3}, nil, ErrOptionConflict},
		// On the wire a zero is the default: one replication.
		{"replications below one", Spec{N: 16, Replications: 0}, nil, nil},
		{"negative replications", Spec{N: 16, Replications: -4}, nil, ErrInvalidSpec},
		{"zero measure window", Spec{}, []Option{Quarc(16), Measure(0)}, ErrInvalidOption},
		{"negative measure window", Spec{}, []Option{Quarc(16), Measure(-10)}, ErrInvalidOption},
		{"negative warmup", Spec{}, []Option{Quarc(16), Warmup(-1)}, ErrInvalidOption},
		{"negative saturation queue", Spec{N: 16, SatQueue: -1}, nil, ErrInvalidSpec},
		{"message too short", Spec{N: 16, MsgLen: 1}, nil, ErrInvalidOption},
		{"trace node out of range", Spec{N: 16, TraceNode: 99, TraceLimit: 10}, nil, ErrInvalidOption},
		{"negative trace node", Spec{N: 16, TraceNode: -1, TraceLimit: 10}, nil, ErrInvalidSpec},
		{"negative trace limit", Spec{N: 16, TraceNode: 0, TraceLimit: -1}, nil, ErrInvalidSpec},
		{"negative rate", Spec{}, []Option{Quarc(16), Rate(-0.1)}, ErrInvalidOption},
		{"wait formula out of range", Spec{N: 16, Wait: "eq9"}, nil, ErrInvalidSpec},
		{"service formula out of range", Spec{N: 16, Service: "eq5"}, nil, ErrInvalidSpec},
		{"unknown topology", Spec{Topology: "ring", N: 16}, nil, ErrInvalidOption},
		{"mesh without size", Spec{Topology: "mesh"}, nil, ErrInvalidOption},
		{"quarc size not multiple of 4", Spec{N: 10}, nil, ErrInvalidOption},
		{"dests beyond the rim", Spec{N: 16, Pattern: "localized", Port: PortL, Dests: 12}, nil, ErrInvalidOption},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var err error
			if tc.opts != nil {
				_, err = NewScenario(tc.opts...)
			} else {
				_, err = tc.sp.Scenario()
			}
			switch {
			case tc.want == nil && err != nil:
				t.Fatalf("scenario refused: %v", err)
			case tc.want != nil && err == nil:
				t.Fatal("scenario built")
			case !errors.Is(err, tc.want):
				t.Fatalf("error %v does not wrap %v", err, tc.want)
			}
		})
	}
	// The router follows the topology. A spec that names one anyway must
	// name the topology's own.
	for name, doc := range map[string]string{
		"unknown router":              `{"router":"xy"}`,
		"router of another topology":  `{"topology":"mesh","w":4,"h":4,"router":"quarc"}`,
		"mesh router on a quarc ring": `{"topology":"quarc","n":16,"router":"mesh"}`,
	} {
		t.Run(name, func(t *testing.T) {
			sp, err := ParseSpec([]byte(doc))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := sp.Scenario(); !errors.Is(err, ErrInvalidOption) {
				t.Fatalf("error %v does not wrap %v", err, ErrInvalidOption)
			}
		})
	}
}

// TestScenarioValidationAppliesToWith ensures With re-validates: a
// well-formed scenario cannot be forked into an ill-formed one.
func TestScenarioValidationAppliesToWith(t *testing.T) {
	s, err := Spec{N: 16, Rate: 0.002}.Scenario()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.With(Measure(0)); !errors.Is(err, ErrInvalidOption) {
		t.Errorf("With(Measure(0)) error = %v, want ErrInvalidOption", err)
	}
	if _, err := s.With(Record(&TraceWorkload{}), Replay(&TraceWorkload{})); !errors.Is(err, ErrOptionConflict) {
		t.Errorf("With(Record, Replay) error = %v, want ErrOptionConflict", err)
	}
}
