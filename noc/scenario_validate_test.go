package noc

import (
	"errors"
	"testing"
)

// TestScenarioValidationSentinels pins the build-time rejection of
// conflicting or nonsensical option combinations: each case must fail
// with the documented sentinel, not silently misbehave.
func TestScenarioValidationSentinels(t *testing.T) {
	cases := []struct {
		name string
		opts []Option
		want error
	}{
		{"record with replay", []Option{Quarc(16), Record(&TraceWorkload{}), Replay(&TraceWorkload{})}, ErrOptionConflict},
		{"record with replications", []Option{Quarc(16), Record(&TraceWorkload{}), Replications(3)}, ErrOptionConflict},
		{"replications below one", []Option{Quarc(16), Replications(0)}, ErrInvalidOption},
		{"negative replications", []Option{Quarc(16), Replications(-4)}, ErrInvalidOption},
		{"zero measure window", []Option{Quarc(16), Measure(0)}, ErrInvalidOption},
		{"negative measure window", []Option{Quarc(16), Measure(-10)}, ErrInvalidOption},
		{"negative warmup", []Option{Quarc(16), Warmup(-1)}, ErrInvalidOption},
		{"negative saturation queue", []Option{Quarc(16), SatQueue(-1)}, ErrInvalidOption},
		{"message too short", []Option{Quarc(16), MsgLen(1)}, ErrInvalidOption},
		{"trace node out of range", []Option{Quarc(16), Trace(99, 10)}, ErrInvalidOption},
		{"negative trace node", []Option{Quarc(16), Trace(-1, 10)}, ErrInvalidOption},
		{"negative trace limit", []Option{Quarc(16), Trace(0, -1)}, ErrInvalidOption},
		{"negative rate", []Option{Quarc(16), Rate(-0.1)}, ErrInvalidOption},
		{"wait formula out of range", []Option{Quarc(16), ModelWait(WaitFormula(2))}, ErrInvalidOption},
		{"service formula out of range", []Option{Quarc(16), ModelService(ServiceFormula(-1))}, ErrInvalidOption},
		{"unknown topology", []Option{Topology("ring", TopologyConfig{N: 16})}, ErrInvalidOption},
		{"mesh without size", []Option{Topology("mesh", TopologyConfig{})}, ErrInvalidOption},
		{"quarc size not multiple of 4", []Option{Quarc(10)}, ErrInvalidOption},
		{"dests beyond the rim", []Option{Quarc(16), LocalizedDests(PortL, 12)}, ErrInvalidOption},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := NewScenario(tc.opts...)
			if err == nil {
				t.Fatal("scenario built")
			}
			if !errors.Is(err, tc.want) {
				t.Fatalf("error %v does not wrap %v", err, tc.want)
			}
		})
	}
	// No option names a router: it follows the topology. A spec that
	// names one anyway must name the topology's own.
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
	s, err := NewScenario(Quarc(16), Rate(0.002))
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
