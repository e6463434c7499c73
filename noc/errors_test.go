package noc

import (
	"errors"
	"testing"

	"quarc/internal/core"
)

// TestSentinelChains pins the error-wrapping discipline for every
// exported sentinel: each one must be reachable with errors.Is through a
// real API path (not a hand-built fmt.Errorf), and must not match any of
// the other sentinels. A %w dropped anywhere along these chains breaks
// this test before it breaks a caller.
func TestSentinelChains(t *testing.T) {
	sentinels := map[string]error{
		"ErrOptionConflict":    ErrOptionConflict,
		"ErrInvalidOption":     ErrInvalidOption,
		"ErrInvalidSpec":       ErrInvalidSpec,
		"ErrModelInapplicable": ErrModelInapplicable,
	}

	cases := []struct {
		name string
		make func(t *testing.T) error
		want error
	}{
		{
			"option validation",
			func(t *testing.T) error {
				_, err := Spec{N: 16, MsgLen: 1}.Scenario()
				return err
			},
			ErrInvalidOption,
		},
		{
			"registry lookup",
			func(t *testing.T) error {
				_, err := Spec{Router: "no-such-router"}.Scenario()
				return err
			},
			ErrInvalidOption,
		},
		{
			"option conflict",
			func(t *testing.T) error {
				_, err := NewScenario(Quarc(16), Record(&TraceWorkload{}), Replay(&TraceWorkload{}))
				return err
			},
			ErrOptionConflict,
		},
		{
			"spec bounds",
			func(t *testing.T) error {
				return Spec{N: 1 << 30}.Validate()
			},
			ErrInvalidSpec,
		},
		{
			"model inapplicability",
			func(t *testing.T) error {
				s, err := Spec{N: 16, Rate: 0.002, Arrival: "onoff", BurstLen: 8, DutyCycle: 0.5}.Scenario()
				if err != nil {
					t.Fatal(err)
				}
				_, err = Model{}.Evaluate(s)
				return err
			},
			ErrModelInapplicable,
		},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.make(t)
			if err == nil {
				t.Fatal("no error produced")
			}
			for name, sentinel := range sentinels {
				got := errors.Is(err, sentinel)
				want := sentinel == tc.want
				if got != want {
					t.Errorf("errors.Is(%v, %s) = %v, want %v", err, name, got, want)
				}
			}
		})
	}
}

// TestModelInapplicableKeepsCause pins the double wrap in Model.Evaluate:
// the non-poisson rejection must match both the public sentinel and the
// underlying core.ErrNonPoisson, so callers can degrade gracefully while
// diagnostics keep the root cause.
func TestModelInapplicableKeepsCause(t *testing.T) {
	s, err := Spec{N: 16, Rate: 0.002, Arrival: "onoff", BurstLen: 8, DutyCycle: 0.5}.Scenario()
	if err != nil {
		t.Fatal(err)
	}
	_, err = Model{}.Evaluate(s)
	if err == nil {
		t.Fatal("model accepted onoff arrivals")
	}
	if !errors.Is(err, ErrModelInapplicable) {
		t.Errorf("error %v does not match ErrModelInapplicable", err)
	}
	if !errors.Is(err, core.ErrNonPoisson) {
		t.Errorf("error %v lost the core.ErrNonPoisson cause", err)
	}
}
