package noc

import (
	"math"
	"testing"
)

// With must validate forks even on its fast path (topology and pattern
// unchanged), so a *Scenario is well-formed everywhere.
func TestWithValidatesFork(t *testing.T) {
	s, err := NewScenario(Quarc(16), MsgLen(32), Rate(0.001))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.With(MsgLen(1)); err == nil {
		t.Error("With(MsgLen(1)) should fail")
	}
	if _, err := s.With(Rate(math.NaN())); err == nil {
		t.Error("With(Rate(NaN)) should fail")
	}
	if _, err := s.With(Alpha(0.5)); err == nil {
		t.Error("With(Alpha(0.5)) with an empty destination set should fail")
	}
	// A valid fork keeps working and shares the resolved network.
	ok, err := s.With(Rate(0.002))
	if err != nil {
		t.Fatal(err)
	}
	if ok.Rate() != 0.002 || ok.Nodes() != 16 {
		t.Errorf("fork: rate=%v nodes=%d", ok.Rate(), ok.Nodes())
	}
	if s.Rate() != 0.001 {
		t.Errorf("fork mutated the base scenario: rate=%v", s.Rate())
	}
}

func TestBranchesRequireSet(t *testing.T) {
	s, err := NewScenario(Quarc(16))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Branches(0); err == nil {
		t.Error("Branches on an empty destination set should fail")
	}

	b, err := Spec{N: 16, Alpha: 1, Pattern: "broadcast"}.Scenario()
	if err != nil {
		t.Fatal(err)
	}
	branches, err := b.Branches(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(branches) != 4 {
		t.Fatalf("broadcast from a quarc node should spawn 4 branches, got %d", len(branches))
	}
	covered := map[int]bool{}
	for _, br := range branches {
		for _, tgt := range br.Targets {
			if covered[tgt] {
				t.Errorf("node %d covered twice", tgt)
			}
			covered[tgt] = true
		}
	}
	if len(covered) != 15 {
		t.Errorf("broadcast covered %d nodes, want 15", len(covered))
	}
}

func TestModelDetailBranchWaits(t *testing.T) {
	s, err := Spec{N: 16, MsgLen: 16, Rate: 0.002, Alpha: 0.1, Pattern: "broadcast", Detail: true}.Scenario()
	if err != nil {
		t.Fatal(err)
	}
	res, err := Model{}.Evaluate(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Branches) != 4 {
		t.Fatalf("detail evaluation should report 4 branches, got %d", len(res.Branches))
	}
	for _, b := range res.Branches {
		if b.Wait <= 0 || math.IsNaN(b.Wait) {
			t.Errorf("branch %s wait = %v, want positive", b.PortName, b.Wait)
		}
	}
}
