package main

import (
	"bytes"
	"math"
	"testing"

	"quarc/noc"
)

func TestCalibratedArithmetic(t *testing.T) {
	// At the reference speed calibration is the identity, whatever the
	// sensitivity.
	if got := calibrated(10, CalibRefMs, CalibRefMs, 0.7); !near(got, 10) {
		t.Errorf("at reference speed: %v, want 10", got)
	}
	// A kernel twice as slow halves a fully sensitive span, leaves an
	// insensitive one alone, and takes 2^0.5 off one in between.
	if got := calibrated(10, 2*CalibRefMs, 2*CalibRefMs, 1); !near(got, 5) {
		t.Errorf("sensitivity 1: %v, want 5", got)
	}
	if got := calibrated(10, 2*CalibRefMs, 2*CalibRefMs, 0); !near(got, 10) {
		t.Errorf("sensitivity 0: %v, want 10", got)
	}
	if got := calibrated(10, CalibRefMs, 3*CalibRefMs, 0.5); !near(got, 10/math.Sqrt2) {
		t.Errorf("sensitivity 0.5 over a mean of 2x: %v, want %v", got, 10/math.Sqrt2)
	}
}

func TestGeneratedSpecs(t *testing.T) {
	seen := make(map[string]bool)
	for i := -2; i < 3; i++ {
		for j := 0; j < 16; j++ {
			doc := appendSpec(nil, 9, i, j, coldMeasure)
			if !bytes.Equal(doc, appendSpec(nil, 9, i, j, coldMeasure)) {
				t.Fatal("the same seed must give the same document")
			}
			if seen[string(doc)] {
				t.Fatalf("document repeated: %s", doc)
			}
			seen[string(doc)] = true
			sp, err := noc.ParseSpec(doc)
			if err != nil {
				t.Fatalf("%s: %v", doc, err)
			}
			if sp.Seed == 0 {
				t.Fatalf("%s: zero seed would select the default", doc)
			}
		}
	}
	if bytes.Equal(appendSpec(nil, 9, 0, 0, coldMeasure), appendSpec(nil, 10, 0, 0, coldMeasure)) {
		t.Error("another seed must give another document")
	}
}

// Every workload sets up, runs one operation and passes its own checks.
func TestWorkloadsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	for _, w := range workloads() {
		if err := w.inputs(2); err != nil {
			t.Fatalf("%s: inputs: %v", w.name(), err)
		}
		if err := w.setup(); err != nil {
			t.Fatalf("%s: setup: %v", w.name(), err)
		}
		w.prepare(0)
		if err := w.op(0, nil, -1); err != nil {
			t.Fatalf("%s: op: %v", w.name(), err)
		}
		fails, digests := w.verify(1)
		if len(fails) > 0 {
			t.Errorf("%s: op %d: %s", w.name(), fails[0].op, fails[0].reason)
		}
		if len(digests) != 1 {
			t.Errorf("%s: %d digests for one checked operation", w.name(), len(digests))
		}
		w.close()
	}
}
