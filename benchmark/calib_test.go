package main

import "testing"

func TestCalibratorAllocFree(t *testing.T) {
	c := newCalibrator()
	if n := testing.AllocsPerRun(3, func() { _ = c.measure() }); n != 0 {
		t.Fatalf("calibrator allocates %v times per measure", n)
	}
}

// The kernel is frozen: the same walk must leave the same fingerprint
// for ever, or recorded numbers are no longer comparable.
func TestCalibratorFrozen(t *testing.T) {
	c := newCalibrator()
	c.pass()
	const want = 0x61c31d9281b93a49
	if c.sink != want {
		t.Fatalf("calibrator kernel changed: sink %#x after one pass, want %#x", c.sink, uint64(want))
	}
}
