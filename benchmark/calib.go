package main

import "time"

// FROZEN KERNEL. Every timing the benchmark reports is divided by this
// kernel's duration, so any edit to calibWords, calibSteps, calibSeed or
// the body of pass invalidates every number ever recorded with it
// (README evidence tables, CalibRefMs, the bounds in BENCHMARK.json).
// Add a second kernel under a new name instead of changing this one.
const (
	calibWords = 1 << 19 // 4 MiB of uint64: twice the builder's private L2
	calibSteps = 1 << 19
	calibSeed  = 0x9E3779B97F4A7C15
)

// CalibRefMs is the reference machine's quiet-run median of one timed
// calibrator pass. Calibrated times are raw x CalibRefMs / calib, i.e.
// "milliseconds on the reference machine".
const CalibRefMs = 1.45

// calibrator is the in-run machine-speed probe: a single-threaded,
// allocation-free xorshift64 read-modify-write walk over its own buffer.
// It holds all its state, so the package keeps no mutable globals.
//
// The buffer is sized so that about half the accesses leave the core's
// private L2 for the shared L3: on this builder the clock is steady (an
// arithmetic-only kernel repeats within 1-3 %) and what moves the
// workloads by 10-30 % within a minute is the neighbours' traffic on
// that shared path, which a cache-resident kernel does not feel (see
// README.md, "Noise model").
type calibrator struct {
	buf  []uint64
	sink uint64
}

func newCalibrator() *calibrator {
	c := &calibrator{buf: make([]uint64, calibWords)}
	for i := range c.buf {
		c.buf[i] = uint64(i) * calibSeed
	}
	return c
}

// pass is the kernel: the same calibSteps addresses every time, each a
// load, an add and a store.
func (c *calibrator) pass() {
	x, acc := uint64(calibSeed), c.sink
	buf := c.buf[:calibWords]
	for i := 0; i < calibSteps; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := x & (calibWords - 1)
		v := buf[j] + x
		buf[j] = v
		acc ^= v
	}
	c.sink = acc
}

// measure runs one untimed pass, which re-warms the cache the preceding
// operation polluted, then returns the duration of a second pass in ms.
func (c *calibrator) measure() float64 {
	c.pass()
	t0 := time.Now()
	c.pass()
	return float64(time.Since(t0).Nanoseconds()) / 1e6
}
