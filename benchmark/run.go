package main

import (
	"fmt"
	"math"
	"runtime"
	"time"
)

const (
	// defaultSeed is the seed golden.json was recorded at.
	defaultSeed = 1
	// setupReps is how many times a run sets the program up from
	// nothing; setup_s is the median.
	setupReps = 5
	// warmupSeconds of untimed operations precede the timed phase, so
	// pools, caches and the heap goal have settled.
	warmupSeconds = 1.0
	// firstWarmupOp keeps warm-up indices clear of the priming
	// operations set-up runs (-1, -2).
	firstWarmupOp = -10
	// setupSensitivity is the set-ups' fitted calibrator sensitivity: the
	// five workloads' fits (0.28-0.69, one calibrator pair per set-up)
	// do not resolve a difference between them.
	setupSensitivity = 0.5
	// minOps is the least number of timed operations, however slow the
	// machine: p75 then has four samples beyond it, and sweep-fig's live
	// heap, a sawtooth with a period of 16 operations, shows its peak.
	minOps = 16
	// maxOps bounds the sample buffers, which are allocated before the
	// timed phase so that the harness itself allocates nothing in it.
	maxOps = 1 << 14
)

// run is everything one run of one workload measured.
type run struct {
	workload  string
	attempted int
	failures  []opFailure
	setup     []float64 // calibrated seconds, one per set-up
	setupRaw  []float64 // wall seconds, one per set-up
	calMs     []float64 // calibrated ms per operation
	rawMs     []float64 // wall ms per operation
	calib     []float64 // ms per timed calibrator pass
	allocs    []float64 // heap objects allocated, per operation
	allocKB   []float64 // KiB allocated, per operation
	heapMB    float64   // peak live heap over the operation boundaries
	digests   []uint64
	tr        *tracer // nil on an untraced run
}

// calibrated converts a wall duration to reference-machine units using
// the calibrator passes run just before and just after it. The model is
// wall = reference x (calib / CalibRefMs)^sensitivity: a span that is all
// shared-cache traffic slows down as much as the kernel (sensitivity 1),
// one that is all arithmetic not at all (0). The constants come from
// -fit; on a quiet machine the factor is 1 whatever they are.
func calibrated(raw, before, after, sensitivity float64) float64 {
	return raw / math.Pow((before+after)/2/CalibRefMs, sensitivity)
}

// tracedOp says whether operation i of a traced run records spans:
// alternating blocks of four, so that one run yields both sides of the
// tracing-overhead comparison and a workload that rotates over a few
// instances shows each of them to both sides.
func tracedOp(i int) bool { return i%8 >= 4 }

// measure runs one workload: seeded inputs, repeated set-up, warm-up,
// then calib, op, calib, op, ... for the given wall time. With trace set,
// the operations tracedOp names record spans.
func measure(w entry, seed uint64, seconds float64, trace bool) (*run, error) {
	r := &run{
		workload: w.name(),
		calMs:    make([]float64, 0, maxOps),
		rawMs:    make([]float64, 0, maxOps),
		calib:    make([]float64, 0, maxOps+1),
		allocs:   make([]float64, 0, maxOps),
		allocKB:  make([]float64, 0, maxOps),
	}
	var tr *tracer
	if trace {
		tr = newTracer(1 << 20)
	}
	cal := newCalibrator()
	for i := 0; i < 3; i++ {
		cal.measure()
	}
	if err := w.inputs(seed); err != nil {
		return nil, fmt.Errorf("%s: inputs: %w", w.name(), err)
	}
	defer w.close()
	for i := 0; i < setupReps; i++ {
		w.close()
		runtime.GC()
		before := cal.measure()
		t0 := time.Now()
		err := w.setup()
		raw := time.Since(t0).Seconds()
		if err != nil {
			return nil, fmt.Errorf("%s: setup: %w", w.name(), err)
		}
		r.setup = append(r.setup, calibrated(raw, before, cal.measure(), setupSensitivity))
		r.setupRaw = append(r.setupRaw, raw)
	}

	runtime.GC()
	for i, t0 := firstWarmupOp, time.Now(); time.Since(t0).Seconds() < warmupSeconds || i > firstWarmupOp-w.warmupOps; i-- {
		w.prepare(i)
		if err := w.op(i, nil, -1); err != nil {
			return nil, fmt.Errorf("%s: warm-up: %w", w.name(), err)
		}
	}

	// Between operations the harness allocates nothing (the sample
	// buffers have their capacity, the calibrator and prepare are
	// allocation-free), so consecutive MemStats readings differ by what
	// the operation allocated. The forced collection before each reading
	// makes HeapAlloc the live heap with the workload still reachable,
	// and starts every operation from the same collector state.
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	before := cal.measure()
	r.calib = append(r.calib, before)
	for t0 := time.Now(); (time.Since(t0).Seconds() < seconds || r.attempted < minOps) && r.attempted < maxOps; r.attempted++ {
		i := r.attempted
		t := tr
		if !tracedOp(i) {
			t = nil
		}
		w.prepare(i)
		id := t.begin(w.name(), -1, i)
		start := time.Now()
		err := w.op(i, t, id)
		raw := float64(time.Since(start).Nanoseconds()) / 1e6
		t.end(id)
		runtime.GC()
		runtime.ReadMemStats(&m1)
		id = t.begin("calib", -1, i)
		after := cal.measure()
		t.end(id)
		if err != nil {
			r.failures = append(r.failures, opFailure{i, err.Error()})
		}
		r.rawMs = append(r.rawMs, raw)
		r.calMs = append(r.calMs, calibrated(raw, before, after, w.sensitivity))
		r.calib = append(r.calib, after)
		r.allocs = append(r.allocs, float64(m1.Mallocs-m0.Mallocs))
		r.allocKB = append(r.allocKB, float64(m1.TotalAlloc-m0.TotalAlloc)/1024)
		r.heapMB = max(r.heapMB, float64(m1.HeapAlloc)/(1<<20))
		before, m0 = after, m1
	}
	runtime.KeepAlive(w)

	fails, digests := w.verify(r.attempted)
	r.failures = append(r.failures, fails...)
	r.digests = digests
	r.tr = tr
	return r, nil
}

// failed counts the distinct operations with at least one failure.
func (r *run) failed() int {
	seen := make(map[int]bool)
	for _, f := range r.failures {
		seen[f.op] = true
	}
	return len(seen)
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEnd is the untraced run's seven metrics, all in reference-machine
// units except the allocation and heap figures, which need none. The
// allocation figures are interquartile means too: a pooled buffer that
// doubles once in a run would otherwise move a 6 KiB/op mean by 10 %.
func (r *run) endToEnd(withRaw bool) map[string]metric {
	m := map[string]metric{
		"setup_s":         {median(r.setup), "s"},
		"ops_per_s":       {1000 / iqm(r.calMs), "1/s"},
		"op_p50_ms":       {median(r.calMs), "ms"},
		"op_p75_ms":       {percentile(r.calMs, 75), "ms"},
		"allocs_per_op":   {iqm(r.allocs), "count"},
		"alloc_kb_per_op": {iqm(r.allocKB), "KiB"},
		"heap_live_mb":    {r.heapMB, "MiB"},
	}
	if withRaw {
		m["raw.setup_s"] = metric{median(r.setupRaw), "s"}
		m["raw.ops_per_s"] = metric{1000 / iqm(r.rawMs), "1/s"}
		m["raw.op_p50_ms"] = metric{median(r.rawMs), "ms"}
		m["raw.op_p75_ms"] = metric{percentile(r.rawMs, 75), "ms"}
	}
	return m
}

// perWorkloadLayer is the traced run's view of the workload itself: the
// figures too noisy to gate on this builder, the calibrator's own
// steadiness, and what recording spans cost.
func (r *run) perWorkloadLayer() map[string]metric {
	var on, off []float64
	for i, ms := range r.calMs {
		if tracedOp(i) {
			on = append(on, ms)
		} else {
			off = append(off, ms)
		}
	}
	_, mid, _, spread := quartileSpread(r.calib)
	return map[string]metric{
		"e2e.op_p90_ms":      {percentile(r.calMs, 90), "ms"},
		"e2e.raw_ops_per_s":  {1000 / iqm(r.rawMs), "1/s"},
		"calib.ms":           {mid, "ms"},
		"calib.iqr_pct":      {100 * spread, "%"},
		"trace.overhead_pct": {100 * (median(on)/median(off) - 1), "%"},
	}
}
