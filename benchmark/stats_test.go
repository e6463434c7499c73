package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-12 }

func TestPercentileAndIQM(t *testing.T) {
	v := []float64{8, 1, 4, 2, 7, 3, 6, 5} // 1..8
	if got := median(v); !near(got, 4.5) {
		t.Errorf("median = %v, want 4.5", got)
	}
	if got := percentile(v, 75); !near(got, 6.25) {
		t.Errorf("p75 = %v, want 6.25", got)
	}
	if got := percentile(v, 100); !near(got, 8) {
		t.Errorf("p100 = %v, want 8", got)
	}
	// Quarters of two fall off each end: mean of 3,4,5,6.
	if got := iqm(v); !near(got, 4.5) {
		t.Errorf("iqm = %v, want 4.5", got)
	}
	// One slow outlier must not move the interquartile mean.
	if a, b := iqm([]float64{1, 1, 1, 1, 1, 1, 1, 100}), 1.0; !near(a, b) {
		t.Errorf("iqm with an outlier = %v, want %v", a, b)
	}
	if !math.IsNaN(percentile(nil, 50)) || !math.IsNaN(iqm(nil)) {
		t.Error("empty samples must give NaN")
	}
}

// The spread must be the one Python's statistics.quantiles(v, n=4)
// gives, since that is what the driver computes.
func TestQuartileSpreadMatchesPython(t *testing.T) {
	// statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3, spread := quartileSpread([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if !near(q1, 2.75) || !near(q2, 5.5) || !near(q3, 8.25) {
		t.Fatalf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	if !near(spread, 1) {
		t.Errorf("spread = %v, want 1", spread)
	}
}

func TestSelfTimes(t *testing.T) {
	tr := &tracer{names: []string{"op", "a", "b", "leaf"}, spans: []span{
		{name: 0, start: 0, end: 100, parent: -1},
		{name: 1, start: 10, end: 40, parent: 0},
		{name: 2, start: 30, end: 60, parent: 0}, // overlaps a by 10
		{name: 3, start: 12, end: 20, parent: 1},
		{name: 2, start: 90, end: 120, parent: 0}, // clipped to the parent
	}}
	want := []int64{100 - 50 - 10, 30 - 8, 30, 8, 30}
	got := selfTimes(tr.spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self[%d] (%s) = %d, want %d", i, tr.names[tr.spans[i].name], got[i], want[i])
		}
	}
	sum := tr.summary()
	if sum[0].name != "op" || !near(sum[0].selfMs, 40e-6) || !near(sum[0].totalMs, 100e-6) {
		t.Errorf("summary[op] = %+v, want self 40e-6 ms of 100e-6 ms", sum[0])
	}
	if sum[2].count != 2 || !near(sum[2].selfMs, 60e-6) {
		t.Errorf("summary[b] = %+v, want 2 spans with 60e-6 ms self time", sum[2])
	}
}

func TestTracerNamesAndParents(t *testing.T) {
	tr := newTracer(8)
	root := tr.begin("op", -1, 3)
	kid := tr.begin("layer", root, 3)
	tr.end(kid)
	again := tr.begin("layer", root, 3)
	tr.end(again)
	tr.end(root)
	if len(tr.names) != 2 || tr.spans[kid].name != tr.spans[again].name {
		t.Fatalf("names %v: a repeated name must reuse its index", tr.names)
	}
	if tr.spans[kid].parent != int32(root) || tr.spans[kid].op != 3 {
		t.Errorf("child span %+v does not point at its parent and operation", tr.spans[kid])
	}
	if s := tr.spans[root]; s.end < tr.spans[again].end || s.start > tr.spans[kid].start {
		t.Errorf("parent %+v does not enclose its children", s)
	}
}

func TestNilTracerIsInert(t *testing.T) {
	var tr *tracer
	if id := tr.begin("x", -1, 0); id != -1 {
		t.Fatalf("nil tracer returned span %d", id)
	}
	tr.end(-1)
}
