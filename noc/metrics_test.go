package noc

import (
	"encoding/json"
	"testing"
)

// TestMetricsDoNotPerturbResult is the differential pin behind the
// whole observability pipeline: attaching the recording hook, the
// detail subscriber and a trace must not change the simulation by one
// bit. The hook fires on the same event
// stream the statistics are folded from, so any divergence means the
// instrumentation has leaked into the schedule.
func TestMetricsDoNotPerturbResult(t *testing.T) {
	cases := []struct {
		name string
		sp   Spec
	}{
		{"quarc-16", Spec{
			Topology: "quarc", N: 16, MsgLen: 32, Rate: 0.003, Alpha: 0.05,
			Pattern: "localized", Port: PortL, Dests: 4, Seed: 11, Warmup: 1000, Measure: 8000,
		}},
		{"mesh-4x4", Spec{
			Topology: "mesh", W: 4, H: 4, MsgLen: 16, Rate: 0.004,
			Seed: 11, Warmup: 1000, Measure: 8000,
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			plain, err := c.sp.Scenario()
			if err != nil {
				t.Fatal(err)
			}
			bare, err := Simulator{}.Evaluate(plain)
			if err != nil {
				t.Fatal(err)
			}

			sp := c.sp
			sp.Metrics, sp.MetricsBuckets, sp.Detail, sp.TraceNode, sp.TraceLimit = true, 50, true, 3, 200
			hooked, err := sp.Scenario()
			if err != nil {
				t.Fatal(err)
			}
			rec, err := Simulator{}.Evaluate(hooked)
			if err != nil {
				t.Fatal(err)
			}
			if rec.Series == nil || rec.DetailSummary == "" || rec.TraceText == "" {
				t.Fatal("the hooked evaluation is missing its series, detail or trace")
			}
			if rec.Series.Buckets != 50 {
				t.Errorf("series buckets = %d, want 50", rec.Series.Buckets)
			}
			var busy float64
			for _, util := range rec.Series.ChannelUtil {
				for _, u := range util {
					busy += u
				}
			}
			if busy == 0 {
				t.Error("series shows no channel activity at all")
			}

			// Strip the observations: everything else must be
			// bitwise-identical to the unhooked run.
			rec.Series, rec.DetailSummary, rec.TraceText = nil, "", ""
			got, err := json.Marshal(rec)
			if err != nil {
				t.Fatal(err)
			}
			want, err := json.Marshal(bare)
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != string(want) {
				t.Errorf("recording perturbed the result:\n hooked: %s\n bare:   %s", got, want)
			}
		})
	}
}

// TestMetricsParallelismDeterministic pins that the combined series is
// bitwise-identical for every Parallelism k: the per-replication series
// fold in replication order.
func TestMetricsParallelismDeterministic(t *testing.T) {
	run := func(k int) Result {
		t.Helper()
		s, err := Spec{
			Topology: "quarc", N: 16, MsgLen: 16, Rate: 0.002, Alpha: 0.05,
			Pattern: "localized", Port: PortL, Dests: 4, Seed: 3, Warmup: 500, Measure: 4000,
			Metrics: true, MetricsBuckets: 25, Replications: 4, Parallelism: k,
		}.Scenario()
		if err != nil {
			t.Fatal(err)
		}
		res, err := Simulator{}.Evaluate(s)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	serial := run(1)
	if serial.Series == nil || serial.Series.Reps != 4 {
		t.Fatalf("serial series = %+v, want 4 combined replications", serial.Series)
	}
	parallel := run(4)

	got, err := json.Marshal(parallel)
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(serial)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Errorf("Parallelism(4) result differs from Parallelism(1):\n %s\n %s", got, want)
	}
}
