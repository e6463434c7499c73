// Workloads: drive one topology through the workload-diversity
// tables — every arrival process crossed with a few spatial
// patterns — then capture a bursty run as a trace, replay it, and verify
// the replay reproduces the original result exactly.
//
// Run with:
//
//	go run ./examples/workloads
package main

import (
	"bytes"
	"fmt"
	"log"

	"quarc/noc"
)

func main() {
	log.SetFlags(0)

	fmt.Println("arrival processes:", noc.Arrivals())
	fmt.Println("spatial patterns: ", noc.Spatials())
	fmt.Println()

	// The base scenario: a 16-node Quarc, 16-flit messages, a fixed
	// offered load. Every variant below changes only when messages are
	// injected (arrival process) or where they go (spatial pattern).
	base, err := noc.NewScenario(
		noc.Quarc(16),
		noc.MsgLen(16),
		noc.Rate(0.004),
		noc.Seed(7),
		noc.Warmup(5000),
		noc.Measure(50000),
	)
	if err != nil {
		log.Fatal(err)
	}

	variants := []struct {
		label string
		opts  []noc.Option
	}{
		{"poisson / uniform (the paper)", nil},
		{"bernoulli / uniform", []noc.Option{noc.Arrival("bernoulli")}},
		{"onoff(16, 0.1) / uniform", []noc.Option{noc.OnOff(16, 0.1)}},
		{"periodic / uniform", []noc.Option{noc.Arrival("periodic")}},
		{"poisson / transpose", []noc.Option{noc.Permutation("transpose")}},
		{"poisson / bit-reversal", []noc.Option{noc.Permutation("bit-reversal")}},
		{"poisson / tornado", []noc.Option{noc.Permutation("tornado")}},
		{"poisson / hotspot(30% -> {3,9})", []noc.Option{
			noc.HotspotDests(0.3, []int{3, 9}, []float64{2, 1})}},
		{"onoff(16, 0.1) / tornado", []noc.Option{noc.OnOff(16, 0.1), noc.Permutation("tornado")}},
	}
	fmt.Printf("%-34s %10s %10s %9s\n", "workload", "unicast", "p99-proxy", "max util")
	for _, v := range variants {
		s, err := base.With(v.opts...)
		if err != nil {
			log.Fatal(err)
		}
		r, err := noc.Simulator{}.Evaluate(s)
		if err != nil {
			log.Fatal(err)
		}
		// The CI half-width stands in for tail spread: bursty arrivals
		// widen it sharply at the same average rate.
		fmt.Printf("%-34s %10.3f %10.3f %9.4f\n", v.label, r.Unicast, r.Unicast+3*r.UnicastCI, r.MaxUtil)
	}
	fmt.Println()

	// Capture the burstiest variant as a trace...
	trace := &noc.TraceWorkload{}
	recScenario, err := base.With(noc.OnOff(16, 0.1), noc.Permutation("tornado"), noc.Record(trace))
	if err != nil {
		log.Fatal(err)
	}
	orig, err := noc.Simulator{}.Evaluate(recScenario)
	if err != nil {
		log.Fatal(err)
	}
	var buf bytes.Buffer
	if err := trace.WriteBinary(&buf); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("recorded %d messages (%d bytes binary)\n", trace.Messages(), buf.Len())

	// ...read it back and replay it: bitwise the same result.
	loaded, err := noc.ReadTraceWorkload(&buf)
	if err != nil {
		log.Fatal(err)
	}
	repScenario, err := base.With(noc.Replay(loaded))
	if err != nil {
		log.Fatal(err)
	}
	replayed, err := noc.Simulator{}.Evaluate(repScenario)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("original: unicast %.6f over %d messages\n", orig.Unicast, orig.Completed)
	fmt.Printf("replayed: unicast %.6f over %d messages\n", replayed.Unicast, replayed.Completed)
	if orig.Unicast == replayed.Unicast && orig.Events == replayed.Events {
		fmt.Println("replay is bitwise-identical to the recorded run")
	} else {
		log.Fatal("replay diverged from the recorded run")
	}
}
