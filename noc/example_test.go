package noc_test

import (
	"bytes"
	"fmt"
	"log"

	"quarc/noc"
)

// One scenario drives both engines: the paper's analytical model
// (Eqs. 3-16) and the wormhole simulator evaluate the same Quarc, and
// both return a Result.
func ExampleNewScenario() {
	// A 32-node Quarc with its all-port router, Poisson sources at 0.002
	// messages/cycle/node, 5% of messages multicast to four nodes on the
	// left rim, 32-flit messages.
	s, err := noc.NewScenario(
		noc.Quarc(32),
		noc.MsgLen(32),
		noc.Rate(0.002),
		noc.Alpha(0.05),
		noc.LocalizedDests(noc.PortL, 4),
		noc.Seed(2024),
		noc.Warmup(10000),
		noc.Measure(100000),
	)
	if err != nil {
		log.Fatal(err)
	}
	pred, err := noc.Model{}.Evaluate(s)
	if err != nil {
		log.Fatal(err)
	}
	meas, err := noc.Simulator{}.Evaluate(s)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("multicast set:", s.SetString())
	fmt.Printf("unicast:   model %.3f, simulation %.1f cycles\n", pred.Unicast, meas.Unicast)
	fmt.Printf("multicast: model %.3f, simulation %.1f cycles\n", pred.Multicast, meas.Multicast)
	fmt.Printf("simulated %d messages\n", meas.Completed)
	// Output:
	// multicast set: L=1111 LO=0 RO=0 R=0
	// unicast:   model 43.687, simulation 41.8 cycles
	// multicast: model 43.519, simulation 40.9 cycles
	// simulated 6318 messages
}

// A run recorded into a TraceWorkload, written out and read back,
// replays to the same Result: every injection time and destination
// comes from the trace instead of the generators.
func ExampleTraceWorkload() {
	base, err := noc.NewScenario(
		noc.Quarc(16),
		noc.MsgLen(16),
		noc.Rate(0.004),
		noc.Permutation("tornado"),
		noc.Seed(7),
		noc.Warmup(5000),
		noc.Measure(50000),
	)
	if err != nil {
		log.Fatal(err)
	}

	trace := &noc.TraceWorkload{}
	rec, err := base.With(noc.Record(trace))
	if err != nil {
		log.Fatal(err)
	}
	orig, err := noc.Simulator{}.Evaluate(rec)
	if err != nil {
		log.Fatal(err)
	}
	var buf bytes.Buffer
	if err := trace.WriteBinary(&buf); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("recorded %d messages\n", trace.Messages())

	loaded, err := noc.ReadTraceWorkload(&buf)
	if err != nil {
		log.Fatal(err)
	}
	rep, err := base.With(noc.Replay(loaded))
	if err != nil {
		log.Fatal(err)
	}
	replayed, err := noc.Simulator{}.Evaluate(rep)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("original: unicast %.1f cycles over %d messages\n", orig.Unicast, orig.Completed)
	fmt.Printf("replayed: unicast %.1f cycles over %d messages\n", replayed.Unicast, replayed.Completed)
	fmt.Println("bitwise identical:", orig.Unicast == replayed.Unicast && orig.Events == replayed.Events)
	// Output:
	// recorded 3422 messages
	// original: unicast 19.6 cycles over 3091 messages
	// replayed: unicast 19.6 cycles over 3091 messages
	// bitwise identical: true
}
