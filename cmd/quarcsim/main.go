// Command quarcsim runs the discrete-event wormhole simulation of one
// Quarc configuration and prints measured latencies with confidence
// intervals, optionally comparing them against the analytical model.
//
// Example:
//
//	quarcsim -n 64 -msg 32 -rate 0.001 -alpha 0.05 -dests 8 -random -compare
//
// The flags fill a declarative Spec. The scenario can instead be loaded
// from a Spec JSON document — the format the quarcd daemon serves — in
// which case the scenario-shaping flags must stay unset; both resolve
// through the same path. A spec that names the model
// evaluator ("evaluator": "model") is answered by the analytical model,
// as quarcd answers it:
//
//	quarcsim -spec scenario.json -json
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime/pprof"
	"strings"

	"quarc/noc"
)

// defaultTraceLimit is the simulator's own trace cap, which -trace-limit 0
// selects.
const defaultTraceLimit = 10000

func main() {
	log.SetFlags(0)
	log.SetPrefix("quarcsim: ")

	n := flag.Int("n", 16, "network size (multiple of 4, >= 8)")
	msg := flag.Int("msg", 32, "message length in flits")
	rate := flag.Float64("rate", 0.001, "message generation rate per node (messages/cycle)")
	alpha := flag.Float64("alpha", 0.05, "multicast fraction of generated messages")
	dests := flag.Int("dests", 4, "number of multicast destinations")
	random := flag.Bool("random", false, "random destination set (default: localized on the L rim)")
	setSeed := flag.Uint64("set-seed", 1, "seed for the random destination set")
	broadcast := flag.Bool("broadcast", false, "multicast to every node (overrides -dests)")
	seed := flag.Uint64("seed", 42, "simulation seed")
	warmup := flag.Float64("warmup", 20000, "warmup cycles before measurement")
	measure := flag.Float64("measure", 200000, "measurement window in cycles")
	compare := flag.Bool("compare", false, "also evaluate the analytical model")
	detail := flag.Bool("detail", false, "print per-port/per-distance breakdowns and percentiles")
	trace := flag.Int("trace", -1, "trace messages generated at this node (prints up to -trace-limit events)")
	traceLimit := flag.Int("trace-limit", 60, "maximum trace events to print")
	priority := flag.Bool("mc-priority", false, "multicast-first channel arbitration (default FIFO, as in the paper)")
	arrival := flag.String("arrival", "poisson", "arrival process: poisson, bernoulli, onoff, periodic")
	burst := flag.Float64("burst", 8, "onoff arrivals: mean burst length in messages")
	duty := flag.Float64("duty", 0.5, "onoff arrivals: duty cycle in (0,1]")
	perm := flag.String("perm", "", "spatial pattern for unicast destinations: transpose, bit-reversal, bit-complement, shuffle, tornado (default uniform)")
	record := flag.String("record", "", "record the run's workload trace to this file (JSONL when it ends in .jsonl, else the compact binary format)")
	replay := flag.String("replay", "", "replay a workload trace from this file instead of generating traffic")
	specPath := flag.String("spec", "", "load the scenario from a declarative Spec JSON file (the quarcd wire format); scenario flags may not be combined with it")
	jsonOut := flag.Bool("json", false, "print the Result as JSON instead of the human-readable report")
	metrics := flag.Int("metrics", 0, "record a time series with this many buckets (Result JSON gains \"series\"; 0 disables)")
	obsPath := flag.String("obs", "", "append the raw observability record stream to this file (CRC-framed log; implies -metrics)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the simulation run to this file (read it with go tool pprof)")
	flag.Parse()

	// Flags and -spec fill one Spec, resolved by one path below.
	var sp noc.Spec
	if *specPath != "" {
		// The spec document is the single source of truth; a scenario
		// flag alongside it would silently lose to one of the two, so
		// refuse the combination outright.
		// -obs and -cpuprofile stay legal alongside -spec: both are
		// process-local (a file on this machine), so they have no spec
		// representation.
		allowed := map[string]bool{"spec": true, "compare": true, "json": true, "obs": true, "cpuprofile": true}
		var conflicts []string
		flag.Visit(func(f *flag.Flag) {
			if !allowed[f.Name] {
				conflicts = append(conflicts, "-"+f.Name)
			}
		})
		if len(conflicts) > 0 {
			log.Fatalf("-spec is declarative: move %s into the spec document", strings.Join(conflicts, ", "))
		}
		data, err := os.ReadFile(*specPath)
		if err != nil {
			log.Fatal(err)
		}
		if sp, err = noc.ParseSpec(data); err != nil {
			log.Fatal(err)
		}
		if *compare && sp.Evaluator == "model" {
			log.Fatal("-compare runs the model next to the simulator, but the spec already names the model evaluator")
		}
	} else {
		sp = noc.Spec{
			Topology: "quarc", N: *n, MsgLen: *msg, Rate: *rate, Alpha: *alpha,
			Seed: *seed, Warmup: *warmup, Measure: *measure,
			Detail: *detail, MulticastPriority: *priority,
			Arrival: *arrival, Spatial: *perm,
			Record: *record, Replay: *replay,
		}
		if *arrival == "onoff" {
			sp.BurstLen, sp.DutyCycle = *burst, *duty
		}
		switch {
		case *alpha == 0:
			// no destination set needed
		case *broadcast:
			sp.Pattern = "broadcast"
		case *random:
			sp.Pattern, sp.Dests, sp.SetSeed = "random", *dests, *setSeed
		default:
			sp.Pattern, sp.Dests, sp.Port = "localized", *dests, noc.PortL
		}
		if *trace >= 0 {
			sp.TraceNode, sp.TraceLimit = *trace, *traceLimit
			if *traceLimit == 0 {
				sp.TraceLimit = defaultTraceLimit
			}
		}
		if *metrics > 0 {
			sp.Metrics, sp.MetricsBuckets = true, *metrics
		}
	}
	if *obsPath != "" {
		// The raw stream needs the recording hooks attached; default
		// bucketing appears in the Result as a bonus.
		sp.Metrics = true
	}
	if sp.Record != "" {
		// Fail on an unwritable path before the simulation runs.
		f, err := os.Create(sp.Record)
		if err != nil {
			log.Fatal(err)
		}
		f.Close()
	}
	s, err := sp.Scenario()
	if err != nil {
		log.Fatal(err)
	}
	if *specPath == "" {
		// The wire form reads a zero as "use the default"; these flags
		// mean what they say, so -warmup 0 is a cold start, -seed 0 is
		// seed 0, and -n 0, -msg 0 or -measure 0 is refused.
		s, err = s.With(noc.Quarc(*n), noc.MsgLen(*msg), noc.Seed(*seed), noc.Warmup(*warmup), noc.Measure(*measure))
		if err != nil {
			log.Fatal(err)
		}
	}
	captured := s.Recording()

	var obsSink *noc.ObsFileSink
	if *obsPath != "" {
		obsSink, err = noc.CreateObsFile(*obsPath)
		if err != nil {
			log.Fatal(err)
		}
		s, err = s.With(noc.MetricsSink(obsSink))
		if err != nil {
			log.Fatal(err)
		}
	}

	stopProfile := func() {}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			log.Fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatal(err)
		}
		stopProfile = func() {
			pprof.StopCPUProfile()
			if err := f.Close(); err != nil {
				log.Fatal(err)
			}
		}
	}
	var ev noc.Evaluator = noc.Simulator{}
	if sp.Evaluator == "model" {
		ev = noc.Model{}
	}
	res, err := ev.Evaluate(s)
	stopProfile()
	if err != nil {
		log.Fatal(err)
	}
	if obsSink != nil {
		if err := obsSink.Close(); err != nil {
			log.Fatal(err)
		}
		if !*jsonOut {
			fmt.Printf("observability: raw record stream written to %s\n", *obsPath)
		}
	}
	if captured != nil {
		f, err := os.Create(sp.Record)
		if err != nil {
			log.Fatal(err)
		}
		var werr error
		if strings.HasSuffix(sp.Record, ".jsonl") {
			werr = captured.WriteJSONL(f)
		} else {
			werr = captured.WriteBinary(f)
		}
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			log.Fatal(werr)
		}
		if !*jsonOut {
			fmt.Printf("recorded:      %d messages to %s\n", captured.Messages(), sp.Record)
		}
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		if err := enc.Encode(res); err != nil {
			log.Fatal(err)
		}
		return
	}

	if sp.Replay != "" {
		// The generative knobs are ignored under replay; print the true
		// workload provenance instead.
		fmt.Printf("configuration: N=%d msg=%d flits workload=replay(%s) set={%s}\n",
			s.Nodes(), s.MsgLen(), sp.Replay, s.SetString())
	} else {
		fmt.Printf("configuration: N=%d msg=%d flits rate=%g alpha=%g arrival=%s spatial=%s set={%s}\n",
			s.Nodes(), s.MsgLen(), s.Rate(), s.Alpha(), s.ArrivalName(), s.SpatialName(), s.SetString())
	}
	if res.Evaluator == "model" {
		printModel(s, res, nil)
		return
	}
	fmt.Printf("simulated:     %.0f cycles, %d events, %d/%d messages completed/generated\n",
		res.Time, res.Events, res.Completed, res.Generated)
	if res.Saturated {
		fmt.Println("result:        SATURATED — injection backlog grew without bound")
		return
	}
	fmt.Printf("unicast:       %.3f ± %.3f cycles (95%% CI, %d messages)\n",
		res.Unicast, res.UnicastCI, res.UnicastN)
	if s.Alpha() > 0 && res.MulticastN > 0 {
		fmt.Printf("multicast:     %.3f ± %.3f cycles (95%% CI, %d messages)\n",
			res.Multicast, res.MulticastCI, res.MulticastN)
	}
	fmt.Printf("peak channel utilization: %.4f\n", res.MaxUtil)
	if res.Series != nil {
		fmt.Printf("time series:   %s\n", summarizeSeries(res.Series))
	}
	if res.DetailSummary != "" {
		fmt.Print(res.DetailSummary)
	}
	if res.TraceText != "" {
		fmt.Println("trace of generated messages:")
		fmt.Print(res.TraceText)
	}

	if *compare {
		pred, err := noc.Model{}.Evaluate(s)
		if errors.Is(err, noc.ErrModelInapplicable) {
			// Non-poisson arrivals and trace replays are outside the
			// analytical model's scope; say so instead of aborting a run
			// whose simulation half already printed. Any other model
			// error is a real failure and still exits nonzero.
			fmt.Printf("model:         not applicable (%v)\n", err)
			return
		}
		if err != nil {
			log.Fatal(err)
		}
		printModel(s, pred, &res)
	}
}

// printModel prints a model Result's latencies, each with its relative
// error against the simulator's when sim is non-nil.
func printModel(s *noc.Scenario, pred noc.Result, sim *noc.Result) {
	if pred.Saturated {
		fmt.Println("model:         SATURATED at this rate")
		return
	}
	fmt.Printf("model:         unicast %.3f cycles", pred.Unicast)
	if sim != nil {
		fmt.Printf(" (rel err %.2f%%)", 100*noc.RelErr(pred.Unicast, sim.Unicast))
	}
	if s.Alpha() > 0 {
		fmt.Printf(", multicast %.3f cycles", pred.Multicast)
		if sim != nil {
			fmt.Printf(" (rel err %.2f%%)", 100*noc.RelErr(pred.Multicast, sim.Multicast))
		}
	}
	fmt.Println()
}

// summarizeSeries condenses a recorded time series into one human line:
// the bucket grid, the busiest channel-bucket and when it happened, and
// the deepest wait queue. The full series is only emitted under -json.
func summarizeSeries(ts *noc.TimeSeries) string {
	peakUtil, peakAt := 0.0, 0.0
	for _, ch := range ts.ChannelUtil {
		for b, u := range ch {
			if u > peakUtil {
				peakUtil, peakAt = u, (float64(b)+0.5)*ts.BucketWidth
			}
		}
	}
	maxQueue := 0
	for _, q := range ts.QueueMax {
		if q > maxQueue {
			maxQueue = q
		}
	}
	return fmt.Sprintf("%d buckets x %.0f cycles, peak channel util %.3f near t=%.0f, deepest wait queue %d",
		ts.Buckets, ts.BucketWidth, peakUtil, peakAt, maxQueue)
}
