// Command quarcsim runs the discrete-event wormhole simulation of one
// Quarc configuration and prints measured latencies with confidence
// intervals, optionally comparing them against the analytical model.
//
// Example:
//
//	quarcsim -n 64 -msg 32 -rate 0.001 -alpha 0.05 -dests 8 -random -compare
//
// The scenario can also be loaded from a declarative Spec JSON document
// — the same format the quarcd daemon serves — in which case the
// scenario-shaping flags must stay unset:
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
	record := flag.String("record", "", "record the run's workload trace to this file")
	recordJSONL := flag.Bool("record-jsonl", false, "write the -record trace as JSONL instead of the compact binary format")
	replay := flag.String("replay", "", "replay a workload trace from this file instead of generating traffic")
	specPath := flag.String("spec", "", "load the scenario from a declarative Spec JSON file (the quarcd wire format); scenario flags may not be combined with it")
	jsonOut := flag.Bool("json", false, "print the simulator Result as JSON instead of the human-readable report")
	metrics := flag.Int("metrics", 0, "record a time series with this many buckets (Result JSON gains \"series\"; 0 disables)")
	obsPath := flag.String("obs", "", "append the raw observability record stream to this file (CRC-framed log; implies -metrics)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the simulation run to this file (read it with go tool pprof)")
	flag.Parse()

	var (
		s        *noc.Scenario
		sp       noc.Spec
		err      error
		captured *noc.TraceWorkload
		// recordAs persists a captured trace after the run: path plus
		// encoding ("" means no recording was requested).
		recordPath string
		recordJSON bool
		replaying  string
	)
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
		sp, err = noc.ParseSpec(data)
		if err != nil {
			log.Fatal(err)
		}
		if sp.Record != "" {
			// Fail on an unwritable path before the simulation runs.
			f, err := os.Create(sp.Record)
			if err != nil {
				log.Fatal(err)
			}
			f.Close()
			recordPath = sp.Record
			recordJSON = strings.HasSuffix(sp.Record, ".jsonl")
		}
		replaying = sp.Replay
		if *obsPath != "" && !sp.Metrics {
			// The raw stream needs the recording hooks attached; default
			// bucketing appears in the Result as a bonus.
			sp.Metrics = true
		}
		s, err = sp.Scenario()
		if err != nil {
			log.Fatal(err)
		}
		captured = s.Recording()
	} else {
		opts := []noc.Option{
			noc.Quarc(*n), noc.MsgLen(*msg), noc.Rate(*rate), noc.Alpha(*alpha),
			noc.Seed(*seed), noc.Warmup(*warmup), noc.Measure(*measure),
			noc.Detail(*detail), noc.MulticastPriority(*priority),
		}
		switch *arrival {
		case "onoff":
			opts = append(opts, noc.OnOff(*burst, *duty))
		case "poisson":
			// the default
		default:
			opts = append(opts, noc.Arrival(*arrival))
		}
		if *perm != "" {
			opts = append(opts, noc.Permutation(*perm))
		}
		if *record != "" {
			// Create the output up front so an unwritable path fails before
			// the simulation runs, not after.
			f, err := os.Create(*record)
			if err != nil {
				log.Fatal(err)
			}
			f.Close()
			recordPath, recordJSON = *record, *recordJSONL
			captured = &noc.TraceWorkload{}
			opts = append(opts, noc.Record(captured))
		}
		if *replay != "" {
			f, err := os.Open(*replay)
			if err != nil {
				log.Fatal(err)
			}
			tw, err := noc.ReadTraceWorkload(f)
			f.Close()
			if err != nil {
				log.Fatal(err)
			}
			opts = append(opts, noc.Replay(tw))
			replaying = *replay
		}
		switch {
		case *alpha == 0:
			// no destination set needed
		case *broadcast:
			opts = append(opts, noc.Broadcast())
		case *random:
			opts = append(opts, noc.RandomDests(*dests, *setSeed))
		default:
			opts = append(opts, noc.LocalizedDests(noc.PortL, *dests))
		}
		if *trace >= 0 {
			opts = append(opts, noc.Trace(*trace, *traceLimit))
		}
		if *obsPath != "" && *metrics == 0 {
			*metrics = noc.DefaultMetricsBuckets
		}
		if *metrics > 0 {
			opts = append(opts, noc.Metrics(*metrics))
		}
		s, err = noc.NewScenario(opts...)
		if err != nil {
			log.Fatal(err)
		}
	}

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
	res, err := noc.Simulator{}.Evaluate(s)
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
	if captured != nil && recordPath != "" {
		f, err := os.Create(recordPath)
		if err != nil {
			log.Fatal(err)
		}
		var werr error
		if recordJSON {
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
			fmt.Printf("recorded:      %d messages to %s\n", captured.Messages(), recordPath)
		}
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		if err := enc.Encode(res); err != nil {
			log.Fatal(err)
		}
		return
	}

	if replaying != "" {
		// The generative knobs are ignored under replay; print the true
		// workload provenance instead.
		fmt.Printf("configuration: N=%d msg=%d flits workload=replay(%s) set={%s}\n",
			s.Nodes(), s.MsgLen(), replaying, s.SetString())
	} else {
		fmt.Printf("configuration: N=%d msg=%d flits rate=%g alpha=%g arrival=%s spatial=%s set={%s}\n",
			s.Nodes(), s.MsgLen(), s.Rate(), s.Alpha(), s.ArrivalName(), s.SpatialName(), s.SetString())
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
		if pred.Saturated {
			fmt.Println("model:         SATURATED at this rate")
			return
		}
		fmt.Printf("model:         unicast %.3f cycles (rel err %.2f%%)",
			pred.Unicast, 100*noc.RelErr(pred.Unicast, res.Unicast))
		if s.Alpha() > 0 {
			fmt.Printf(", multicast %.3f cycles (rel err %.2f%%)",
				pred.Multicast, 100*noc.RelErr(pred.Multicast, res.Multicast))
		}
		fmt.Println()
	}
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
