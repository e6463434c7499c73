// Command benchmark is the repository's calibrated benchmark: five
// workloads over the simulator, the figure sweep and the serving stack,
// every timing scaled by an in-run calibrator kernel so that a shared
// builder's speed swings cancel. README.md in this directory is the
// glossary; BENCHMARK.json at the repository root is the contract.
//
//	bash benchmark/run.sh --workload sim-mid --seed 1 --seconds 10 --trace 0
//	bash benchmark/run.sh --workload sim-mid --trace 1 --out /tmp/t   # per-layer run
//	bash benchmark/run.sh --selfcheck 10                              # steadiness gate
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
)

// report is the one JSON object a run prints as its last line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload to run (default: all five, one report line each)")
	seed := flag.Uint64("seed", defaultSeed, "seed of every generated input; the default seed also checks golden.json")
	seconds := flag.Float64("seconds", 10, "wall time of the timed phase")
	trace := flag.Int("trace", 0, "1 = the traced run: spans on, per-layer metrics reported")
	out := flag.String("out", "", "directory to write trace.json to after a traced run (default: not written)")
	scratch := flag.String("scratch", ".bench_build/tmp", "directory for the store probe's files, removed afterwards")
	selfcheck := flag.Int("selfcheck", 0, "run K untraced runs per workload and fail if any end-to-end spread exceeds its bound")
	withRaw := flag.Bool("raw", false, "also report the timing metrics without the calibrator, as raw.* (selfcheck evidence)")
	fit := flag.Float64("fit", 0, "record for this many seconds per workload and print the fitted calibrator sensitivities")
	updateGolden := flag.String("update-golden", "", "write the default-seed digests to this file and exit")
	flag.Parse()
	if flag.NArg() > 0 {
		fatal(fmt.Errorf("unexpected argument %q", flag.Arg(0)))
	}

	// One busy thread: the second vCPU of the builder absorbs the
	// neighbours and the runtime's background work.
	runtime.GOMAXPROCS(1)

	var selected []entry
	for _, w := range workloads() {
		if *name == "" || *name == w.name() {
			selected = append(selected, w)
		}
	}
	if len(selected) == 0 {
		fatal(fmt.Errorf("unknown workload %q", *name))
	}
	switch {
	case *selfcheck > 0:
		if err := runSelfcheck(selected, *selfcheck, *seed, *seconds); err != nil {
			fatal(err)
		}
		return
	case *fit > 0:
		for _, w := range selected {
			if err := fitSensitivity(w, *seed, *fit); err != nil {
				fatal(err)
			}
		}
		return
	case *updateGolden != "":
		if err := writeGolden(*updateGolden, selected, *seconds); err != nil {
			fatal(err)
		}
		return
	}

	for _, w := range selected {
		r, err := measure(w, *seed, *seconds, *trace == 1)
		if err != nil {
			fatal(err)
		}
		if *seed == defaultSeed {
			r.failures = append(r.failures, goldenFailures(r)...)
		}
		metrics := r.endToEnd(*withRaw)
		if *trace == 1 {
			metrics = r.perWorkloadLayer()
			layers, err := measureLayers(*scratch, r.tr)
			if err != nil {
				fatal(err)
			}
			for k, v := range layers {
				metrics[k] = v
			}
			if *out != "" {
				if err := r.tr.write(*out); err != nil {
					fatal(err)
				}
			}
			fmt.Printf("spans of %s (ms, wall):\n  %-28s %8s %12s %12s\n", r.workload, "name", "count", "total", "self")
			for _, n := range r.tr.summary() {
				fmt.Printf("  %-28s %8d %12.3f %12.3f\n", n.name, n.count, n.totalMs, n.selfMs)
			}
		}
		printReport(r, metrics)
	}
}

// printReport prints every metric by name and unit, the failures, and
// then the report line the driver reads.
func printReport(r *run, metrics map[string]metric) {
	names := make([]string, 0, len(metrics))
	for k := range metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Printf("workload %s: %d operations, %d failed\n", r.workload, r.attempted, r.failed())
	for _, k := range names {
		fmt.Printf("  %-28s %14.6g %s\n", k, metrics[k].Value, metrics[k].Unit)
	}
	for i, f := range r.failures {
		if i == 10 {
			fmt.Printf("  ... and %d more failures\n", len(r.failures)-i)
			break
		}
		fmt.Printf("  FAILED op %d: %s\n", f.op, f.reason)
	}
	line, err := json.Marshal(report{Correct: r.failed() == 0, Attempted: r.attempted, Failed: r.failed(), Metrics: metrics})
	if err != nil {
		fatal(err) // a NaN metric: nothing measured
	}
	fmt.Printf("%s\n", line)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(1)
}
