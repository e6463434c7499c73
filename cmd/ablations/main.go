// Command ablations runs the design-choice studies from DESIGN.md §7:
//
//   - abl-oneport: all-port vs one-port Quarc routers under broadcast
//     traffic (the Fig. 1 motivation for multi-port routers)
//   - abl-spidergon: Quarc true broadcast vs Spidergon broadcast-by-
//     consecutive-unicasts (Sec. 3.2)
//   - abl-service: the paper's Eq. 6 service recurrence vs the exact
//     tail-release holding time
//   - ext-mesh: model validity on multi-port mesh and torus (Sec. 5
//     future work)
//   - workload: the same offered load under every arrival process and a
//     selection of permutation patterns (simulator only — the model's
//     M/G/1 machinery is Poisson-only by construction)
//
// Example:
//
//	ablations -which all -n 16 -msg 32
package main

import (
	"flag"
	"fmt"
	"log"
	"slices"
	"strings"

	"quarc/noc"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("ablations: ")

	studies := []string{"oneport", "spidergon", "service", "mesh", "workload", "all"}
	which := flag.String("which", "all", "study to run: "+strings.Join(studies, ", "))
	n := flag.Int("n", 16, "Quarc network size")
	msg := flag.Int("msg", 32, "message length in flits")
	alpha := flag.Float64("alpha", 0.05, "multicast fraction")
	quick := flag.Bool("quick", false, "shorter simulations")
	flag.Parse()
	if !slices.Contains(studies, *which) {
		log.Fatalf("unknown study %q (valid: %s)", *which, strings.Join(studies, ", "))
	}

	effort := noc.DefaultEffort()
	if *quick {
		effort = noc.QuickEffort()
	}

	run := func(name string) bool { return *which == "all" || *which == name }

	if run("oneport") {
		fmt.Printf("== all-port vs one-port Quarc (N=%d, M=%d, alpha=%.0f%% broadcast) ==\n",
			*n, *msg, *alpha*100)
		series, err := noc.OnePortAblation(*n, *msg, *alpha,
			[]float64{0.001, 0.002, 0.004}, effort)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Print(noc.SeriesTable(series))
		fmt.Println()
	}

	if run("spidergon") {
		fmt.Printf("== Quarc broadcast vs Spidergon broadcast-by-unicast (N=%d, M=%d) ==\n", *n, *msg)
		series, err := noc.SpidergonComparison(*n, *msg, *alpha,
			[]float64{0.0005, 0.001}, effort)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Print(noc.SeriesTable(series))
		fmt.Println()
	}

	if run("service") {
		fmt.Printf("== Eq. 6 vs tail-release service recurrence (N=%d, M=%d, unicast) ==\n", *n, *msg)
		points, err := noc.ServiceFormulaAblation(*n, *msg,
			[]float64{0.002, 0.004, 0.006, 0.008}, effort)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Print(noc.ServiceTable(points))
		fmt.Println()
	}

	if run("mesh") {
		fmt.Println("== model validity on mesh and torus (4x4, M=16) ==")
		series, err := noc.MeshExtension(4, 4, 16, *alpha,
			[]float64{0.002, 0.004, 0.008}, effort)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Print(noc.SeriesTable(series))
		fmt.Println()
	}

	if run("workload") {
		fmt.Printf("== workload diversity: arrival x spatial pattern (N=%d, M=%d, sim unicast latency) ==\n",
			*n, *msg)
		series, err := noc.WorkloadAblation(*n, *msg,
			[]float64{0.002, 0.004, 0.006}, effort)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Print(noc.SimSeriesTable(series))
	}
}
