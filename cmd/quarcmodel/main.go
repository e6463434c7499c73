// Command quarcmodel evaluates the paper's analytical model for one Quarc
// configuration and prints the predicted unicast and multicast latencies.
// It is the flag-driven, model-only entry point; its flags fill a Spec,
// so quarcsim -spec with "evaluator":"model" answers the same question
// from a document.
//
// Example:
//
//	quarcmodel -n 64 -msg 32 -rate 0.001 -alpha 0.05 -dests 8 -random
package main

import (
	"flag"
	"fmt"
	"log"

	"quarc/noc"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("quarcmodel: ")

	n := flag.Int("n", 16, "network size (multiple of 4, >= 8)")
	msg := flag.Int("msg", 32, "message length in flits")
	rate := flag.Float64("rate", 0.001, "message generation rate per node (messages/cycle)")
	alpha := flag.Float64("alpha", 0.05, "multicast fraction of generated messages")
	dests := flag.Int("dests", 4, "number of multicast destinations")
	random := flag.Bool("random", false, "random destination set (default: localized on the L rim)")
	seed := flag.Uint64("seed", 1, "seed for the random destination set")
	broadcast := flag.Bool("broadcast", false, "multicast to every node (overrides -dests)")
	verbose := flag.Bool("v", false, "print per-port branch details")
	flag.Parse()

	sp := noc.Spec{Topology: "quarc", N: *n, MsgLen: *msg, Rate: *rate, Alpha: *alpha, Detail: *verbose}
	switch {
	case *alpha == 0:
		// no destination set needed
	case *broadcast:
		sp.Pattern = "broadcast"
	case *random:
		sp.Pattern, sp.Dests, sp.SetSeed = "random", *dests, *seed
	default:
		sp.Pattern, sp.Dests, sp.Port = "localized", *dests, noc.PortL
	}
	s, err := sp.Scenario()
	if err == nil {
		// The wire form reads a zero as "use the default"; -n 0 and
		// -msg 0 are refused instead.
		s, err = s.With(noc.Quarc(*n), noc.MsgLen(*msg))
	}
	if err != nil {
		log.Fatal(err)
	}

	pred, err := noc.Model{}.Evaluate(s)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("configuration: N=%d msg=%d flits rate=%g alpha=%g set={%s}\n",
		*n, *msg, *rate, *alpha, s.SetString())
	fmt.Printf("fixed point:   iterations=%d converged=%v max channel utilization=%.4f\n",
		pred.Iterations, pred.Converged, pred.MaxRho)
	if pred.Saturated {
		fmt.Println("result:        SATURATED — the configuration is outside the model's stability region")
		return
	}
	fmt.Printf("unicast:       average latency %.3f cycles\n", pred.Unicast)
	if *alpha > 0 {
		fmt.Printf("multicast:     average latency %.3f cycles\n", pred.Multicast)
	}
	if *verbose && *alpha > 0 {
		fmt.Println("branches from node 0:")
		for _, b := range pred.Branches {
			fmt.Printf("  port %-2s  hops=%-3d targets=%v  expected path wait=%.3f cycles\n",
				b.PortName, b.Hops, b.Targets, b.Wait)
		}
	}
}
