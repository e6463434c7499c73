package service_test

import (
	"context"
	"encoding/json"
	"fmt"
	"log"

	"quarc/noc"
	"quarc/noc/service"
)

// The engine quarcd serves over HTTP, in process: a Spec is evaluated
// cold, served again from the content-addressed cache with the same
// bytes, and swept across a rate grid on the shared worker pool, where
// every point becomes its own cache entry.
func ExampleEvaluator() {
	// This exact document also works as `quarcsim -spec` input and as a
	// quarcd request body.
	sp := noc.Spec{
		Topology: "quarc", N: 32,
		Pattern: "localized", Dests: 4,
		MsgLen: 32, Rate: 0.002, Alpha: 0.05,
		Seed: 2024, Warmup: 10000, Measure: 100000,
	}
	ev := service.New(service.Config{Workers: 2, CacheEntries: 256})
	defer ev.Close()
	ctx := context.Background()

	cold, src, err := ev.Evaluate(ctx, sp)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-8s unicast %.1f  multicast %.1f cycles\n", src, cold.Unicast, cold.Multicast)
	hot, src, err := ev.Evaluate(ctx, sp)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-8s unicast %.1f  multicast %.1f cycles\n", src, hot.Unicast, hot.Multicast)
	cb, _ := json.Marshal(cold)
	hb, _ := json.Marshal(hot)
	fmt.Println("bitwise identical:", string(cb) == string(hb))

	rates := []float64{0.001, 0.002, 0.003, 0.004}
	results, err := ev.Sweep(ctx, sp, rates)
	if err != nil {
		log.Fatal(err)
	}
	for i, r := range results {
		fmt.Printf("rate %.3f: unicast %.1f  multicast %.1f cycles\n", rates[i], r.Unicast, r.Multicast)
	}

	st := ev.Stats()
	fmt.Printf("%d evaluations, %d cache hits, %d results cached, %d compiled topologies\n",
		st.Evaluations, st.Hits, st.CachedResults, st.CachedScenarios)
	// Output:
	// computed unicast 41.8  multicast 40.9 cycles
	// cache    unicast 41.8  multicast 40.9 cycles
	// bitwise identical: true
	// rate 0.001: unicast 39.5  multicast 38.6 cycles
	// rate 0.002: unicast 41.8  multicast 40.9 cycles
	// rate 0.003: unicast 45.5  multicast 44.4 cycles
	// rate 0.004: unicast 50.9  multicast 51.1 cycles
	// 4 evaluations, 2 cache hits, 4 results cached, 1 compiled topologies
}
