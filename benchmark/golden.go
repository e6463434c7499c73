package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
)

// goldenJSON pins, per workload, the digests of the checked operations'
// output bytes at the default seed: a change that alters a simulated
// statistic fails operations instead of posting a speed-up.
//
//go:embed golden.json
var goldenJSON []byte

func goldenFailures(r *run) []opFailure {
	var golden map[string][]string
	if err := json.Unmarshal(goldenJSON, &golden); err != nil {
		return []opFailure{{0, "golden.json: " + err.Error()}}
	}
	want := golden[r.workload]
	if len(r.digests) > len(want) {
		return []opFailure{{0, fmt.Sprintf("golden.json pins %d digests, the run produced %d", len(want), len(r.digests))}}
	}
	var fails []opFailure
	for i, d := range r.digests {
		if got := fmt.Sprintf("%016x", d); got != want[i] {
			fails = append(fails, opFailure{i, fmt.Sprintf("output digest %s differs from golden.json (%s)", got, want[i])})
		}
	}
	return fails
}

// writeGolden records the default-seed digests of the given workloads.
func writeGolden(path string, ws []entry, seconds float64) error {
	golden := make(map[string][]string)
	for _, w := range ws {
		r, err := measure(w, defaultSeed, seconds, false)
		if err != nil {
			return err
		}
		if len(r.failures) > 0 {
			return fmt.Errorf("%s: op %d: %s", r.workload, r.failures[0].op, r.failures[0].reason)
		}
		for _, d := range r.digests {
			golden[r.workload] = append(golden[r.workload], fmt.Sprintf("%016x", d))
		}
	}
	data, err := json.MarshalIndent(golden, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
