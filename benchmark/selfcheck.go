package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// contract is the part of BENCHMARK.json the self-check reads: the
// bounds live there and nowhere else.
type contract struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// runSelfcheck repeats what the driver does to accept the benchmark: k
// sets of one fresh-process untraced run per workload, each set on
// another seed; then, per workload and end-to-end metric, the quartile
// spread of the k values against the metric's bound, and the drift of
// the second half's median against the first half's. setup_s is gated
// on drift only, as the driver gates it. The raw.* rows are the same
// timings without the calibrator, printed as evidence and never gated.
func runSelfcheck(ws []entry, k int, seed uint64, seconds float64) error {
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return fmt.Errorf("selfcheck runs from the repository root: %w", err)
	}
	var c contract
	if err := json.Unmarshal(data, &c); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}

	values := make(map[string]map[string][]float64) // workload -> metric -> one value per set
	for set := 0; set < k; set++ {
		for _, w := range ws {
			cmd := exec.Command(self, "--workload", w.name(), "--seed", strconv.FormatUint(seed+uint64(set), 10),
				"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--raw")
			cmd.Stderr = os.Stderr
			out, err := cmd.Output()
			if err != nil {
				return fmt.Errorf("%s, set %d: %w", w.name(), set, err)
			}
			lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
			var rep report
			if err := json.Unmarshal(lines[len(lines)-1], &rep); err != nil {
				return fmt.Errorf("%s, set %d: report line: %w", w.name(), set, err)
			}
			if !rep.Correct {
				return fmt.Errorf("%s, set %d: %d of %d operations failed", w.name(), set, rep.Failed, rep.Attempted)
			}
			if values[w.name()] == nil {
				values[w.name()] = make(map[string][]float64)
			}
			for name, m := range rep.Metrics {
				values[w.name()][name] = append(values[w.name()][name], m.Value)
			}
			fmt.Fprintf(os.Stderr, "set %d/%d %s done\n", set+1, k, w.name())
		}
	}

	bad := 0
	fmt.Printf("%-11s %-16s %12s %12s %12s %8s %8s %8s %8s\n",
		"workload", "metric", "q1", "median", "q3", "spread%", "raw%", "drift%", "bound%")
	for _, w := range ws {
		for _, m := range c.EndToEnd {
			v := values[w.name()][m.Name]
			q1, q2, q3, spread := quartileSpread(v)
			raw := ""
			if rv := values[w.name()]["raw."+m.Name]; rv != nil {
				_, _, _, rs := quartileSpread(rv)
				raw = fmt.Sprintf("%.2f", 100*rs)
			}
			// Drift is how much worse the second half's median reads.
			drift := median(v[k/2:])/median(v[:k/2]) - 1
			if m.Better == "higher" {
				drift = -drift
			}
			verdict := ""
			if (spread > m.Bound && m.Name != "setup_s") || (k >= 4 && drift > m.Bound) {
				verdict = "  EXCEEDS"
				bad++
			}
			fmt.Printf("%-11s %-16s %12.6g %12.6g %12.6g %8.2f %8s %8.2f %8.2f%s\n",
				w.name(), m.Name, q1, q2, q3, 100*spread, raw, 100*drift, 100*m.Bound, verdict)
		}
	}
	if bad > 0 {
		return fmt.Errorf("selfcheck: %d workload x metric pairs exceed their bound", bad)
	}
	fmt.Println(strings.Repeat("-", 40) + "\nselfcheck: every spread and drift is within its bound")
	return nil
}
