package noc

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"testing"
)

// splitmix64 and opSeed are copied from benchmark/workloads.go, which
// lives in its own module: the seed of operation i (or of request k
// inside it) under the run seed.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ x>>30) * 0xBF58476D1CE4E5B9
	x = (x ^ x>>27) * 0x94D049BB133111EB
	return x ^ x>>31
}

func opSeed(seed uint64, i, k int) uint64 {
	return 1 + splitmix64(splitmix64(seed^uint64(int64(i))*0x9E3779B97F4A7C15)+uint64(k))&(1<<48-1)
}

// TestWorkloadDigests rebuilds, from Specs, the checked operations of the
// benchmark's sweep-fig, sim-mid and sim-knee workloads at its default
// seed, and compares each operation's FNV-1a digest with the one
// ../benchmark/golden.json pins. That file is the benchmark's own output
// check, so a change that moves a number it digests fails here as well.
// The serve-* workloads wrap the same Results in handler bytes and are
// not rebuilt.
func TestWorkloadDigests(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "benchmark", "golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	var golden map[string][]string
	if err := json.Unmarshal(data, &golden); err != nil {
		t.Fatal(err)
	}
	const seed, checkedOps = 1, 8 // the benchmark's defaultSeed and checkedOps
	check := func(workload string, op func(t *testing.T, i int) []byte) {
		t.Run(workload, func(t *testing.T) {
			want := golden[workload]
			if len(want) != checkedOps {
				t.Fatalf("golden.json pins %d digests, want %d", len(want), checkedOps)
			}
			for i := range checkedOps {
				h := fnv.New64a()
				h.Write(op(t, i))
				if got := fmt.Sprintf("%016x", h.Sum64()); got != want[i] {
					t.Errorf("operation %d: digest %s, golden.json pins %s", i, got, want[i])
				}
			}
		})
	}

	var panels []Panel
	for _, id := range []string{"fig6-a", "fig6-c", "fig7-a", "fig7-c"} {
		p, err := PanelByID(id)
		if err != nil {
			t.Fatal(err)
		}
		p.Points = 4
		panels = append(panels, p)
	}
	check("sweep-fig", func(t *testing.T, i int) []byte {
		e := QuickEffort()
		e.Seed = opSeed(seed, i, 0)
		res, err := RunFigurePanels(panels, e, 1)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := WriteFiguresJSON(&buf, res); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	})

	for _, w := range []struct {
		name          string
		frac, measure float64
	}{{"sim-mid", 0.40, 700000}, {"sim-knee", 0.85, 330000}} {
		sp := Spec{
			Topology: "quarc", N: 64, MsgLen: 32, Alpha: 0.05,
			Pattern: "localized", Port: PortL, Dests: 8,
			Warmup: 20000, Measure: w.measure,
		}
		base, err := sp.Scenario()
		if err != nil {
			t.Fatal(err)
		}
		sat, err := SaturationRate(base)
		if err != nil {
			t.Fatal(err)
		}
		sp.Rate = w.frac * sat
		check(w.name, func(t *testing.T, i int) []byte {
			sp.Seed = opSeed(seed, i, 0)
			s, err := sp.Scenario()
			if err != nil {
				t.Fatal(err)
			}
			res, err := Simulator{}.Evaluate(s)
			if err != nil {
				t.Fatal(err)
			}
			b, err := json.Marshal(res)
			if err != nil {
				t.Fatal(err)
			}
			return b
		})
	}
}
