package noc

import (
	"fmt"
	"math"
	"reflect"
	"testing"
)

// same compares two results (or whole sweep results) for bitwise
// equality. reflect.DeepEqual would report NaN != NaN for the CI fields
// of single runs; the %+v rendering round-trips every float64 exactly and
// prints all NaNs alike.
func same(a, b any) bool { return fmt.Sprintf("%+v", a) == fmt.Sprintf("%+v", b) }

// repScenario is the replication tests' scenario with the given
// Replications and Parallelism.
func repScenario(t *testing.T, reps, parallelism int) *Scenario {
	t.Helper()
	s, err := Spec{
		Topology: "quarc", N: 16, MsgLen: 16, Rate: 0.003, Alpha: 0.05,
		Pattern: "localized", Port: PortL, Dests: 3,
		Seed: 77, Warmup: 500, Measure: 5000,
		Replications: reps, Parallelism: parallelism,
	}.Scenario()
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestReplicationsDeterministicAcrossParallelism pins the replication
// satellite: Replications(n) must produce the identical aggregated Result
// for Parallelism(1) and Parallelism(8) — scheduling must never leak into
// the numbers.
func TestReplicationsDeterministicAcrossParallelism(t *testing.T) {
	run := func(k int) Result {
		s := repScenario(t, 6, k)
		r, err := Simulator{}.Evaluate(s)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	serial := run(1)
	parallel := run(8)
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatalf("aggregated results differ between k=1 and k=8:\n%+v\nvs\n%+v", serial, parallel)
	}
	if serial.Replications != 6 {
		t.Fatalf("Replications = %d, want 6", serial.Replications)
	}
	if serial.UnicastN == 0 || math.IsNaN(serial.Unicast) {
		t.Fatal("aggregate lost the unicast estimate")
	}
	if math.IsNaN(serial.UnicastCI) {
		t.Fatal("across-replication CI missing with 6 replications")
	}
}

// TestSingleReplicationMatchesPlainRun pins backward compatibility:
// Replications(1) is bitwise-identical to not using the option at all.
func TestSingleReplicationMatchesPlainRun(t *testing.T) {
	plain, err := Simulator{}.Evaluate(repScenario(t, 0, 0))
	if err != nil {
		t.Fatal(err)
	}
	one, err := Simulator{}.Evaluate(repScenario(t, 1, 4))
	if err != nil {
		t.Fatal(err)
	}
	if !same(plain, one) {
		t.Fatalf("Replications(1) diverged from the plain run:\n%+v\nvs\n%+v", plain, one)
	}
}

// TestReplicationsUseDistinctSeeds makes sure the derived seeds actually
// vary the runs (otherwise the CI would collapse to zero and the
// aggregate would be a lie).
func TestReplicationsUseDistinctSeeds(t *testing.T) {
	s := repScenario(t, 4, 1)
	r, err := Simulator{}.Evaluate(s)
	if err != nil {
		t.Fatal(err)
	}
	if r.UnicastCI == 0 {
		t.Fatal("zero across-replication CI: replications look identical")
	}
	if seen := map[uint64]bool{}; true {
		for rep := 0; rep < 4; rep++ {
			seed := repSeed(77, rep)
			if seen[seed] {
				t.Fatalf("replication seed %d repeats", seed)
			}
			seen[seed] = true
		}
	}
}

// TestSweepWithReplicationsDeterministicAcrossWorkers drives the
// (point x replication) job pool: the whole sweep result must be
// identical for 1 and 8 workers, model results must appear exactly once
// per point, and simulator results must carry the aggregation.
func TestSweepWithReplicationsDeterministicAcrossWorkers(t *testing.T) {
	sweep := func(workers int) SweepResult {
		s := repScenario(t, 3, 0)
		out, err := Sweep(s, SweepOptions{Rates: []float64{0.001, 0.003}, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	one := sweep(1)
	eight := sweep(8)
	if !same(one, eight) {
		t.Fatalf("sweep results differ between 1 and 8 workers:\n%+v\nvs\n%+v", one, eight)
	}
	for _, pt := range one.Points {
		sim, ok := pt.Get("simulator")
		if !ok {
			t.Fatal("sweep point lost the simulator result")
		}
		if sim.Replications != 3 {
			t.Fatalf("sweep simulator result aggregated %d replications, want 3", sim.Replications)
		}
		model, ok := pt.Get("model")
		if !ok {
			t.Fatal("sweep point lost the model result")
		}
		if model.Replications != 0 {
			t.Fatal("deterministic model result should not be replicated")
		}
	}
}

// TestSweepWithoutReplicationsUnchanged pins that a replication-free sweep
// is bitwise-identical to a Replications(1) sweep — the job restructure
// must not have moved any seed.
func TestSweepWithoutReplicationsUnchanged(t *testing.T) {
	plain, err := Sweep(repScenario(t, 0, 0), SweepOptions{Rates: []float64{0.002}, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	one, err := Sweep(repScenario(t, 1, 0), SweepOptions{Rates: []float64{0.002}, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !same(plain, one) {
		t.Fatalf("Replications(1) sweep diverged:\n%+v\nvs\n%+v", plain, one)
	}
}
