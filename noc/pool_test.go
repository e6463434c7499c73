package noc

import (
	"bytes"
	"encoding/json"
	"testing"
)

// TestPooledSimulatorAcrossShapes pins the pooled simulator's one path:
// a single NewPooledSimulator rebinds its network and workload to every
// scenario it runs, whatever the shape — Quarc 16, 32 and 64, mesh,
// torus, hypercube, spidergon and a broadcast set, under poisson,
// bernoulli and onoff arrivals, growing and shrinking, with drain,
// multicast priority, a saturated run, replications and the trace,
// detail and metrics hooks among them — and each Result's JSON is byte
// for byte the stateless Simulator's on the same scenario.
func TestPooledSimulatorAcrossShapes(t *testing.T) {
	const window = `,"warmup":500,"measure":5000`
	docs := []string{
		`{"topology":"quarc","n":16,"msglen":16,"pattern":"localized","dests":4,"alpha":0.05,"rate":0.006,"seed":1` + window + `}`,
		`{"topology":"quarc","n":64,"msglen":32,"pattern":"localized","dests":8,"alpha":0.05,"rate":0.0006,"arrival":"bernoulli","seed":2` + window + `}`,
		`{"topology":"mesh","w":4,"h":4,"msglen":8,"rate":0.01,"seed":3,"drain":true` + window + `}`,
		`{"topology":"quarc","n":32,"msglen":16,"pattern":"random","dests":6,"set_seed":7,"alpha":0.05,"rate":0.003,"arrival":"onoff","burst_len":8,"duty_cycle":0.5,"seed":4` + window + `}`,
		`{"topology":"torus","w":4,"h":4,"msglen":8,"rate":0.012,"spatial":"transpose","seed":5` + window + `}`,
		`{"topology":"hypercube","dims":5,"msglen":8,"rate":0.008,"seed":6,"mc_priority":true` + window + `}`,
		`{"topology":"spidergon","n":16,"msglen":16,"rate":0.004,"seed":7,"replications":3,"parallelism":2` + window + `}`,
		`{"topology":"quarc","n":16,"msglen":16,"pattern":"broadcast","alpha":0.03,"rate":0.004,"seed":8,"trace_node":2,"trace_limit":20,"detail":true,"metrics":true` + window + `}`,
		`{"topology":"quarc","n":64,"msglen":32,"pattern":"localized","dests":8,"alpha":0.05,"rate":0.02,"sat_queue":50,"seed":9` + window + `}`,
		`{"topology":"mesh","w":3,"h":3,"msglen":8,"rate":0.01,"seed":10` + window + `}`,
		`{"topology":"quarc","n":16,"msglen":16,"pattern":"localized","dests":4,"alpha":0.05,"rate":0.006,"seed":1` + window + `}`,
	}
	pooled := NewPooledSimulator()
	saturated := 0
	for _, doc := range docs {
		sp, err := ParseSpec([]byte(doc))
		if err != nil {
			t.Fatalf("%s: %v", doc, err)
		}
		eval := func(ev Evaluator) ([]byte, Result) {
			t.Helper()
			s, err := sp.Scenario()
			if err != nil {
				t.Fatalf("%s: %v", doc, err)
			}
			r, err := ev.Evaluate(s)
			if err != nil {
				t.Fatalf("%s: %v", doc, err)
			}
			b, err := json.Marshal(r)
			if err != nil {
				t.Fatal(err)
			}
			return b, r
		}
		got, r := eval(pooled)
		want, _ := eval(Simulator{})
		if !bytes.Equal(got, want) {
			t.Errorf("%s: the pooled simulator's Result\n %s\ndiffers from the stateless one's\n %s", doc, got, want)
		}
		if r.Completed == 0 {
			t.Errorf("%s: nothing completed, so the comparison shows little", doc)
		}
		if r.Saturated {
			saturated++
		}
	}
	if saturated != 1 {
		t.Errorf("%d saturated runs, want exactly the one meant to saturate", saturated)
	}
}
