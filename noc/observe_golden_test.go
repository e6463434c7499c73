package noc

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"
)

var updateObserve = flag.Bool("update-observe", false, "rewrite testdata/observe.golden from the current simulator")

// observeSpecs are the scenarios whose observation outputs the golden
// pins: every topology family, the multicast patterns, the arbitration
// and drain knobs, a saturated point, replications and the three
// observers at once. Each enables the detail breakdown and a trace.
var observeSpecs = []struct{ name, spec string }{
	{"quarc16-localized", `{"topology":"quarc","n":16,"pattern":"localized","dests":4,"rate":0.004,"alpha":0.1,"msglen":16,"seed":3,"warmup":1000,"measure":10000,"detail":true,"trace_node":2,"trace_limit":300}`},
	{"quarc16-random", `{"topology":"quarc","n":16,"pattern":"random","dests":5,"set_seed":9,"rate":0.003,"alpha":0.1,"msglen":16,"seed":4,"warmup":1000,"measure":10000,"detail":true,"trace_node":7,"trace_limit":300}`},
	{"quarc-oneport", `{"topology":"quarc-oneport","n":16,"pattern":"localized","dests":3,"rate":0.002,"alpha":0.05,"msglen":16,"seed":5,"warmup":1000,"measure":10000,"detail":true,"trace_node":0,"trace_limit":300}`},
	{"spidergon16", `{"topology":"spidergon","n":16,"pattern":"localized","dests":4,"rate":0.002,"alpha":0.05,"msglen":16,"seed":6,"warmup":1000,"measure":10000,"detail":true,"trace_node":9,"trace_limit":300}`},
	{"mesh4x4", `{"topology":"mesh","w":4,"h":4,"pattern":"highlow","high":[1,3],"low":[2],"rate":0.004,"alpha":0.05,"msglen":16,"seed":7,"warmup":1000,"measure":10000,"detail":true,"trace_node":5,"trace_limit":300}`},
	{"hypercube4", `{"topology":"hypercube","dims":4,"rate":0.004,"msglen":16,"seed":8,"warmup":1000,"measure":10000,"detail":true,"trace_node":11,"trace_limit":300}`},
	{"quarc16-broadcast", `{"topology":"quarc","n":16,"pattern":"broadcast","rate":0.002,"alpha":0.05,"msglen":16,"seed":9,"warmup":1000,"measure":10000,"detail":true,"trace_node":1,"trace_limit":300}`},
	{"mc-priority", `{"topology":"quarc","n":16,"pattern":"localized","dests":4,"rate":0.006,"alpha":0.2,"msglen":16,"seed":10,"warmup":1000,"measure":10000,"detail":true,"mc_priority":true,"trace_node":3,"trace_limit":300}`},
	{"drain", `{"topology":"quarc","n":16,"pattern":"localized","dests":4,"rate":0.005,"alpha":0.1,"msglen":32,"seed":11,"warmup":1000,"measure":10000,"detail":true,"drain":true,"trace_node":4,"trace_limit":300}`},
	{"saturated", `{"topology":"quarc","n":16,"pattern":"localized","dests":4,"rate":0.03,"alpha":0.1,"msglen":32,"seed":12,"warmup":500,"measure":10000,"sat_queue":30,"detail":true,"trace_node":6,"trace_limit":300}`},
	{"replications3", `{"topology":"quarc","n":16,"pattern":"localized","dests":4,"rate":0.003,"alpha":0.1,"msglen":16,"seed":13,"warmup":1000,"measure":10000,"replications":3,"detail":true,"trace_node":8,"trace_limit":300,"metrics":true,"metrics_buckets":8}`},
	{"detail-trace-metrics", `{"topology":"quarc","n":16,"pattern":"localized","dests":4,"rate":0.004,"alpha":0.1,"msglen":16,"seed":14,"warmup":1000,"measure":10000,"detail":true,"trace_node":10,"trace_limit":2000,"metrics":true,"metrics_buckets":16}`},
}

// observeLine evaluates one spec on the simulator and digests its three
// observation outputs: the trace text, the detail summary and the metrics
// series' JSON.
func observeLine(t *testing.T, name, spec string) string {
	t.Helper()
	sp, err := ParseSpec([]byte(spec))
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	s, err := sp.Scenario()
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	res, err := Simulator{}.Evaluate(s)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if res.TraceText == "" || res.DetailSummary == "" {
		t.Fatalf("%s: empty trace or detail output", name)
	}
	series, err := json.Marshal(res.Series)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return fmt.Sprintf("%s trace=%x detail=%x series=%x", name,
		sha256.Sum256([]byte(res.TraceText)), sha256.Sum256([]byte(res.DetailSummary)), sha256.Sum256(series))
}

// TestObservationGolden pins the bytes of every observation output: the
// trace, the detail breakdown and the metrics series must not move when
// the simulator's instrumentation is restructured. Regenerate with
// go test -run TestObservationGolden -update-observe ./noc/ only for a
// deliberate change of what is observed.
func TestObservationGolden(t *testing.T) {
	const path = "testdata/observe.golden"
	var got bytes.Buffer
	for _, c := range observeSpecs {
		fmt.Fprintln(&got, observeLine(t, c.name, c.spec))
	}
	if *updateObserve {
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	wantLines := map[string]string{}
	sc := bufio.NewScanner(bytes.NewReader(want))
	for sc.Scan() {
		name, _, _ := strings.Cut(sc.Text(), " ")
		wantLines[name] = sc.Text()
	}
	if len(wantLines) != len(observeSpecs) {
		t.Errorf("%s holds %d scenarios, the test runs %d", path, len(wantLines), len(observeSpecs))
	}
	for _, line := range strings.Split(strings.TrimSuffix(got.String(), "\n"), "\n") {
		name, _, _ := strings.Cut(line, " ")
		if line != wantLines[name] {
			t.Errorf("observation outputs moved:\n got %s\nwant %s", line, wantLines[name])
		}
	}
}
