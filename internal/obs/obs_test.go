package obs

import (
	"testing"

	"quarc/internal/routing"
	"quarc/internal/topology"
	"quarc/internal/traffic"
	"quarc/internal/wormhole"
)

// countHook tallies firings per hook position.
type countHook map[wormhole.HookPos]int

func (h countHook) Func(c wormhole.HookCtx) { h[c.Pos]++ }

// TestCollectorAttachedEverywhereRecordsFiveKinds pins the record stream
// of a collector attached with no positions: one record per firing of
// the five positions that have a Kind, and nothing for the fold and
// branch positions, which fire in the same run.
func TestCollectorAttachedEverywhereRecordsFiveKinds(t *testing.T) {
	q, err := topology.NewQuarc(16)
	if err != nil {
		t.Fatal(err)
	}
	rt := routing.NewQuarcRouter(q)
	set, err := rt.LocalizedSet(topology.PortL, 4)
	if err != nil {
		t.Fatal(err)
	}
	w, err := traffic.NewWorkload(rt, traffic.Spec{Rate: 0.004, MulticastFrac: 0.1, Set: set}, 3)
	if err != nil {
		t.Fatal(err)
	}
	nw, err := wormhole.New(rt.Graph(), w, wormhole.Config{MsgLen: 16, Warmup: 500, Measure: 5000})
	if err != nil {
		t.Fatal(err)
	}
	mem := NewMemorySink()
	c := NewCollector(mem, 0)
	fired := countHook{}
	nw.Attach(c)
	nw.Attach(fired)
	nw.Run()
	recorded := map[Kind]int{}
	for _, r := range mem.Records() {
		recorded[r.Kind]++
	}
	for k := KindInjected; k <= KindQueue; k++ {
		if n := fired[wormhole.HookPos(k)]; n == 0 || recorded[k] != n {
			t.Errorf("kind %d: %d records for %d firings", k, recorded[k], n)
		}
	}
	if len(recorded) != 5 {
		t.Errorf("recorded kinds %v, want exactly the five", recorded)
	}
	if fired[wormhole.HookBranchDone] == 0 || fired[wormhole.HookSampleFolded] == 0 {
		t.Errorf("the fold and branch positions never fired (%v): the check was vacuous", fired)
	}
}
