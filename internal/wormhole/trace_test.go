package wormhole

import (
	"fmt"
	"strings"
	"testing"

	"quarc/internal/topology"
	"quarc/internal/traffic"
)

// runTraced runs nw with a trace of node's messages attached and returns
// the recorded events.
func runTraced(nw *Network, node topology.NodeID, limit int) []TraceEvent {
	tr := NewTrace(nw.g, node, limit)
	nw.Attach(tr, tr.Positions()...)
	nw.Run()
	return tr.Events
}

func TestTraceRecordsMessageLifecycle(t *testing.T) {
	rt := quarcRouter(t, 16)
	set, err := rt.LocalizedSet(topology.PortL, 2)
	if err != nil {
		t.Fatal(err)
	}
	w, err := traffic.NewWorkload(rt, traffic.Spec{Rate: 0.002, MulticastFrac: 0.2, Set: set}, 17)
	if err != nil {
		t.Fatal(err)
	}
	nw, err := New(rt.Graph(), w, Config{MsgLen: 16, Warmup: 0, Measure: 20000})
	if err != nil {
		t.Fatal(err)
	}
	trace := runTraced(nw, 3, DefaultTraceLimit)
	if len(trace) == 0 {
		t.Fatal("no trace events recorded")
	}

	// Each traced message: one generate, then for each branch a sequence
	// of grants (possibly with blocks) and one complete.
	perMsg := map[int64][]TraceEvent{}
	for _, e := range trace {
		perMsg[e.Msg] = append(perMsg[e.Msg], e)
	}
	checked := 0
	for id, events := range perMsg {
		if events[0].Kind != TraceGenerate {
			t.Fatalf("msg %d first event is %v, want generate", id, events[0].Kind)
		}
		grants := map[int]int{}
		completes := 0
		last := events[0].Time
		for _, e := range events[1:] {
			if e.Time < last {
				t.Fatalf("msg %d events out of time order", id)
			}
			last = e.Time
			switch e.Kind {
			case TraceGrant:
				grants[e.Branch]++
			case TraceComplete:
				completes++
			}
		}
		// Completed messages (not cut off by the horizon) must have one
		// complete per branch and at least 3 grants per branch
		// (injection + >=1 link + ejection).
		if completes > 0 && completes == len(grants) {
			for b, g := range grants {
				if g < 3 {
					t.Fatalf("msg %d branch %d has %d grants, want >= 3", id, b, g)
				}
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no fully traced messages to check")
	}

	out := FormatTrace(rt.Graph(), trace[:10])
	if !strings.Contains(out, "generate") || !strings.Contains(out, "grant") {
		t.Errorf("trace format incomplete:\n%s", out)
	}
}

func TestTraceOnlyTracesConfiguredNode(t *testing.T) {
	rt := quarcRouter(t, 16)
	w, err := traffic.NewWorkload(rt, traffic.Spec{Rate: 0.002}, 4)
	if err != nil {
		t.Fatal(err)
	}
	nw, err := New(rt.Graph(), w, Config{MsgLen: 16, Warmup: 0, Measure: 10000})
	if err != nil {
		t.Fatal(err)
	}
	trace := runTraced(nw, 5, DefaultTraceLimit)
	if len(trace) == 0 {
		t.Fatal("tracing enabled but no events recorded")
	}
	// Every traced message starts with its generation, and every traced
	// grant of an injection channel is at node 5.
	generated := map[int64]bool{}
	for _, e := range trace {
		switch e.Kind {
		case TraceGenerate:
			generated[e.Msg] = true
		case TraceGrant:
			c := rt.Graph().Channel(e.Channel)
			if c.Kind == topology.Injection && c.Src != 5 {
				t.Fatalf("traced injection grant at node %d, want 5", c.Src)
			}
		}
		if !generated[e.Msg] {
			t.Fatalf("traced %v of msg %d, which node 5 never generated", e.Kind, e.Msg)
		}
	}
}

func TestTraceLimitRespected(t *testing.T) {
	rt := quarcRouter(t, 16)
	w, err := traffic.NewWorkload(rt, traffic.Spec{Rate: 0.01}, 8)
	if err != nil {
		t.Fatal(err)
	}
	nw, err := New(rt.Graph(), w, Config{MsgLen: 16, Warmup: 0, Measure: 50000})
	if err != nil {
		t.Fatal(err)
	}
	if trace := runTraced(nw, 0, 25); len(trace) != 25 {
		t.Fatalf("trace length %d, want capped at 25", len(trace))
	}
}

func TestLeakCheckAfterDrain(t *testing.T) {
	rt := quarcRouter(t, 16)
	set, err := rt.LocalizedSet(topology.PortR, 3)
	if err != nil {
		t.Fatal(err)
	}
	w, err := traffic.NewWorkload(rt, traffic.Spec{Rate: 0.004, MulticastFrac: 0.1, Set: set}, 23)
	if err != nil {
		t.Fatal(err)
	}
	nw, err := New(rt.Graph(), w, Config{MsgLen: 32, Warmup: 1000, Measure: 20000, Drain: true})
	if err != nil {
		t.Fatal(err)
	}
	res := nw.Run()
	if res.Saturated {
		t.Fatal("unexpected saturation")
	}
	// After the drain, only unmeasured stragglers could remain; run the
	// engine dry and the network must be completely empty.
	nw.eng.RunAll()
	if err := nw.leakCheck(); err != nil {
		t.Fatal(err)
	}
}

func TestTraceKindStrings(t *testing.T) {
	want := map[TraceKind]string{
		TraceGenerate: "generate", TraceGrant: "grant",
		TraceBlocked: "blocked", TraceComplete: "complete",
		TraceKind(99): "?",
	}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("%d.String() = %q, want %q", k, k.String(), s)
		}
	}
}

// leakCheck verifies that the network is empty: no channel held, no worm
// queued. Valid after a drained run at sub-saturation load; a non-nil
// error indicates a simulator bug (a leaked channel hold) or an
// incomplete drain.
func (nw *Network) leakCheck() error {
	for i := range nw.channels {
		c := &nw.channels[i]
		if c.holder != nil {
			return fmt.Errorf("wormhole: channel %v still held after drain",
				nw.g.Channel(topology.ChannelID(i)))
		}
		if len(c.queue) != 0 {
			return fmt.Errorf("wormhole: channel %v still has %d queued worms after drain",
				nw.g.Channel(topology.ChannelID(i)), len(c.queue))
		}
	}
	return nil
}
