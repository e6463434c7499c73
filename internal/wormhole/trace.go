package wormhole

import (
	"fmt"
	"strings"

	"quarc/internal/topology"
)

// DefaultTraceLimit is the trace cap for callers that name none.
const DefaultTraceLimit = 10000

// Trace is a hook subscriber recording the life of one node's messages —
// generation, every channel grant and block, and each branch's completion
// — up to a cap. Traces make the wormhole pipeline inspectable: the
// broadcast example prints one to show the four branches racing. Attach
// it at Positions.
type Trace struct {
	// Events holds the recorded steps in emission order.
	Events []TraceEvent
	node   topology.NodeID
	limit  int
	// traced holds the node's messages in flight. queued holds every
	// channel's wait-queue length: a HookQueueChanged that grows it is a
	// block, one that shrinks it a dequeue.
	traced map[int64]bool
	queued []int
}

// NewTrace returns a trace of node's messages on a network over g,
// capped at limit events.
func NewTrace(g *topology.Graph, node topology.NodeID, limit int) *Trace {
	return &Trace{node: node, limit: limit, traced: map[int64]bool{}, queued: make([]int, g.NumChannels())}
}

// Positions lists the hook positions the trace reads.
func (*Trace) Positions() []HookPos {
	return []HookPos{HookWormInjected, HookChannelGranted, HookQueueChanged, HookBranchDone, HookWormEjected}
}

// Func implements Hook.
func (tr *Trace) Func(c HookCtx) {
	if len(tr.Events) >= tr.limit {
		return
	}
	switch c.Pos {
	case HookWormInjected:
		if c.Node == tr.node {
			tr.traced[c.Msg] = true
			tr.add(c, TraceGenerate)
		}
	case HookChannelGranted:
		tr.add(c, TraceGrant)
	case HookQueueChanged:
		grew := c.Occupancy > tr.queued[c.Channel]
		tr.queued[c.Channel] = c.Occupancy
		if grew {
			tr.add(c, TraceBlocked)
		}
	case HookBranchDone:
		tr.add(c, TraceComplete)
	case HookWormEjected:
		delete(tr.traced, c.Msg)
	}
}

func (tr *Trace) add(c HookCtx, kind TraceKind) {
	if tr.traced[c.Msg] {
		tr.Events = append(tr.Events, TraceEvent{Time: c.Time, Msg: c.Msg, Branch: c.Branch, Kind: kind, Channel: c.Channel})
	}
}

// TraceEvent is one step in the life of a traced message: generation, a
// channel grant or block, and completion.
type TraceEvent struct {
	Time    float64
	Msg     int64
	Branch  int
	Kind    TraceKind
	Channel topology.ChannelID
}

// TraceKind labels trace events.
type TraceKind uint8

// Trace event kinds.
const (
	TraceGenerate TraceKind = iota
	TraceGrant
	TraceBlocked
	TraceComplete
)

func (k TraceKind) String() string {
	switch k {
	case TraceGenerate:
		return "generate"
	case TraceGrant:
		return "grant"
	case TraceBlocked:
		return "blocked"
	case TraceComplete:
		return "complete"
	}
	return "?"
}

// FormatTrace renders trace events with channel names resolved against the
// graph.
func FormatTrace(g *topology.Graph, events []TraceEvent) string {
	var b strings.Builder
	for _, e := range events {
		ch := ""
		if e.Kind == TraceGrant || e.Kind == TraceBlocked {
			ch = " " + g.Channel(e.Channel).String()
		}
		fmt.Fprintf(&b, "t=%9.2f msg=%d branch=%d %-9s%s\n", e.Time, e.Msg, e.Branch, e.Kind, ch)
	}
	return b.String()
}
