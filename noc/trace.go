package noc

import (
	"fmt"
	"io"

	"quarc/internal/traffic"
)

// TraceWorkload is a captured traffic trace: every interarrival gap and
// message the workload emitted during one simulator run. Capture one by
// evaluating a scenario with Record, feed it back with Replay — the
// replayed run is bitwise-identical to the recorded one on the same
// scenario — and persist it with WriteBinary and ReadTraceWorkload, in
// the one binary trace format. Traces make any live workload, including
// the stochastic arrival processes, a reproducible artifact that can be
// shared, diffed and replayed against design variants (e.g. the same
// trace under FIFO vs multicast-priority arbitration).
type TraceWorkload struct {
	tr *traffic.Trace
}

// Empty reports whether the trace holds no recorded run yet.
func (t *TraceWorkload) Empty() bool { return t == nil || t.tr == nil }

// Nodes returns the node count of the network the trace was captured on
// (0 when empty).
func (t *TraceWorkload) Nodes() int {
	if t.Empty() {
		return 0
	}
	return t.tr.N
}

// Messages returns the total number of recorded messages.
func (t *TraceWorkload) Messages() int {
	if t.Empty() {
		return 0
	}
	return t.tr.Messages()
}

// WriteBinary writes the trace in the compact binary format.
func (t *TraceWorkload) WriteBinary(w io.Writer) error {
	if t.Empty() {
		return fmt.Errorf("noc: writing an empty trace")
	}
	return t.tr.WriteBinary(w)
}

// ReadTraceWorkload reads a trace in the binary format WriteBinary
// writes; any other input is an error.
func ReadTraceWorkload(r io.Reader) (*TraceWorkload, error) {
	tr, err := traffic.ReadTrace(r)
	if err != nil {
		return nil, err
	}
	return &TraceWorkload{tr: tr}, nil
}

// Record captures the scenario's workload into t while the simulator
// evaluates it: after Evaluate returns, t holds the full trace of the
// run. Recording needs a single replication (the trace of one seeded
// run) and only the Simulator supports it — the analytical model
// generates no messages to record.
func Record(t *TraceWorkload) Option {
	return func(cfg *config) error {
		if t == nil {
			return fmt.Errorf("noc: Record needs a non-nil trace")
		}
		cfg.record = t
		return nil
	}
}

// Replay drives the simulator from a captured trace instead of the
// scenario's generative workload: gaps and destinations come from the
// trace (Rate, Alpha, Arrival and the spatial pattern are ignored), and
// routes are re-derived from the scenario's routed topology, which must
// match the one the trace was recorded on. Replaying an unmodified trace
// on the recording scenario reproduces its Result exactly.
func Replay(t *TraceWorkload) Option {
	return func(cfg *config) error {
		if t == nil {
			return fmt.Errorf("noc: Replay needs a non-nil trace")
		}
		cfg.replay = t
		return nil
	}
}
