// Package obs is the observability recorder behind the wormhole hook
// API: a Collector implementing wormhole.Hook appends each firing as a
// typed Record into a per-run MemorySink, and an aggregation step folds
// the run's records into the bucketed time Series the noc Result and
// the quarcd /v1/trace endpoint serve.
//
// A collector and its sink serve exactly one network, on that network's
// goroutine; parallel replications each record into their own.
// Aggregation is a pure fold over the record stream in emission order,
// so a recorded run's Series is deterministic.
package obs

import (
	"quarc/internal/wormhole"
)

// Kind classifies a Record; values mirror wormhole.HookPos, one kind per
// hook position, KindInjected through KindQueue.
type Kind uint8

const (
	// KindInjected is a message injection (wormhole.HookWormInjected).
	KindInjected Kind = Kind(wormhole.HookWormInjected)
	// KindEjected is a message completion with its end-to-end latency.
	KindEjected Kind = Kind(wormhole.HookWormEjected)
	// KindGranted is a channel grant.
	KindGranted Kind = Kind(wormhole.HookChannelGranted)
	// KindReleased is a channel release at its logical release time.
	KindReleased Kind = Kind(wormhole.HookChannelReleased)
	// KindQueue is a channel wait-queue occupancy change.
	KindQueue Kind = Kind(wormhole.HookQueueChanged)
)

// Record is one recorded hook firing, flattened to plain scalars.
type Record struct {
	// Kind says which hook position produced the record.
	Kind Kind
	// Multicast marks the involved message as a multicast.
	Multicast bool
	// Node is the injecting node (KindInjected; -1 otherwise).
	Node int32
	// Channel is the involved channel (grant/release/queue; -1 otherwise).
	Channel int32
	// Occupancy is the queue length after a KindQueue change.
	Occupancy int32
	// Msg is the id of the involved message.
	Msg int64
	// Time is the simulated time of the underlying micro-event.
	Time float64
	// Latency is the message's end-to-end latency (KindEjected only).
	Latency float64
}

// MemorySink holds one run's records in emission order. It belongs to
// the collector that writes it and is not safe for concurrent use.
type MemorySink struct {
	recs []Record
}

// NewMemorySink returns an empty in-memory sink.
func NewMemorySink() *MemorySink { return &MemorySink{} }

// Records returns the accumulated records (the live slice: read it
// after the run, not while the collector still appends).
func (m *MemorySink) Records() []Record { return m.recs }

// Collector adapts the wormhole hook API to a MemorySink: each firing
// of one of the five recorded positions appends one Record. A collector
// serves exactly one network (it is not safe for concurrent use);
// attach it with Network.Attach.
type Collector struct {
	sink *MemorySink
}

// NewCollector returns a collector appending into sink. The second
// parameter is unused; it stays so existing callers keep compiling.
func NewCollector(sink *MemorySink, _ int) *Collector {
	return &Collector{sink: sink}
}

// Func implements wormhole.Hook. It records the five positions with a
// Kind and ignores the rest, so a collector attached everywhere records
// exactly those.
func (c *Collector) Func(h wormhole.HookCtx) {
	if Kind(h.Pos) > KindQueue {
		return
	}
	c.sink.recs = append(c.sink.recs, Record{
		Kind:      Kind(h.Pos),
		Multicast: h.Multicast,
		Node:      int32(h.Node),
		Channel:   int32(h.Channel),
		Occupancy: int32(h.Occupancy),
		Msg:       h.Msg,
		Time:      h.Time,
		Latency:   h.Latency,
	})
}
