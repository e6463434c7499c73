// Package obs is the observability recorder behind the wormhole hook
// API: a batched Collector implementing wormhole.Hook drains typed
// Records through a bounded buffer into a pluggable Sink — in-memory
// for tests and Result enrichment, or a WAL-style append-only flat
// file (stdlib-only, no database/sql) for offline inspection — and an
// aggregation step folds a run's records into the bucketed time Series
// the noc Result and the quarcd /v1/trace endpoint serve.
//
// The collector is single-goroutine (one per network, like the network
// itself); sinks are safe for concurrent Append, so replications
// running in parallel can share one sink. Aggregation is a
// pure fold over the record stream in emission order, so a recorded
// run's Series is deterministic.
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

// Record is one recorded hook firing, flattened to plain scalars so it
// encodes to a fixed-width binary frame.
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

// A Sink receives record batches from collectors. Append must be safe
// for concurrent use: one sink may serve many collectors (e.g. the
// per-replication collectors of a parallel replicated run). The batch is
// only valid for the duration of the call; a sink that retains records
// must copy them.
type Sink interface {
	Append(batch []Record) error
}

// DefaultBatch is the collector's buffer size when none is given: big
// enough to amortize sink calls, small enough to stay cache-resident.
const DefaultBatch = 4096

// Collector adapts the wormhole hook API to a Sink: each firing
// becomes one Record in a bounded buffer, flushed to the sink whenever
// it fills and finally by Flush. A collector serves exactly one
// network (it is not safe for concurrent use); attach it with
// Network.Attach. Sink errors are sticky: the first one stops further
// recording and is reported by Flush.
type Collector struct {
	sink  Sink
	batch []Record
	err   error
}

// NewCollector returns a collector batching up to batch records
// (DefaultBatch when batch <= 0) into sink.
func NewCollector(sink Sink, batch int) *Collector {
	if batch <= 0 {
		batch = DefaultBatch
	}
	return &Collector{sink: sink, batch: make([]Record, 0, batch)}
}

// Func implements wormhole.Hook. It records the five positions with a
// Kind and ignores the rest, so a collector attached everywhere records
// exactly those.
func (c *Collector) Func(h wormhole.HookCtx) {
	if c.err != nil || Kind(h.Pos) > KindQueue {
		return
	}
	c.batch = append(c.batch, Record{
		Kind:      Kind(h.Pos),
		Multicast: h.Multicast,
		Node:      int32(h.Node),
		Channel:   int32(h.Channel),
		Occupancy: int32(h.Occupancy),
		Msg:       h.Msg,
		Time:      h.Time,
		Latency:   h.Latency,
	})
	if len(c.batch) == cap(c.batch) {
		c.flush()
	}
}

func (c *Collector) flush() {
	if len(c.batch) == 0 {
		return
	}
	if err := c.sink.Append(c.batch); err != nil && c.err == nil {
		c.err = err
	}
	c.batch = c.batch[:0]
}

// Flush drains the remaining buffered records to the sink and returns
// the first sink error encountered over the collector's lifetime.
func (c *Collector) Flush() error {
	if c.err == nil {
		c.flush()
	}
	return c.err
}
