package noc

import "quarc/internal/obs"

// The public face of the observability pipeline (internal/obs): a
// Spec's Metrics field attaches a batched recording hook to the simulator,
// Result.Series carries the aggregated time series, and MetricsSink
// streams the raw records into a caller-supplied sink. The types are
// aliases so callers and the internal recorder share one definition.

// TimeSeries is the bucketed time-series payload of a Metrics run:
// per-channel utilization, injection/ejection counts, per-worm latency
// sums and queue-occupancy maxima per time bucket (see
// internal/obs.Series for the field-by-field contract). The name
// Series is taken by the unrelated labelled-sweep type in ablations.go.
type TimeSeries = obs.Series

// Sink receives the raw observability record stream when MetricsSink
// is set. Implementations must be safe for concurrent Append: under
// Replications with Parallelism, batches arrive from several worker
// goroutines (each batch is only valid during the call).
type Sink = obs.Sink

// ObsRecord is one raw observability record as delivered to a Sink:
// an injection, ejection, channel grant/release or queue-occupancy
// change, stamped with simulated time.
type ObsRecord = obs.Record

// ObsFileSink is a Sink appending records to a flat file in
// CRC-framed, torn-tail-tolerant frames (a WAL-style log readable with
// ReadObsFile). Close it after the evaluation to flush the tail frame.
type ObsFileSink = obs.FileSink

// CreateObsFile creates (truncating) an observability log at path for
// use with MetricsSink.
func CreateObsFile(path string) (*ObsFileSink, error) { return obs.CreateFileSink(path) }

// ReadObsFile decodes an ObsFileSink log. A torn tail frame (from a
// crash mid-write) is dropped silently, as in WAL recovery; corruption
// anywhere else is an error, and so is a failed read.
func ReadObsFile(path string) ([]ObsRecord, error) { return obs.ReadFile(path) }

// AggregateObs folds a raw record stream into a TimeSeries — the same
// fold the simulator applies for Result.Series, exposed so offline
// tools can reproduce a served series from an ObsFileSink log.
func AggregateObs(records []ObsRecord, channels, buckets int, end float64) *TimeSeries {
	return obs.Aggregate(records, channels, buckets, end)
}
