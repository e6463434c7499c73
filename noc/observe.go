package noc

import "quarc/internal/obs"

// The public face of the observability pipeline (internal/obs): a
// Spec's Metrics field attaches a recording hook to the simulator, and
// Result.Series carries the aggregated time series. The type is an
// alias so callers and the internal recorder share one definition.

// TimeSeries is the bucketed time-series payload of a Metrics run:
// per-channel utilization, injection/ejection counts, per-worm latency
// sums and queue-occupancy maxima per time bucket (see
// internal/obs.Series for the field-by-field contract). The name
// Series is taken by the unrelated labelled-sweep type in ablations.go.
type TimeSeries = obs.Series
