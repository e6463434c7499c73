package obs

// Series is the bucketed time-series view of one recorded run: the
// measurement the quarcd dashboard plots and Result.Series carries.
// The run's [0, end) span is divided into Buckets equal buckets of
// BucketWidth cycles; every per-bucket slice has length Buckets.
//
// All values are finite by construction (sums and counts instead of
// means), so the struct marshals to plain JSON without NaN special
// cases.
type Series struct {
	// BucketWidth is the width of one bucket in cycles.
	BucketWidth float64 `json:"bucket_width"`
	// Buckets is the number of buckets.
	Buckets int `json:"buckets"`
	// Channels is the channel count of the recorded network.
	Channels int `json:"channels"`
	// Reps counts the replications combined into this series (1 for a
	// single run).
	Reps int `json:"reps"`
	// ChannelUtil[ch][b] is channel ch's utilization within bucket b,
	// in [0,1] (averaged across replications).
	ChannelUtil [][]float64 `json:"channel_util"`
	// Injected and Ejected count messages injected/completed per bucket.
	Injected []int64 `json:"injected"`
	Ejected  []int64 `json:"ejected"`
	// LatencySum/LatencyCount accumulate unicast end-to-end latencies
	// by completion bucket; mean latency in bucket b is
	// LatencySum[b]/LatencyCount[b] when the count is nonzero.
	LatencySum   []float64 `json:"latency_sum"`
	LatencyCount []int64   `json:"latency_count"`
	// MulticastLatencySum/MulticastLatencyCount are the multicast
	// counterparts.
	MulticastLatencySum   []float64 `json:"mc_latency_sum"`
	MulticastLatencyCount []int64   `json:"mc_latency_count"`
	// QueueMax[b] is the largest channel wait-queue occupancy observed
	// in bucket b (max across replications).
	QueueMax []int `json:"queue_max"`
}

// Aggregate folds a run's records (in emission order) into a Series of
// buckets equal buckets spanning [0, end). channels is the network's
// channel count; end is the run's final simulated time. Grant/release
// pairs become per-bucket busy time (a hold still open at end is
// clamped there, matching the simulator's end-of-run accounting);
// ejections become per-bucket latency sums.
func Aggregate(records []Record, channels, buckets int, end float64) *Series {
	if buckets <= 0 {
		buckets = 1
	}
	if end <= 0 {
		end = 1
	}
	s := &Series{
		BucketWidth:           end / float64(buckets),
		Buckets:               buckets,
		Channels:              channels,
		Reps:                  1,
		ChannelUtil:           make([][]float64, channels),
		Injected:              make([]int64, buckets),
		Ejected:               make([]int64, buckets),
		LatencySum:            make([]float64, buckets),
		LatencyCount:          make([]int64, buckets),
		MulticastLatencySum:   make([]float64, buckets),
		MulticastLatencyCount: make([]int64, buckets),
		QueueMax:              make([]int, buckets),
	}
	for ch := range s.ChannelUtil {
		s.ChannelUtil[ch] = make([]float64, buckets)
	}
	bucket := func(t float64) int {
		b := int(t / s.BucketWidth)
		if b < 0 {
			b = 0
		}
		if b >= buckets {
			b = buckets - 1
		}
		return b
	}
	// open[ch] is the grant time of the channel's current hold, or -1.
	open := make([]float64, channels)
	for i := range open {
		open[i] = -1
	}
	addSpan := func(ch int, lo, hi float64) {
		if hi > end {
			hi = end
		}
		if hi <= lo {
			return
		}
		util := s.ChannelUtil[ch]
		for b := bucket(lo); b <= bucket(hi); b++ {
			blo, bhi := float64(b)*s.BucketWidth, float64(b+1)*s.BucketWidth
			if blo < lo {
				blo = lo
			}
			if bhi > hi {
				bhi = hi
			}
			if bhi > blo {
				util[b] += (bhi - blo) / s.BucketWidth
			}
		}
	}
	for i := range records {
		r := &records[i]
		switch r.Kind {
		case KindInjected:
			s.Injected[bucket(r.Time)]++
		case KindEjected:
			b := bucket(r.Time)
			s.Ejected[b]++
			if r.Multicast {
				s.MulticastLatencySum[b] += r.Latency
				s.MulticastLatencyCount[b]++
			} else {
				s.LatencySum[b] += r.Latency
				s.LatencyCount[b]++
			}
		case KindGranted:
			if int(r.Channel) >= 0 && int(r.Channel) < channels {
				open[r.Channel] = r.Time
			}
		case KindReleased:
			if ch := int(r.Channel); ch >= 0 && ch < channels && open[ch] >= 0 {
				addSpan(ch, open[ch], r.Time)
				open[ch] = -1
			}
		case KindQueue:
			if b := bucket(r.Time); int(r.Occupancy) > s.QueueMax[b] {
				s.QueueMax[b] = int(r.Occupancy)
			}
		}
	}
	// Holds still open at the end of the run occupy their channel
	// through end, exactly as the simulator's finish() accounts them.
	for ch, lo := range open {
		if lo >= 0 {
			addSpan(ch, lo, end)
		}
	}
	return s
}

// Combine folds per-replication series into one, in list order (so the
// aggregate is independent of replication scheduling): counts and sums
// add, utilizations average, queue maxima take the worst replication.
// Every series must share the same (Buckets, Channels) shape; bucket b
// of each replication is the same fraction of that replication's run,
// so BucketWidth is the replications' mean width. Returns nil for an
// empty list.
func Combine(list []*Series) *Series {
	if len(list) == 0 {
		return nil
	}
	if len(list) == 1 {
		return list[0]
	}
	first := list[0]
	out := Aggregate(nil, first.Channels, first.Buckets, 1)
	out.BucketWidth = 0
	out.Reps = 0
	for _, s := range list {
		if s == nil || s.Buckets != first.Buckets || s.Channels != first.Channels {
			continue
		}
		out.Reps += s.Reps
		out.BucketWidth += float64(s.BucketWidth * float64(s.Reps))
		for b := 0; b < first.Buckets; b++ {
			out.Injected[b] += s.Injected[b]
			out.Ejected[b] += s.Ejected[b]
			out.LatencySum[b] += s.LatencySum[b]
			out.LatencyCount[b] += s.LatencyCount[b]
			out.MulticastLatencySum[b] += s.MulticastLatencySum[b]
			out.MulticastLatencyCount[b] += s.MulticastLatencyCount[b]
			if s.QueueMax[b] > out.QueueMax[b] {
				out.QueueMax[b] = s.QueueMax[b]
			}
		}
		for ch := 0; ch < first.Channels; ch++ {
			src, dst := s.ChannelUtil[ch], out.ChannelUtil[ch]
			w := float64(s.Reps)
			for b := range src {
				dst[b] += float64(src[b] * w)
			}
		}
	}
	if out.Reps > 0 {
		out.BucketWidth /= float64(out.Reps)
		inv := 1 / float64(out.Reps)
		for ch := range out.ChannelUtil {
			for b := range out.ChannelUtil[ch] {
				out.ChannelUtil[ch][b] *= inv
			}
		}
	}
	return out
}
