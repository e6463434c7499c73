package wormhole

import (
	"fmt"
	"sort"
	"strings"

	"quarc/internal/routing"
	"quarc/internal/stats"
	"quarc/internal/topology"
)

// Instrumentation is a hook subscriber breaking a run's measured latencies
// down: unicasts by injection port and by header depth, and a latency
// histogram per class. It reads the network's canonical fold
// (HookSampleFolded), so every estimator folds in the order the Result's
// do. Attach it at Positions.
type Instrumentation struct {
	// PerPortUnicast breaks unicast latency down by injection port: the
	// route's logical port, which a one-port router still distinguishes.
	PerPortUnicast map[int]*stats.Running
	// PerDistanceUnicast breaks unicast latency down by header pipeline
	// depth (path channel count - 1), validating the model's D term.
	PerDistanceUnicast map[int]*stats.Running
	// UnicastHist and MulticastHist are latency histograms.
	UnicastHist   *stats.Histogram
	MulticastHist *stats.Histogram

	routes *routing.Table
	g      *topology.Graph
	// from and to bound the measured generation window, as Run does:
	// only unicasts generated in [from, to) are ever folded.
	from, to float64
	// inFlight joins each measured unicast's injection (its source) to
	// its ejection grant (its destination) and its fold.
	inFlight map[int64]unicastRoute
}

// unicastRoute is a measured unicast's source, then its route's port and
// depth once the ejection grant names the destination.
type unicastRoute struct {
	src         topology.NodeID
	port, depth int
}

// NewInstrumentation returns a detail subscriber for a run of cfg whose
// unicasts follow routes. The histograms span a few multiples of the
// zero-load latency.
func NewInstrumentation(routes *routing.Table, cfg Config) *Instrumentation {
	hi := float64(40 * cfg.MsgLen)
	return &Instrumentation{
		PerPortUnicast:     make(map[int]*stats.Running),
		PerDistanceUnicast: make(map[int]*stats.Running),
		UnicastHist:        stats.NewHistogram(0, hi, 200),
		MulticastHist:      stats.NewHistogram(0, hi, 200),
		routes:             routes,
		g:                  routes.Graph(),
		from:               cfg.Warmup,
		to:                 cfg.Warmup + cfg.Measure,
		inFlight:           make(map[int64]unicastRoute),
	}
}

// Positions lists the hook positions the subscriber reads.
func (*Instrumentation) Positions() []HookPos {
	return []HookPos{HookWormInjected, HookChannelGranted, HookSampleFolded}
}

// Func implements Hook.
func (ins *Instrumentation) Func(c HookCtx) {
	switch c.Pos {
	case HookWormInjected:
		if !c.Multicast && c.Time >= ins.from && c.Time < ins.to {
			ins.inFlight[c.Msg] = unicastRoute{src: c.Node}
		}
	case HookChannelGranted:
		ch := ins.g.Channel(c.Channel)
		if c.Multicast || ch.Kind != topology.Ejection {
			return
		}
		if r, ok := ins.inFlight[c.Msg]; ok {
			// The port is the route's, not the injection channel's: a
			// one-port router injects every route on channel 0.
			b := ins.routes.Unicast(r.src, ch.Src)[0]
			r.port, r.depth = b.Port, len(b.Path)-1
			ins.inFlight[c.Msg] = r
		}
	case HookSampleFolded:
		if c.Multicast {
			ins.MulticastHist.Add(c.Latency)
			return
		}
		r, ok := ins.inFlight[c.Msg]
		if !ok {
			panic("wormhole: detail folded a unicast it never saw injected")
		}
		delete(ins.inFlight, c.Msg)
		addTo(ins.PerPortUnicast, r.port, c.Latency)
		addTo(ins.PerDistanceUnicast, r.depth, c.Latency)
		ins.UnicastHist.Add(c.Latency)
	}
}

// addTo folds lat into by's estimator for key, creating it on first use.
func addTo(by map[int]*stats.Running, key int, lat float64) {
	r := by[key]
	if r == nil {
		r = &stats.Running{}
		by[key] = r
	}
	r.Add(lat)
}

// Summary renders the instrumentation as a fixed-width report.
func (ins *Instrumentation) Summary() string {
	var b strings.Builder
	breakdown := func(title, row string, by map[int]*stats.Running) {
		if len(by) == 0 {
			return
		}
		b.WriteString(title)
		keys := make([]int, 0, len(by))
		for k := range by {
			keys = append(keys, k)
		}
		sort.Ints(keys)
		for _, k := range keys {
			fmt.Fprintf(&b, row, k, by[k].Mean(), by[k].N())
		}
	}
	breakdown("unicast latency by injection port:\n", "  port %d: mean %.2f (n=%d)\n", ins.PerPortUnicast)
	breakdown("unicast latency by header depth:\n", "  depth %2d: mean %.2f (n=%d)\n", ins.PerDistanceUnicast)
	for _, h := range []struct {
		class string
		hist  *stats.Histogram
	}{{"unicast", ins.UnicastHist}, {"multicast", ins.MulticastHist}} {
		if h.hist.Count() > 0 {
			fmt.Fprintf(&b, "%s latency percentiles: p50=%.1f p90=%.1f p99=%.1f\n",
				h.class, h.hist.Percentile(50), h.hist.Percentile(90), h.hist.Percentile(99))
		}
	}
	return b.String()
}
