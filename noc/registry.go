package noc

import (
	"fmt"
	"sort"
	"sync"

	"quarc/internal/traffic"
)

// TopologyConfig parameterizes a topology builder. Each builder reads only
// the fields its family needs: N for quarc/spidergon, W and H for
// mesh/torus, Dims for hypercube.
type TopologyConfig struct {
	N    int // node count (quarc, spidergon)
	W, H int // grid dimensions (mesh, torus)
	Dims int // dimensions (hypercube)
}

// PatternConfig parameterizes a traffic-pattern builder. Each builder reads
// only the fields its pattern needs: K and Seed for "random", Port and K
// for "localized", High and Low for "highlow".
type PatternConfig struct {
	K         int    // number of multicast destinations
	Port      int    // rim/port for localized sets
	Seed      uint64 // RNG seed for random sets
	High, Low []int  // Hamilton-path offsets for mesh/torus multicast
	// stream selects the PCG stream "random" draws from; zero outside
	// the figure panels.
	stream uint64
}

// TopologyBuilder constructs a topology value from its configuration. The
// returned value is opaque to callers; it is consumed by the matching
// RouterBuilder.
type TopologyBuilder func(TopologyConfig) (any, error)

// RouterBuilder wraps a topology value (produced by a TopologyBuilder)
// with its deterministic router. The returned value must implement the
// internal routing.Router interface; external callers treat it as opaque.
type RouterBuilder func(topo any) (any, error)

// PatternBuilder materializes a multicast destination set for a router
// (produced by a RouterBuilder). The returned value must be a
// routing.MulticastSet; external callers treat it as opaque.
type PatternBuilder func(router any, cfg PatternConfig) (any, error)

// SpatialConfig parameterizes a spatial (unicast-destination) pattern
// builder. The permutation families ignore it; "hotspot" reads all three
// fields.
type SpatialConfig struct {
	// Frac is the fraction of unicast traffic directed at the hotspots.
	Frac float64
	// Nodes lists the hotspot nodes.
	Nodes []int
	// Weights gives the hotspots' relative weights (none means equal);
	// must be index-aligned with Nodes when set.
	Weights []float64
}

// SpatialBuilder materializes a unicast-destination pattern for a router:
// a fixed permutation (transpose, bit-reversal, tornado, ...) or a
// destination weight matrix (hotspot). The returned value must be a
// traffic.Dest; external callers treat it as opaque.
type SpatialBuilder func(router any, cfg SpatialConfig) (any, error)

// registry is a concurrency-safe string-keyed table of builders.
type registry[T any] struct {
	kind string
	mu   sync.RWMutex
	m    map[string]T
}

func (r *registry[T]) register(name string, v T) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.m == nil {
		r.m = make(map[string]T)
	}
	r.m[name] = v
}

func (r *registry[T]) lookup(name string) (T, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	v, ok := r.m[name]
	if !ok {
		return v, fmt.Errorf("%w: unknown %s %q (known: %v)", ErrInvalidOption, r.kind, name, r.namesLocked())
	}
	return v, nil
}

func (r *registry[T]) names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.namesLocked()
}

func (r *registry[T]) namesLocked() []string {
	names := make([]string, 0, len(r.m))
	for name := range r.m {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

var (
	topologyReg = &registry[TopologyBuilder]{kind: "topology"}
	routerReg   = &registry[RouterBuilder]{kind: "router"}
	patternReg  = &registry[PatternBuilder]{kind: "traffic pattern"}
	spatialReg  = &registry[SpatialBuilder]{kind: "spatial pattern"}

	// defaultRouter maps a topology name to the router used when a
	// scenario does not name one explicitly.
	defaultRouterMu sync.RWMutex
	defaultRouter   = map[string]string{}
)

// RegisterTopology adds (or replaces) a named topology builder and its
// default router name. The built-in names are "quarc", "quarc-oneport",
// "spidergon", "mesh", "torus" and "hypercube".
func RegisterTopology(name, router string, b TopologyBuilder) {
	topologyReg.register(name, b)
	defaultRouterMu.Lock()
	defaultRouter[name] = router
	defaultRouterMu.Unlock()
}

// RegisterRouter adds (or replaces) a named router builder. The built-in
// names are "quarc", "spidergon", "mesh" and "hypercube".
func RegisterRouter(name string, b RouterBuilder) { routerReg.register(name, b) }

// RegisterPattern adds (or replaces) a named traffic-pattern builder. The
// built-in names are "none", "random", "localized", "broadcast" and
// "highlow".
func RegisterPattern(name string, b PatternBuilder) { patternReg.register(name, b) }

// Topologies returns the registered topology names, sorted.
func Topologies() []string { return topologyReg.names() }

// Routers returns the registered router names, sorted.
func Routers() []string { return routerReg.names() }

// Patterns returns the registered traffic-pattern names, sorted.
func Patterns() []string { return patternReg.names() }

// RegisterSpatial adds (or replaces) a named spatial (unicast-destination)
// pattern builder. The built-in names are "uniform", "transpose",
// "bit-reversal", "bit-complement", "shuffle", "tornado" and "hotspot".
func RegisterSpatial(name string, b SpatialBuilder) { spatialReg.register(name, b) }

// Spatials returns the registered spatial-pattern names, sorted.
func Spatials() []string { return spatialReg.names() }

// Arrivals returns the registered arrival-process names, sorted. The
// built-ins are "bernoulli", "onoff", "periodic" and "poisson" (the
// default); register more with traffic.RegisterArrival.
func Arrivals() []string { return traffic.Arrivals() }

func defaultRouterFor(topology string) string {
	defaultRouterMu.RLock()
	defer defaultRouterMu.RUnlock()
	return defaultRouter[topology]
}
