package noc

import (
	"fmt"
	"math"
	"math/rand/v2"

	"quarc/internal/routing"
	"quarc/internal/topology"
	"quarc/internal/traffic"
)

// Quarc port indices, re-exported for a Spec's Port. The four injection
// ports of the all-port Quarc router serve one quadrant each; the paper
// labels them L, LO, RO and R.
const (
	PortL  = topology.PortL
	PortCL = topology.PortCL
	PortCR = topology.PortCR
	PortR  = topology.PortR
)

// topologies is the closed topology table: each family with the one
// router that routes it.
var topologies = map[string]topologyDef{
	"quarc": {"quarc", func(c TopologyConfig) (routing.Router, error) {
		return routedBy(routing.NewQuarcRouter)(topology.NewQuarc(c.N))
	}},
	"quarc-oneport": {"quarc", func(c TopologyConfig) (routing.Router, error) {
		return routedBy(routing.NewQuarcRouter)(topology.NewQuarcOnePort(c.N))
	}},
	"spidergon": {"spidergon", func(c TopologyConfig) (routing.Router, error) {
		return routedBy(routing.NewSpidergonRouter)(topology.NewSpidergon(c.N))
	}},
	"mesh": {"mesh", func(c TopologyConfig) (routing.Router, error) {
		return routedBy(routing.NewMeshRouter)(topology.NewMesh(c.W, c.H))
	}},
	"torus": {"mesh", func(c TopologyConfig) (routing.Router, error) {
		return routedBy(routing.NewMeshRouter)(topology.NewTorus(c.W, c.H))
	}},
	"hypercube": {"hypercube", func(c TopologyConfig) (routing.Router, error) {
		return routedBy(routing.NewHypercubeRouter)(topology.NewHypercube(c.Dims))
	}},
}

// routedBy wraps a topology constructor's result in its router, passing
// the constructor's error through.
func routedBy[T any, R routing.Router](newRouter func(T) R) func(T, error) (routing.Router, error) {
	return func(topo T, err error) (routing.Router, error) {
		if err != nil {
			return nil, err
		}
		return newRouter(topo), nil
	}
}

// patterns is the closed multicast traffic-pattern table.
var patterns = map[string]func(routing.Router, PatternConfig) (routing.MulticastSet, error){
	"none": func(rt routing.Router, c PatternConfig) (routing.MulticastSet, error) {
		return routing.NewMulticastSet(rt.Graph().Ports()), nil
	},
	"random": func(router routing.Router, c PatternConfig) (routing.MulticastSet, error) {
		rng := rand.New(rand.NewPCG(c.Seed, c.stream))
		switch rt := router.(type) {
		case *routing.QuarcRouter:
			return rt.RandomSet(rng, c.K)
		case *routing.SpidergonRouter:
			return rt.RandomSet(rng, c.K)
		}
		return routing.MulticastSet{}, fmt.Errorf("noc: pattern \"random\" not supported on %T", router)
	},
	"localized": func(router routing.Router, c PatternConfig) (routing.MulticastSet, error) {
		switch rt := router.(type) {
		case *routing.QuarcRouter:
			return rt.LocalizedSet(c.Port, c.K)
		case *routing.SpidergonRouter:
			return rt.LocalizedSet(c.K)
		}
		return routing.MulticastSet{}, fmt.Errorf("noc: pattern \"localized\" not supported on %T", router)
	},
	"broadcast": func(router routing.Router, c PatternConfig) (routing.MulticastSet, error) {
		switch rt := router.(type) {
		case *routing.QuarcRouter:
			return rt.BroadcastSet(), nil
		case *routing.SpidergonRouter:
			return rt.BroadcastSet(), nil
		}
		return routing.MulticastSet{}, fmt.Errorf("noc: pattern \"broadcast\" not supported on %T", router)
	},
	"highlow": func(router routing.Router, c PatternConfig) (routing.MulticastSet, error) {
		rt, ok := router.(*routing.MeshRouter)
		if !ok {
			return routing.MulticastSet{}, fmt.Errorf("noc: pattern \"highlow\" not supported on %T", router)
		}
		return rt.HighLowSet(c.High, c.Low)
	},
}

// spatials is the closed spatial (unicast-destination) pattern table: the
// standard permutation families of NoC evaluation plus the weight-matrix
// hotspot. The bit-wise permutations interpret node indices as
// log2(n)-bit words; transpose and tornado use mesh coordinates when the
// topology is a mesh or torus and fall back to the index forms otherwise.
var spatials = map[string]func(routing.Router, SpatialConfig) (traffic.Dest, error){
	"uniform": func(rt routing.Router, c SpatialConfig) (traffic.Dest, error) {
		return traffic.Dest{}, nil
	},
	"transpose": func(rt routing.Router, c SpatialConfig) (traffic.Dest, error) {
		if m, ok := meshOf(rt); ok {
			if m.W() != m.H() {
				return traffic.Dest{}, fmt.Errorf("noc: transpose needs a square mesh, got %dx%d", m.W(), m.H())
			}
			return permDest(m.W()*m.H(), func(src int) int {
				x, y := m.XY(topology.NodeID(src))
				return int(m.ID(y, x))
			}), nil
		}
		return bitPerm(rt, "transpose", func(src, bits int) int {
			// Swap the high and low halves of the index bits — the matrix
			// transpose of a 2^(b/2) x 2^(b/2) grid.
			half := bits / 2
			lo := src & (1<<half - 1)
			return src>>half | lo<<half
		}, true)
	},
	"bit-reversal": func(rt routing.Router, c SpatialConfig) (traffic.Dest, error) {
		return bitPerm(rt, "bit-reversal", func(src, bits int) int {
			out := 0
			for i := 0; i < bits; i++ {
				out = out<<1 | src>>i&1
			}
			return out
		}, false)
	},
	"bit-complement": func(rt routing.Router, c SpatialConfig) (traffic.Dest, error) {
		return bitPerm(rt, "bit-complement", func(src, bits int) int {
			return ^src & (1<<bits - 1)
		}, false)
	},
	"shuffle": func(rt routing.Router, c SpatialConfig) (traffic.Dest, error) {
		return bitPerm(rt, "shuffle", func(src, bits int) int {
			return (src<<1 | src>>(bits-1)) & (1<<bits - 1)
		}, false)
	},
	"tornado": func(rt routing.Router, c SpatialConfig) (traffic.Dest, error) {
		if m, ok := meshOf(rt); ok {
			// Per-dimension half-way shift: (x, y) -> (x + ⌈W/2⌉-1, y + ⌈H/2⌉-1).
			dx, dy := (m.W()+1)/2-1, (m.H()+1)/2-1
			return permDest(m.W()*m.H(), func(src int) int {
				x, y := m.XY(topology.NodeID(src))
				return int(m.ID((x+dx)%m.W(), (y+dy)%m.H()))
			}), nil
		}
		// Ring form (quarc and spidergon are ring-based): half-way around.
		n := rt.Graph().Nodes()
		shift := (n+1)/2 - 1
		return permDest(n, func(src int) int { return (src + shift) % n }), nil
	},
	"hotspot": func(rt routing.Router, c SpatialConfig) (traffic.Dest, error) {
		return hotspotDest(rt.Graph().Nodes(), c)
	},
}

// meshOf unwraps a mesh or torus router's coordinate geometry.
func meshOf(router routing.Router) (*topology.Mesh, bool) {
	rt, ok := router.(*routing.MeshRouter)
	if !ok {
		return nil, false
	}
	return rt.Mesh(), true
}

// permDest materializes an index permutation as a traffic destination.
func permDest(n int, f func(int) int) traffic.Dest {
	perm := make([]topology.NodeID, n)
	for src := 0; src < n; src++ {
		perm[src] = topology.NodeID(f(src))
	}
	return traffic.Dest{Perm: perm}
}

// bitPerm builds a bit-wise permutation over node indices; the network
// size must be a power of two (and evenBits additionally requires an even
// bit count, e.g. for transpose).
func bitPerm(rt routing.Router, name string, f func(src, bits int) int, evenBits bool) (traffic.Dest, error) {
	n := rt.Graph().Nodes()
	bits := 0
	for 1<<bits < n {
		bits++
	}
	if 1<<bits != n {
		return traffic.Dest{}, fmt.Errorf("noc: spatial pattern %q needs a power-of-two network, got %d nodes", name, n)
	}
	if evenBits && bits%2 != 0 {
		return traffic.Dest{}, fmt.Errorf("noc: spatial pattern %q needs an even number of index bits, got %d nodes (%d bits)", name, n, bits)
	}
	return permDest(n, func(src int) int { return f(src, bits) }), nil
}

// hotspotDest builds the weight-matrix form of hotspot traffic: each
// source sends fraction Frac of its unicasts to the hotspots (split by
// their weights) and spreads the rest uniformly. A source that is itself
// a hotspot redistributes its own share over the remaining hotspots, or
// falls back to uniform when it is the only one — matching the classic
// single-hotspot convention.
func hotspotDest(n int, c SpatialConfig) (traffic.Dest, error) {
	if c.Frac <= 0 || c.Frac > 1 || math.IsNaN(c.Frac) {
		return traffic.Dest{}, fmt.Errorf("noc: hotspot fraction %v out of (0,1]", c.Frac)
	}
	if len(c.Nodes) == 0 {
		return traffic.Dest{}, fmt.Errorf("noc: hotspot pattern needs at least one node")
	}
	if len(c.Weights) != 0 && len(c.Weights) != len(c.Nodes) {
		return traffic.Dest{}, fmt.Errorf("noc: %d hotspot weights for %d nodes", len(c.Weights), len(c.Nodes))
	}
	weight := func(i int) float64 {
		if len(c.Weights) == 0 { // absent on the wire decodes as nil or empty
			return 1
		}
		return c.Weights[i]
	}
	for i, node := range c.Nodes {
		if node < 0 || node >= n {
			return traffic.Dest{}, fmt.Errorf("noc: hotspot node %d outside the %d-node network", node, n)
		}
		if w := weight(i); w <= 0 || math.IsNaN(w) || math.IsInf(w, 0) {
			return traffic.Dest{}, fmt.Errorf("noc: invalid hotspot weight %v for node %d", w, node)
		}
	}
	weights := make([][]float64, n)
	for src := 0; src < n; src++ {
		row := make([]float64, n)
		sw := 0.0
		for i, node := range c.Nodes {
			if node != src {
				sw += weight(i)
			}
		}
		uniform := (1 - c.Frac) / float64(n-1)
		if sw == 0 {
			// The source is the only hotspot: pure uniform row.
			uniform = 1 / float64(n-1)
		}
		for dst := 0; dst < n; dst++ {
			if dst != src {
				row[dst] = uniform
			}
		}
		if sw > 0 {
			for i, node := range c.Nodes {
				if node != src {
					row[node] += c.Frac * weight(i) / sw
				}
			}
		}
		weights[src] = row
	}
	return traffic.Dest{Weights: weights}, nil
}
