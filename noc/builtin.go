package noc

import (
	"fmt"
	"math"
	"math/rand/v2"

	"quarc/internal/routing"
	"quarc/internal/topology"
	"quarc/internal/traffic"
)

// Quarc port indices, re-exported for LocalizedDests. The four injection
// ports of the all-port Quarc router serve one quadrant each; the paper
// labels them L, LO, RO and R.
const (
	PortL  = topology.PortL
	PortCL = topology.PortCL
	PortCR = topology.PortCR
	PortR  = topology.PortR
)

func init() {
	RegisterTopology("quarc", "quarc", func(c TopologyConfig) (any, error) {
		return topology.NewQuarc(c.N)
	})
	RegisterTopology("quarc-oneport", "quarc", func(c TopologyConfig) (any, error) {
		return topology.NewQuarcOnePort(c.N)
	})
	RegisterTopology("spidergon", "spidergon", func(c TopologyConfig) (any, error) {
		return topology.NewSpidergon(c.N)
	})
	RegisterTopology("mesh", "mesh", func(c TopologyConfig) (any, error) {
		return topology.NewMesh(c.W, c.H)
	})
	RegisterTopology("torus", "mesh", func(c TopologyConfig) (any, error) {
		return topology.NewTorus(c.W, c.H)
	})
	RegisterTopology("hypercube", "hypercube", func(c TopologyConfig) (any, error) {
		return topology.NewHypercube(c.Dims)
	})

	RegisterRouter("quarc", func(topo any) (any, error) {
		q, ok := topo.(*topology.Quarc)
		if !ok {
			return nil, fmt.Errorf("noc: quarc router needs a quarc topology, got %T", topo)
		}
		return routing.NewQuarcRouter(q), nil
	})
	RegisterRouter("spidergon", func(topo any) (any, error) {
		s, ok := topo.(*topology.Spidergon)
		if !ok {
			return nil, fmt.Errorf("noc: spidergon router needs a spidergon topology, got %T", topo)
		}
		return routing.NewSpidergonRouter(s), nil
	})
	RegisterRouter("mesh", func(topo any) (any, error) {
		m, ok := topo.(*topology.Mesh)
		if !ok {
			return nil, fmt.Errorf("noc: mesh router needs a mesh or torus topology, got %T", topo)
		}
		return routing.NewMeshRouter(m), nil
	})
	RegisterRouter("hypercube", func(topo any) (any, error) {
		h, ok := topo.(*topology.Hypercube)
		if !ok {
			return nil, fmt.Errorf("noc: hypercube router needs a hypercube topology, got %T", topo)
		}
		return routing.NewHypercubeRouter(h), nil
	})

	RegisterPattern("none", func(router any, c PatternConfig) (any, error) {
		rt, err := asRouter(router)
		if err != nil {
			return nil, err
		}
		return routing.NewMulticastSet(rt.Graph().Ports()), nil
	})
	RegisterPattern("random", func(router any, c PatternConfig) (any, error) {
		rng := rand.New(rand.NewPCG(c.Seed, c.stream))
		switch rt := router.(type) {
		case *routing.QuarcRouter:
			return rt.RandomSet(rng, c.K)
		case *routing.SpidergonRouter:
			return rt.RandomSet(rng, c.K)
		}
		return nil, fmt.Errorf("noc: pattern \"random\" not supported on %T", router)
	})
	RegisterPattern("localized", func(router any, c PatternConfig) (any, error) {
		switch rt := router.(type) {
		case *routing.QuarcRouter:
			return rt.LocalizedSet(c.Port, c.K)
		case *routing.SpidergonRouter:
			return rt.LocalizedSet(c.K)
		}
		return nil, fmt.Errorf("noc: pattern \"localized\" not supported on %T", router)
	})
	RegisterPattern("broadcast", func(router any, c PatternConfig) (any, error) {
		switch rt := router.(type) {
		case *routing.QuarcRouter:
			return rt.BroadcastSet(), nil
		case *routing.SpidergonRouter:
			return rt.BroadcastSet(), nil
		}
		return nil, fmt.Errorf("noc: pattern \"broadcast\" not supported on %T", router)
	})
	RegisterPattern("highlow", func(router any, c PatternConfig) (any, error) {
		rt, ok := router.(*routing.MeshRouter)
		if !ok {
			return nil, fmt.Errorf("noc: pattern \"highlow\" not supported on %T", router)
		}
		return rt.HighLowSet(c.High, c.Low)
	})

	// Spatial (unicast-destination) patterns: the standard permutation
	// families of NoC evaluation plus the weight-matrix hotspot. The
	// bit-wise permutations interpret node indices as log2(n)-bit words;
	// transpose and tornado use mesh coordinates when the topology is a
	// mesh or torus and fall back to the index forms otherwise.
	RegisterSpatial("uniform", func(router any, c SpatialConfig) (any, error) {
		return traffic.Dest{}, nil
	})
	RegisterSpatial("transpose", func(router any, c SpatialConfig) (any, error) {
		if m, ok := meshOf(router); ok {
			if m.W() != m.H() {
				return nil, fmt.Errorf("noc: transpose needs a square mesh, got %dx%d", m.W(), m.H())
			}
			return permDest(m.W()*m.H(), func(src int) int {
				x, y := m.XY(topology.NodeID(src))
				return int(m.ID(y, x))
			}), nil
		}
		return bitPerm(router, "transpose", func(src, bits int) int {
			// Swap the high and low halves of the index bits — the matrix
			// transpose of a 2^(b/2) x 2^(b/2) grid.
			half := bits / 2
			lo := src & (1<<half - 1)
			return src>>half | lo<<half
		}, true)
	})
	RegisterSpatial("bit-reversal", func(router any, c SpatialConfig) (any, error) {
		return bitPerm(router, "bit-reversal", func(src, bits int) int {
			out := 0
			for i := 0; i < bits; i++ {
				out = out<<1 | src>>i&1
			}
			return out
		}, false)
	})
	RegisterSpatial("bit-complement", func(router any, c SpatialConfig) (any, error) {
		return bitPerm(router, "bit-complement", func(src, bits int) int {
			return ^src & (1<<bits - 1)
		}, false)
	})
	RegisterSpatial("shuffle", func(router any, c SpatialConfig) (any, error) {
		return bitPerm(router, "shuffle", func(src, bits int) int {
			return (src<<1 | src>>(bits-1)) & (1<<bits - 1)
		}, false)
	})
	RegisterSpatial("tornado", func(router any, c SpatialConfig) (any, error) {
		if m, ok := meshOf(router); ok {
			// Per-dimension half-way shift: (x, y) -> (x + ⌈W/2⌉-1, y + ⌈H/2⌉-1).
			dx, dy := (m.W()+1)/2-1, (m.H()+1)/2-1
			return permDest(m.W()*m.H(), func(src int) int {
				x, y := m.XY(topology.NodeID(src))
				return int(m.ID((x+dx)%m.W(), (y+dy)%m.H()))
			}), nil
		}
		rt, err := asRouter(router)
		if err != nil {
			return nil, err
		}
		// Ring form (quarc and spidergon are ring-based): half-way around.
		n := rt.Graph().Nodes()
		shift := (n+1)/2 - 1
		return permDest(n, func(src int) int { return (src + shift) % n }), nil
	})
	RegisterSpatial("hotspot", func(router any, c SpatialConfig) (any, error) {
		rt, err := asRouter(router)
		if err != nil {
			return nil, err
		}
		return hotspotDest(rt.Graph().Nodes(), c)
	})
}

// meshOf unwraps a mesh or torus router's coordinate geometry.
func meshOf(router any) (*topology.Mesh, bool) {
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
func bitPerm(router any, name string, f func(src, bits int) int, evenBits bool) (any, error) {
	rt, err := asRouter(router)
	if err != nil {
		return nil, err
	}
	n := rt.Graph().Nodes()
	bits := 0
	for 1<<bits < n {
		bits++
	}
	if 1<<bits != n {
		return nil, fmt.Errorf("noc: spatial pattern %q needs a power-of-two network, got %d nodes", name, n)
	}
	if evenBits && bits%2 != 0 {
		return nil, fmt.Errorf("noc: spatial pattern %q needs an even number of index bits, got %d nodes (%d bits)", name, n, bits)
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

func asRouter(v any) (routing.Router, error) {
	rt, ok := v.(routing.Router)
	if !ok {
		return nil, fmt.Errorf("noc: %T is not a router", v)
	}
	return rt, nil
}
