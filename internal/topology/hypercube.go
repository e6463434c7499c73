package topology

import "fmt"

// Hypercube is a d-dimensional binary hypercube with an all-port router:
// one injection/ejection port per dimension. Link class k is the channel
// flipping bit k. Dimension-order (e-cube) routing is deadlock-free
// without virtual channels, so every link has a single VC.
//
// The hypercube is included because the model family the paper builds on
// (Draper-Ghosh, Shahrabi et al.) was originally formulated for
// hypercubes; running the same analytical machinery here checks that the
// implementation is not Quarc-specific.
type Hypercube struct {
	*Graph
	dims int
}

// NewHypercube constructs a hypercube with the given number of dimensions
// (1..16).
func NewHypercube(dims int) (*Hypercube, error) {
	if dims < 1 || dims > 16 {
		return nil, fmt.Errorf("topology: hypercube dimensions must be in 1..16, got %d", dims)
	}
	n := 1 << uint(dims)
	g := NewGraph(fmt.Sprintf("hypercube-%d", dims), n, dims)
	for node := NodeID(0); int(node) < n; node++ {
		for p := 0; p < dims; p++ {
			g.AddInjection(node, p)
			g.AddEjection(node, p)
		}
	}
	for node := NodeID(0); int(node) < n; node++ {
		for d := 0; d < dims; d++ {
			g.AddLink(node, node^NodeID(1<<uint(d)), d, 0)
		}
	}
	return &Hypercube{Graph: g, dims: dims}, nil
}

// Dims returns the number of dimensions.
func (h *Hypercube) Dims() int { return h.dims }

// Dist returns the Hamming distance between two nodes.
func (h *Hypercube) Dist(src, dst NodeID) int {
	x := uint32(src ^ dst)
	d := 0
	for ; x != 0; x &= x - 1 {
		d++
	}
	return d
}
