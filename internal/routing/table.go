package routing

import (
	"fmt"
	"slices"

	"quarc/internal/topology"
)

// Table is a Router whose answers are enumerated once: every unicast
// route of the base router and, for one multicast set, every source's
// branches. The analytical model, the workload and the trace replayer
// all read the same table, so a scenario pays for its n² routes once. A
// table is read-only after NewTable: any number of goroutines share it
// without a lock, and its routes live exactly as long as its holders.
//
// Returned paths, targets and branch slices are the table's own storage
// and must not be modified. They are capped at their length, so a
// caller's append copies instead of clobbering a neighbouring route.
type Table struct {
	base Router
	n    int
	uni  []Branch // uni[src*n+dst]: the route src -> dst; zero if src == dst
	set  MulticastSet
	mc   [][]Branch // mc[src]: src's branches for set; nil if set is empty or rejected
}

// NewTable enumerates r's routes. Given a *Table, it returns that table
// when set is empty or equals the table's set, and otherwise shares its
// unicast half and enumerates only the multicast one. A set the base
// router rejects is not an error here: the table falls through to the
// base router for it, which reports the same error to the caller that
// asks.
func NewTable(r Router, set MulticastSet) (*Table, error) {
	t, ok := r.(*Table)
	switch {
	case ok && (set.Empty() || set.Equal(t.set)):
		return t, nil
	case ok:
		t = &Table{base: t.base, n: t.n, uni: t.uni}
	default:
		n := r.Graph().Nodes()
		t = &Table{base: r, n: n, uni: make([]Branch, n*n)}
		targets := make([]topology.NodeID, n*n)
		for i := range t.uni {
			src, dst := topology.NodeID(i/n), topology.NodeID(i%n)
			if src == dst {
				continue
			}
			path, err := r.UnicastPath(src, dst)
			if err != nil {
				return nil, fmt.Errorf("routing: unicast path %d->%d: %w", src, dst, err)
			}
			port, err := r.UnicastPort(src, dst)
			if err != nil {
				return nil, fmt.Errorf("routing: unicast port %d->%d: %w", src, dst, err)
			}
			targets[i] = dst
			t.uni[i] = Branch{Port: port, Path: slices.Clip(path), Targets: targets[i : i+1 : i+1]}
		}
	}
	if set.Empty() {
		return t, nil
	}
	t.set = MulticastSet{Bits: slices.Clone(set.Bits)} // Add mutates in place
	mc := make([][]Branch, t.n)
	for src := range mc {
		branches, err := t.base.MulticastBranches(topology.NodeID(src), set)
		if err != nil {
			return t, nil // rejected: leave mc nil
		}
		mc[src] = slices.Clip(slices.Clone(branches))
		for i := range mc[src] {
			b := &mc[src][i]
			b.Path, b.Targets = slices.Clip(b.Path), slices.Clip(b.Targets)
		}
	}
	t.mc = mc
	return t, nil
}

// Graph returns the base router's channel graph.
func (t *Table) Graph() *topology.Graph { return t.base.Graph() }

// unicast returns the stored route src -> dst, or nil for pairs the
// table does not hold (out of range or src == dst).
func (t *Table) unicast(src, dst topology.NodeID) *Branch {
	if src == dst || uint(src) >= uint(t.n) || uint(dst) >= uint(t.n) {
		return nil
	}
	return &t.uni[int(src)*t.n+int(dst)]
}

// UnicastPath returns the stored route; other pairs go to the base router.
func (t *Table) UnicastPath(src, dst topology.NodeID) (Path, error) {
	if b := t.unicast(src, dst); b != nil {
		return b.Path, nil
	}
	return t.base.UnicastPath(src, dst)
}

// UnicastPort returns the stored route's port; other pairs go to the base
// router.
func (t *Table) UnicastPort(src, dst topology.NodeID) (int, error) {
	if b := t.unicast(src, dst); b != nil {
		return b.Port, nil
	}
	return t.base.UnicastPort(src, dst)
}

// MulticastBranches returns the stored branches for the table's set; other
// sets, and a set the base router rejected, go to the base router.
func (t *Table) MulticastBranches(src topology.NodeID, set MulticastSet) ([]Branch, error) {
	if t.mc != nil && uint(src) < uint(t.n) && set.Equal(t.set) {
		return t.mc[src], nil
	}
	return t.base.MulticastBranches(src, set)
}

// Unicast returns the route src -> dst (src != dst, both in range) as a
// one-branch slice, without allocating.
func (t *Table) Unicast(src, dst topology.NodeID) []Branch {
	i := int(src)*t.n + int(dst)
	return t.uni[i : i+1 : i+1]
}

// Multicast returns src's branches for the table's set, nil when the
// table holds none.
func (t *Table) Multicast(src topology.NodeID) []Branch {
	if t.mc == nil {
		return nil
	}
	return t.mc[src]
}

var _ Router = (*Table)(nil)
