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
// Each half's paths lie end to end in one arena, its targets in another,
// and every stored path and target list is a capped span of them. The
// tables NewTable derives for other sets share the unicast half; each
// set's branches have their own arenas, so no table pins another set's.
//
// Returned paths, targets and branch slices are the table's own storage
// and must not be modified. They are capped at their length, so a
// caller's append copies instead of clobbering a neighbouring route.
type Table struct {
	base Router
	n    int
	uni  []Branch // uni[src*n+dst]: the route src -> dst; zero if src == dst
	set  MulticastSet
	mc   []Branch // every source's branches for set, source by source
	mcOf []int    // mc[mcOf[src]:mcOf[src+1]] are src's; nil if set is empty or rejected
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
		t = &Table{base: r, n: r.Graph().Nodes()}
		if err := t.enumerateUnicast(); err != nil {
			return nil, err
		}
	}
	if !set.Empty() {
		t.set = MulticastSet{Bits: slices.Clone(set.Bits)} // Add mutates in place
		t.enumerateMulticast()
	}
	return t, nil
}

// enumerateUnicast appends every route src -> dst to one arena, row by
// row. A route visits each node at most once, so the first row fits in
// (n-1)(n+1) channels; the arena then grows once, to n times that row:
// sources route much alike, and exactly alike in a vertex-symmetric
// network.
func (t *Table) enumerateUnicast() error {
	n := t.n
	t.uni = make([]Branch, n*n)
	paths := make(Path, 0, (n-1)*(n+1))
	targets := make([]topology.NodeID, 0, n*(n-1))
	for i := range t.uni {
		src, dst := topology.NodeID(i/n), topology.NodeID(i%n)
		if i == n {
			paths = slices.Grow(paths, (n-1)*len(paths))
		}
		if src == dst {
			continue
		}
		port, err := t.base.UnicastPort(src, dst)
		if err != nil {
			return fmt.Errorf("routing: unicast port %d->%d: %w", src, dst, err)
		}
		lo := len(paths)
		if paths, err = t.base.AppendUnicastPath(paths, src, dst); err != nil {
			return fmt.Errorf("routing: unicast path %d->%d: %w", src, dst, err)
		}
		targets = append(targets, dst)
		t.uni[i] = Branch{Port: port, Path: paths[lo:], Targets: targets[len(targets)-1:]}
	}
	rebind(t.uni, paths, targets)
	return nil
}

// enumerateMulticast appends every source's branches for the table's set
// to one arena, sized after source 0 like the unicast one. A set the base
// router rejects at any source leaves the table without branches.
func (t *Table) enumerateMulticast() {
	var a Arena
	mcOf := make([]int, t.n+1)
	for src := 0; src < t.n; src++ {
		if err := t.base.AppendMulticastBranches(&a, topology.NodeID(src), t.set); err != nil {
			return
		}
		mcOf[src+1] = len(a.Branches)
		if src == 0 {
			rest := t.n - 1
			a.Branches = slices.Grow(a.Branches, rest*len(a.Branches))
			a.Paths = slices.Grow(a.Paths, rest*len(a.Paths))
			a.Targets = slices.Grow(a.Targets, rest*len(a.Targets))
		}
	}
	rebind(a.Branches, a.Paths, a.Targets)
	t.mc, t.mcOf = a.Branches, mcOf
}

// rebind points each branch's path and targets at its span of the
// finished arenas. Spans are cut in branch order from append-only
// arenas, so running lengths locate them; a span cut before its arena
// last grew would otherwise pin the old backing array.
func rebind(bs []Branch, paths Path, targets []topology.NodeID) {
	for i := range bs {
		b := &bs[i]
		if k, m := len(b.Path), len(b.Targets); k > 0 {
			b.Path, paths = paths[:k:k], paths[k:]
			b.Targets, targets = targets[:m:m], targets[m:]
		}
	}
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

// AppendUnicastPath appends the stored route; other pairs go to the base
// router.
func (t *Table) AppendUnicastPath(buf Path, src, dst topology.NodeID) (Path, error) {
	if b := t.unicast(src, dst); b != nil {
		return append(buf, b.Path...), nil
	}
	return t.base.AppendUnicastPath(buf, src, dst)
}

// UnicastPort returns the stored route's port; other pairs go to the base
// router.
func (t *Table) UnicastPort(src, dst topology.NodeID) (int, error) {
	if b := t.unicast(src, dst); b != nil {
		return b.Port, nil
	}
	return t.base.UnicastPort(src, dst)
}

// MulticastBranches returns the stored branches for the table's set;
// other sets, and a set the base router rejected, go to the base router.
func (t *Table) MulticastBranches(src topology.NodeID, set MulticastSet) ([]Branch, error) {
	if t.mcOf != nil && uint(src) < uint(t.n) && set.Equal(t.set) {
		return t.Multicast(src), nil
	}
	return MulticastBranches(t.base, src, set)
}

// AppendMulticastBranches has the base router build src's branches into
// a; read stored branches with MulticastBranches or Multicast.
func (t *Table) AppendMulticastBranches(a *Arena, src topology.NodeID, set MulticastSet) error {
	return t.base.AppendMulticastBranches(a, src, set)
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
	if t.mcOf == nil {
		return nil
	}
	lo, hi := t.mcOf[src], t.mcOf[src+1]
	return t.mc[lo:hi:hi]
}

var _ Router = (*Table)(nil)
