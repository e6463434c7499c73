package sim

import "math"

// emptySeq is the sequence number of an empty slot, one no real key has:
// sequence numbers start at 1 and would take centuries to reach it. Its
// key, (+Inf, emptySeq), orders after every real key, so an empty slot
// never wins a comparison against an occupied one, and an event scheduled
// at +Inf, which RunAll dispatches, still does.
const emptySeq = math.MaxUint64

// slotTree is a set of timer slots in front of the heap: n slots, each
// holding at most one pending event of one kind, kept in a winner
// (tournament) tree (Knuth, TAOCP vol. 3, §5.4.1). The engine files an
// event of the declared kind with 0 <= Arg < n into slot Arg; an occupied
// slot refuses it, and the event goes to a lane or the heap. A workload
// that keeps one self-rearming timer per entity — the wormhole
// simulator's generation timers, one per node — then never sifts them
// through the heap: a fire and its reschedule cost one leaf-to-root
// replay.
//
// The tree is stored bottom-up in nodes: leaf i is tree position m+i and
// internal node p (1 <= p < m) has children 2p and 2p+1, where m =
// len(nodes) >= 2 (one padding leaf, always empty, when n is 1). nodes[i]
// holds leaf i's record and, in the item's win field, the leaf that wins
// internal node p = i, so leaves and winners share one allocation.
// Replays are lazy: pop empties the winning leaf and only marks it dirty,
// and the next place or front replays that one path, so a fire followed
// by a reschedule into the same slot costs a single replay.
type slotTree struct {
	kind  Kind
	n     uint32 // declared slots; 0 when undeclared
	nodes []item
	dirty int32 // the leaf popped since the last replay, or -1
	count int   // occupied slots
	// served counts the events the slots dispatched since the declaration.
	served uint64
}

// declare empties the tree and gives it n slots for events of kind k,
// reusing the storage when there is enough; n <= 0 undeclares it.
func (s *slotTree) declare(k Kind, n int) {
	if n <= 0 {
		s.clear()
		return
	}
	m := max(n, 2)
	nodes := s.nodes[:cap(s.nodes)]
	if len(nodes) < m {
		nodes = make([]item, m)
	}
	nodes = nodes[:m]
	for i := range nodes {
		nodes[i] = item{t: math.Inf(1), seq: emptySeq}
	}
	// Every leaf is empty, so any leaf of a subtree wins it: take the one
	// its left child's winner names.
	for p := m - 1; p >= 1; p-- {
		if c := 2 * p; c >= m {
			nodes[p].win = int32(c - m)
		} else {
			nodes[p].win = nodes[c].win
		}
	}
	*s = slotTree{kind: k, n: uint32(n), nodes: nodes, dirty: -1}
}

// clear empties and undeclares the tree, keeping its storage unless it
// holds more than maxRetainedEvents slots.
func (s *slotTree) clear() {
	nodes := s.nodes[:0]
	if cap(nodes) > maxRetainedEvents {
		nodes = nil
	}
	*s = slotTree{nodes: nodes, dirty: -1}
}

// place files key (t, seq) into slot i and returns the slot with the key
// set, for the caller to fill in the rest, or nil when the slot refuses
// it: the slot is occupied. The caller has checked i < n. The slot is
// valid until the next operation on the tree.
//
//quarc:hotpath
func (s *slotTree) place(i int32, t float64, seq uint64) *item {
	p := &s.nodes[i]
	if p.seq != emptySeq {
		return nil
	}
	p.t, p.seq = t, seq
	s.count++
	s.replay(i)
	if s.dirty == i {
		s.dirty = -1
	}
	return p
}

// replay recomputes the winners on leaf i's path to the root, each one
// the better of the path's winner so far and the sibling subtree's. The
// comparisons are written to compile without branches: which of two
// pending timers is due first is a coin toss the predictor cannot learn.
//
//quarc:hotpath
func (s *slotTree) replay(i int32) {
	nodes := s.nodes
	m := len(nodes)
	w := i
	for c := m + int(i); c > 1; c >>= 1 {
		sib := c ^ 1
		o := int32(sib - m)
		if sib < m {
			o = nodes[sib].win
		}
		a, b := &nodes[w], &nodes[o]
		var lt, eq, sl int32
		if b.t < a.t {
			lt = 1
		}
		if b.t == a.t {
			eq = 1
		}
		if b.seq < a.seq {
			sl = 1
		}
		w ^= (w ^ o) & -(lt | eq&sl) // w = o when b orders before a
		nodes[c>>1].win = w
	}
}

// front returns the earliest occupied slot, or nil when every slot is
// empty (or none is declared).
//
//quarc:hotpath
func (s *slotTree) front() *item {
	if s.count == 0 {
		return nil
	}
	if s.dirty >= 0 {
		s.replay(s.dirty)
		s.dirty = -1
	}
	return &s.nodes[s.nodes[1].win]
}

// pop empties the slot front returned, which the caller has read, and
// leaves its path to be replayed by the next place or front.
//
//quarc:hotpath
func (s *slotTree) pop() {
	w := s.nodes[1].win
	p := &s.nodes[w]
	p.t, p.seq = math.Inf(1), emptySeq
	s.dirty = w
	s.count--
	s.served++
}
