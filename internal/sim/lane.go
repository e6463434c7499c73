package sim

// lane is a fixed-delay FIFO in front of the heap: a power-of-two ring of
// items kept sorted by (t, seq) with no search at all. The engine files an
// event here when it lands exactly delay after the clock. The clock never
// runs backwards and Schedule's sequence numbers only grow, so such events
// arrive in key order and append at the tail; the one key that can arrive
// out of order — a sequence number reserved earlier and scheduled now
// (ScheduleSeq) — is refused and goes to the heap instead. Pop order stays
// a pure function of the keys whichever structure holds an event.
//
// A declared lane has a ring of at least laneMinRing slots, which doubles
// when an event finds it full; an undeclared lane has an empty ring (its
// capacity kept for the next declaration) and refuses everything. head and
// tail are free-running counters: ring[head&mask] is the front, tail-head
// the length, and head counts the events the lane has served since it was
// declared.
type lane struct {
	delay      float64
	ring       []item
	mask       uint64
	head, tail uint64
}

// laneMinRing is the ring a lane is declared with: several times the
// deepest lane of a quarc-64 run near saturation (13 events).
const laneMinRing = 64

// declare empties the lane and gives it delay d and a ring, reusing the
// ring's storage when there is enough.
func (l *lane) declare(d float64) {
	ring := l.ring[:cap(l.ring)]
	if len(ring) < laneMinRing {
		ring = make([]item, laneMinRing)
	}
	*l = lane{delay: d, ring: ring, mask: uint64(len(ring) - 1)}
}

// clear empties and undeclares the lane, keeping its storage unless it
// holds more than maxRetainedEvents items.
func (l *lane) clear() {
	ring := l.ring[:0]
	if cap(ring) > maxRetainedEvents {
		ring = nil
	}
	*l = lane{ring: ring}
}

// place appends key (t, seq) and returns its slot with the key set, for
// the caller to fill in the rest, or nil when the lane refuses it: the key
// orders before the tail's, or the lane is undeclared. The slot is valid
// until the next operation on the lane.
//
//quarc:hotpath
func (l *lane) place(t float64, seq uint64) *item {
	n := l.tail - l.head
	if n > 0 && keyLess(t, seq, &l.ring[(l.tail-1)&l.mask]) {
		return nil
	}
	if n == uint64(len(l.ring)) {
		if n == 0 {
			return nil
		}
		l.grow()
	}
	p := &l.ring[l.tail&l.mask]
	l.tail++
	p.t, p.seq = t, seq
	return p
}

// grow doubles a full ring. Each item keeps its counter and moves to the
// slot the counter selects under the new mask.
func (l *lane) grow() {
	ring := make([]item, 2*len(l.ring))
	mask := uint64(len(ring) - 1)
	for c := l.head; c != l.tail; c++ {
		ring[c&mask] = l.ring[c&l.mask]
	}
	l.ring, l.mask = ring, mask
}

// front returns the lane's earliest item, or nil when it is empty.
//
//quarc:hotpath
func (l *lane) front() *item {
	if l.head == l.tail {
		return nil
	}
	return &l.ring[l.head&l.mask]
}

// len returns the number of events waiting in the lane.
func (l *lane) len() int { return int(l.tail - l.head) }
