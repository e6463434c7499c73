package sim

// lane is a fixed-delay FIFO beside the calendar queue: a power-of-two
// ring of items kept sorted by (t, seq) with no search at all. The engine
// files an event here when it lands exactly delay after the clock. The
// clock never runs backwards and Schedule's sequence numbers only grow,
// so such events arrive in key order and append at the tail; the one
// key that can arrive out of order — a sequence number reserved earlier
// and scheduled now (ScheduleSeq) — is refused, as is any event while
// the ring is full, and goes to the calendar instead. Pop order stays a
// pure function of the keys whichever structure holds an event.
//
// head and tail are free-running counters: ring[head&mask] is the front,
// tail-head the length, and head counts the events the lane has served
// since it was declared.
type lane struct {
	delay      float64
	ring       []item
	mask       uint64
	head, tail uint64
}

// place appends key (t, seq) and returns its slot with the key set, for
// the caller to fill in the rest, or nil when the lane refuses it: the
// ring is full (an undeclared lane has no ring and refuses everything)
// or the key orders before the tail's. The slot is valid until the next
// operation on the lane.
//
//quarc:hotpath
func (l *lane) place(t float64, seq uint64) *item {
	n := l.tail - l.head
	if n == uint64(len(l.ring)) || n > 0 && keyLess(t, seq, &l.ring[(l.tail-1)&l.mask]) {
		return nil
	}
	p := &l.ring[l.tail&l.mask]
	l.tail++
	p.t, p.seq = t, seq
	return p
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
