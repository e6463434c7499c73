package sim

import "math"

// calQueue is a calendar-queue pending-event set (Brown 1988, adapted): a
// wrapping ring of time buckets, each covering `width` cycles, where an
// event at time t lives in slot floor(t/width) mod nbuckets. Events up to
// horizonYears ring laps ahead share the ring; only true far-future
// outliers go to an overflow binary heap and migrate in as the clock
// approaches them. Bucket geometry adapts to the population and to the
// rate it is dequeued at, giving O(1) amortized schedule and pop where the
// binary heap pays O(log n) sifts.
//
// Deviations from the textbook structure, chosen for exact determinism
// and for the wormhole simulator's workload shape:
//
//   - Each bucket is kept sorted by (time, seq) behind a head cursor, so
//     the pop order is a pure function of the keys — bucket geometry can
//     never reorder events. The due-day check inspects only the bucket
//     head (the sorted order puts the earliest lap first), making pop
//     O(1); insertion bubbles from the tail. Same-instant event bursts
//     arrive in increasing seq and therefore insert in O(1); a degenerate
//     distribution (everything at one instant) turns the structure into a
//     plain FIFO instead of an O(n) scan per pop.
//   - The bucket count follows the stored population; the day width
//     follows what the queue serves: ~3x the mean dequeue gap over a
//     window of pops (Brown's rule, measured at the head of the queue
//     instead of sampled from the stored times). Parked far-future timers
//     therefore never widen the days — they wait in later ring laps or in
//     the overflow heap, the binary-heap fallback path (see DESIGN.md §9).
type calQueue struct {
	buckets  []bucket
	width    float64 // time span of one bucket (one "day")
	invWidth float64 // 1/width, cached: day indexing multiplies, never divides
	mask     int64   // len(buckets)-1; len is a power of two
	day      int64   // current day floor(now/width); no stored event is earlier
	count    int     // events stored in buckets (excludes overflow)

	// horizonDays = horizonYears * len(buckets): events at or beyond
	// day+horizonDays go to the overflow heap — the heap fallback for
	// far-future horizons.
	horizonDays int64
	overflow    eventHeap
	// ovDue caches when the overflow heap next needs looking at: its
	// earliest event enters the ring horizon once day > ovDue, i.e. ovDue =
	// dayOf(overflow[0].t) - horizonDays, or MaxInt64 while the heap is
	// empty. Everything that moves either side of that equation — an
	// overflow push or pop, a new day width or bucket count — goes through
	// setOvDue, so head() tests one integer per pop instead of calling
	// migrate.
	ovDue int64

	// growAt/shrinkAt are the population thresholds of the bucket count,
	// derived from it at the last rebuild.
	growAt   int
	shrinkAt int

	// pops counts the events dequeued since the clock read popT: the
	// window the day width is measured over (see retune). Peeks and
	// put-backs are not dequeues and never move either.
	pops int
	popT float64

	// min caches the key (t, seq) of the earliest stored event while
	// peeked is set, and the walk stands on it: day is its day and it
	// heads that day's bucket. peek sets it; place keeps it (a smaller
	// key lands on that day or an earlier one, which slot rewinds to, and
	// heads its bucket); a pop or a rebuild clears it. So the engine can
	// compare the calendar against its lanes on every pop without
	// walking, and popRef takes the earliest event without a second walk.
	min    item
	peeked bool

	// resizes counts geometry rebuilds since the last reset (see
	// Engine.Geometry).
	resizes uint64

	scratch []item // reused during rebuilds
	// bucketStore is the allocated backing of buckets; rebuilds that fit
	// within its capacity (shrinks, re-grows after a shrink) reslice it
	// instead of allocating, keeping geometry churn GC-quiet.
	bucketStore []bucket
	// laneStore is the tail of bucketStore's item arena set aside for the
	// engine's lane rings: two slots per allocated bucket (see makeBuckets).
	laneStore []item
}

// bucket is one calendar slot: items[head:] sorted ascending by (t, seq).
type bucket struct {
	head  int
	items []item
}

const (
	calMinBuckets = 16
	calMaxBuckets = 1 << 20
	// horizonYears bounds how many ring laps may share the buckets: a
	// deeper horizon keeps more of the schedule out of the overflow heap,
	// a shallower one keeps buckets purer. Four laps covers the wormhole
	// workload's generation lookahead with single-digit bucket occupancy.
	horizonYears = 4
	// calMaxDay bounds day indices so pathological width/time ratios
	// cannot overflow int64 arithmetic; times beyond it use the overflow
	// heap.
	calMaxDay = int64(1) << 59
	// calWindow is how many dequeues one measurement of the mean dequeue
	// gap spans: long enough to average over the workload's bursts, short
	// enough that a run re-learns a changed rate within a few thousand
	// events.
	calWindow = 4096
)

func (q *calQueue) len() int { return q.count + len(q.overflow) }

// dayOf maps a time to its day index. It must stay one fixed monotone
// function of t between geometry rebuilds — insert and pop both key off
// it, so any disagreement would strand an event in a never-probed slot.
//
//quarc:hotpath
func (q *calQueue) dayOf(t float64) int64 {
	d := t * q.invWidth
	if d >= float64(calMaxDay) {
		return calMaxDay
	}
	return int64(d)
}

// setGeometry installs nb buckets of the given width, with the day
// numbering anchored at now (a lower bound on every stored and future
// time) and the population thresholds that go with nb.
func (q *calQueue) setGeometry(nb int, width, now float64) {
	q.makeBuckets(nb)
	q.width = width
	q.invWidth = 1 / width
	q.day = q.dayOf(now)
	q.growAt = 2 * nb
	q.shrinkAt = nb / 4
	if nb == calMinBuckets {
		q.shrinkAt = 0 // never shrink below the minimum geometry
	}
	q.setOvDue()
}

// setOvDue recomputes ovDue from the overflow heap's head and the current
// geometry.
//
//quarc:hotpath
func (q *calQueue) setOvDue() {
	q.ovDue = math.MaxInt64
	if len(q.overflow) > 0 {
		q.ovDue = q.dayOf(q.overflow[0].t) - q.horizonDays
	}
}

// pushOverflow parks it in the far-future heap.
//
//quarc:hotpath
func (q *calQueue) pushOverflow(it item) {
	q.overflow.push(it)
	q.setOvDue()
}

// bucketsFor returns the bucket count for a population of n: the next
// power of two, ~1 event per bucket (drifting toward ~2 before growAt
// re-triggers).
func bucketsFor(n int) int {
	nb := calMinBuckets
	for nb < n && nb < calMaxBuckets {
		nb <<= 1
	}
	return nb
}

// hint installs a caller-provided initial geometry (see
// Engine.HintSchedule). Only an empty queue accepts it: a live one is
// already measuring its own.
func (q *calQueue) hint(span float64, pending int, now float64) {
	if q.len() > 0 {
		return
	}
	nb := bucketsFor(pending)
	q.setGeometry(nb, span/float64(nb), now)
}

// laneArena returns the lane store, bootstrapping the default geometry
// first if the queue has none yet: at least two slots per current
// bucket, since the store belongs to an arena allocated for at least as
// many buckets.
func (q *calQueue) laneArena(now float64) []item {
	if q.buckets == nil {
		q.setGeometry(calMinBuckets, 1, now)
	}
	return q.laneStore
}

// makeBuckets builds a bucket array over one flat item arena: two
// allocations per geometry rebuild instead of one per bucket, so a fresh
// network's first run doesn't pay hundreds of slice-growth allocations.
// Buckets that outgrow their arena segment reallocate individually (the
// three-index slice caps them against overlap). A day holds ~3 events by
// design; the segment leaves a burst four times that in place, or a
// pooled engine's narrow days outgrow it one bucket at a time, run after
// run. The arena's last two slots per bucket are the lane store, the
// rings of the engine's fixed-delay lanes (DeclareLanes), so lanes cost a
// fresh engine no allocation of their own.
func (q *calQueue) makeBuckets(nb int) {
	const seg = 14
	if cap(q.bucketStore) >= nb {
		q.buckets = q.bucketStore[:nb]
	} else {
		q.bucketStore = make([]bucket, nb)
		q.buckets = q.bucketStore
		flat := make([]item, nb*(seg+2))
		for i := range q.buckets {
			q.buckets[i].items = flat[i*seg : i*seg : (i+1)*seg]
		}
		q.laneStore = flat[nb*seg:]
	}
	q.mask = int64(nb - 1)
	q.horizonDays = horizonYears * int64(nb)
}

// place files an event under (t, seq) and returns the bucket slot it will
// wait in, key already set, for the caller to fill in the rest — or nil
// when the event lies beyond the ring horizon and belongs in the overflow
// heap (pushOverflow). now is the engine clock, a lower bound for t used
// to anchor the geometry. The slot is valid until the next queue
// operation.
//
//quarc:hotpath
func (q *calQueue) place(t float64, seq uint64, now float64) *item {
	if q.buckets == nil {
		q.setGeometry(calMinBuckets, 1, now)
	}
	if q.len() >= q.growAt {
		q.resize(q.width)
	}
	d := q.dayOf(t)
	if d >= q.day+q.horizonDays {
		return nil
	}
	if q.peeked && keyLess(t, seq, &q.min) {
		q.min.t, q.min.seq = t, seq
	}
	return q.slot(d, t, seq)
}

// insert re-files a whole item into its ring slot or the overflow heap:
// the by-value path of migrate, resize and unpop.
//
//quarc:hotpath
func (q *calQueue) insert(it item) {
	d := q.dayOf(it.t)
	if d >= q.day+q.horizonDays {
		q.pushOverflow(it)
		return
	}
	*q.slot(d, it.t, it.seq) = it
}

// slot opens the sorted position of key (t, seq) in day d's bucket and
// returns it with the key stored.
//
//quarc:hotpath
func (q *calQueue) slot(d int64, t float64, seq uint64) *item {
	if d < q.day {
		// The walk advanced to the head event's day, but the engine did
		// not serve it — it peeked it and a lane's event came first, or
		// put it back at a Run horizon — and the clock stayed behind; a
		// later push may land on an earlier day. Rewind: pop compares
		// real (t, seq) keys, so this costs a re-walk of empty days,
		// never a reorder.
		q.day = d
	}
	b := &q.buckets[d&q.mask]
	n := len(b.items)
	if n == cap(b.items) && b.head > 0 {
		// The bucket is a FIFO ring: pops advance head while inserts
		// append. Compact the dead head space instead of growing — a slot
		// fed by a steady event chain would otherwise reallocate every
		// ring lap.
		n = copy(b.items, b.items[b.head:])
		b.head = 0
	}
	if n < cap(b.items) {
		b.items = b.items[:n+1]
	} else {
		b.items = append(b.items, item{})
	}
	// Shift later items up to keep the bucket sorted. Same-time events
	// arrive in increasing seq, so the common case is zero moves.
	items, i := b.items, n
	for ; i > b.head && keyLess(t, seq, &items[i-1]); i-- {
		items[i] = items[i-1]
	}
	q.count++
	p := &items[i]
	p.t, p.seq = t, seq
	return p
}

// keyLess reports whether key (t, seq) orders before b's.
//
//quarc:hotpath
func keyLess(t float64, seq uint64, b *item) bool {
	if t != b.t {
		return t < b.t
	}
	return seq < b.seq
}

// migrate moves overflow events that entered the ring horizon (the
// current day advanced toward them) into their buckets.
//
//quarc:hotpath
func (q *calQueue) migrate() {
	for q.day > q.ovDue {
		it := q.overflow.pop()
		q.setOvDue()
		q.insert(it)
	}
}

// popRef dequeues the earliest (t, seq) event and returns its slot, or nil
// when the queue is empty; now is the engine clock, the time the dequeues
// counted so far have served up to. The slot is left as it is — nothing in
// an item needs dropping — and stays readable until the next queue
// operation, which may compact over it or abandon its array: the caller
// copies out what it needs first.
//
//quarc:hotpath
func (q *calQueue) popRef(now float64) *item {
	if q.len() == 0 {
		return nil
	}
	if q.pops >= calWindow || q.len() < q.shrinkAt {
		q.retune(now)
	}
	b := &q.buckets[q.day&q.mask]
	if !q.peeked {
		b = q.head()
	}
	q.peeked = false
	p := &b.items[b.head]
	b.head++
	if b.head == len(b.items) {
		b.items = b.items[:0]
		b.head = 0
	}
	q.count--
	q.pops++
	return p
}

// unpop re-files the item popRef just returned (passed by value: filing it
// reuses the slot) and takes it back out of the dequeue count: the
// engine's put-back of the first event beyond a Run horizon, which was
// never served.
func (q *calQueue) unpop(it item) {
	q.insert(it)
	q.pops--
}

// peek returns the key of the earliest stored event (only t and seq are
// set), walking to it unless a peek since the last pop already has, or
// nil when the queue is empty.
//
//quarc:hotpath
func (q *calQueue) peek() *item {
	if q.peeked {
		return &q.min
	}
	return q.walk()
}

// walk is peek's slow path: it walks to the earliest stored event and
// caches its key.
//
//quarc:hotpath
func (q *calQueue) walk() *item {
	if q.len() == 0 {
		return nil
	}
	b := q.head()
	it := &b.items[b.head]
	q.min.t, q.min.seq = it.t, it.seq
	q.peeked = true
	return &q.min
}

// head advances the current day to the earliest stored event's and
// returns that event's bucket; the caller guarantees len() > 0.
//
//quarc:hotpath
func (q *calQueue) head() *bucket {
	if q.day > q.ovDue || q.count == 0 {
		if q.count == 0 {
			// Everything lies beyond the ring horizon: jump to it.
			q.day = q.dayOf(q.overflow[0].t)
		}
		q.migrate()
	}
	steps := 0
	for {
		b := &q.buckets[q.day&q.mask]
		// The bucket head is the bucket minimum; if it is due today it is
		// the global minimum (earlier days are exhausted, later days
		// cannot precede it).
		if b.head < len(b.items) && q.dayOf(b.items[b.head].t) == q.day {
			return b
		}
		q.day++
		steps++
		if steps >= len(q.buckets) {
			// A whole lap without a due event: the schedule is sparse
			// here. Jump straight to the earliest stored day. Walks
			// between jumps are bounded by one lap (< horizonDays), so
			// the walk can never pass an overflow event's day before the
			// migrate below pulls it in.
			q.day = q.minBucketDay()
			q.migrate()
			steps = 0
		}
	}
}

// minBucketDay returns the earliest due day over all buckets; the caller
// guarantees count > 0.
func (q *calQueue) minBucketDay() int64 {
	min := int64(math.MaxInt64)
	for i := range q.buckets {
		b := &q.buckets[i]
		if b.head < len(b.items) {
			if d := q.dayOf(b.items[b.head].t); d < min {
				min = d
			}
		}
	}
	return min
}

// retune is the geometry policy, run from popRef. A day is sized by what the
// queue serves, not by what it stores: ~3x the mean gap between dequeues
// over the last calWindow of them (Brown's rule, with the separation
// measured at the head of the queue). A population of parked timers far
// ahead of a dense near-term stream — the wormhole simulator's shape —
// would stretch any width sampled from the stored times until every
// insert bubbles through a multi-item bucket; here the parked events sit
// in later ring laps or the overflow heap and the days stay as narrow as
// the stream. The width moves only on a 2x disagreement, so a steady
// workload rebuilds once; the bucket count follows the population (see
// resize). A window whose dequeues all fell on one instant measures no
// gap and keeps the width: same-instant bursts share a bucket regardless,
// where the sorted-bucket representation makes them O(1) anyway.
func (q *calQueue) retune(now float64) {
	width := q.width
	if q.pops >= calWindow {
		w := 3 * (now - q.popT) / float64(q.pops)
		q.pops, q.popT = 0, now
		if w > 0 && !math.IsInf(w, 1) {
			// The floor keeps day indices far from int64 overflow even
			// for tiny gaps over large time scales.
			w = math.Max(w, now/1e15)
			if w > 2*width || 2*w < width {
				width = w
			}
		}
	}
	if width != q.width || q.len() < q.shrinkAt {
		q.resize(width)
	}
}

// resize re-files every stored event under a geometry of the given day
// width and a bucket count that follows the current population. It
// allocates nothing once the retained storage covers the population.
func (q *calQueue) resize(width float64) {
	// The rebuilt day numbering must lower-bound every stored and future
	// time; the start of the current day does both (now lies within it).
	anchor := float64(q.day) * q.width

	// Collect every stored item.
	all := q.scratch[:0]
	if cap(all) < q.len() {
		all = make([]item, 0, q.len())
	}
	for i := range q.buckets {
		b := &q.buckets[i]
		all = append(all, b.items[b.head:]...)
		b.items = b.items[:0]
		b.head = 0
	}
	all = append(all, q.overflow...)
	q.overflow = q.overflow[:0]
	q.count = 0
	q.peeked = false

	q.setGeometry(bucketsFor(len(all)), width, anchor)
	q.resizes++
	for _, it := range all {
		q.insert(it)
	}
	// Retain the gather buffer only at moderate sizes so one huge run
	// doesn't pin the scratch space.
	if cap(all) <= 1<<15 {
		q.scratch = all[:0]
	} else {
		q.scratch = nil
	}
}

// reset empties the queue and forgets everything the last run learned:
// the geometry returns to the default (the owner re-issues its hint) and
// the dequeue window restarts, so a reused queue's speed is a function of
// the run it serves and never of the runs before it. Only storage
// survives — unless grossly over-grown by a past run: buckets and the
// overflow heap above maxRetain items are freed so a single huge run does
// not pin memory for the rest of a sweep.
func (q *calQueue) reset(maxRetain int) {
	total := len(q.laneStore)
	for i := range q.bucketStore {
		b := &q.bucketStore[i]
		total += cap(b.items)
		b.items = b.items[:0]
		b.head = 0
	}
	if cap(q.overflow) > maxRetain {
		q.overflow = nil
	} else {
		q.overflow = q.overflow[:0]
	}
	q.setOvDue()
	if cap(q.scratch) > maxRetain {
		q.scratch = nil
	}
	q.count = 0
	q.peeked = false
	q.pops, q.popT = 0, 0
	q.resizes = 0
	if total > maxRetain || len(q.bucketStore) > calMaxRetainedBuckets {
		// Re-made lazily, by the next hint or push.
		q.buckets, q.bucketStore, q.laneStore = nil, nil, nil
	} else if q.buckets != nil {
		q.setGeometry(calMinBuckets, 1, 0)
	}
}

// calMaxRetainedBuckets bounds the bucket-array size kept across Reset.
const calMaxRetainedBuckets = 1 << 12
