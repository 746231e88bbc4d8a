// Package queue implements the driver-side queues that sit between each
// data-generator instance and the SUT's source operators (Section III-B of
// the paper): in-memory, co-located with their generator, evening out the
// difference between the constant generation rate and the SUT's fluctuating
// ingestion rate.
//
// The queues are where event-time latency accrues under backpressure ("the
// longer an event stays in a queue, the higher its latency") and where the
// driver measures throughput.  A SUT that stops draining a queue for too
// long — Storm dropping connections under overload — is detected here and
// treated as a failure, exactly as the paper prescribes.
//
// Each Group owns one event store, the log: a columnar power-of-two ring
// (one slice per Event field, like the batches that feed it) holding
// events by value in arrival order.  A member Queue is a FIFO of log
// positions plus its capacity accounting; a standalone queue (New) is a
// one-member group.  Scatter copies a generator tick into the log as at
// most two segments per column and hands each member its strided
// positions; Group.PopBatch collects the round-robin drain order as
// positions and gathers once, as two segments per column when the order
// is a contiguous log range (the steady state when the engine drains every
// tick).  Log rows are released lazily, up to the oldest position a member
// still holds; dead rows that a lagging member pins are squeezed out
// before the log grows, and it never shrinks, so the steady state
// allocates nothing.  See DESIGN-PERF.md §3 and §9.
package queue

import (
	"fmt"
	"slices"

	"repro/internal/tuple"
)

// minRingSize is the initial log allocation; must be a power of two.
const minRingSize = 64

// heldPerQueue is the position capacity each member starts with, carved
// from one array per group; a member whose backlog outgrows it moves to
// an array of its own.
const heldPerQueue = 4

// eventLog is a group's event store.  Positions are free-running: the row
// at position p lives at index p & mask of every column.  Members may hold
// positions in [head, tail); the rows in that span no member holds
// (popped, or refused for capacity) are dead until reserve moves head.
type eventLog struct {
	cols       tuple.Cols
	head, tail uint64
}

func (l *eventLog) mask() uint64 { return uint64(len(l.cols.Weight) - 1) }

// resize moves the rows in [head, tail) into fresh columns of the given
// power-of-two size, each row keeping its position.
func (l *eventLog) resize(size int) {
	c := tuple.NewBatch(size).Extend(size)
	moveCol(c.Stream, l.cols.Stream, l.head, l.tail)
	moveCol(c.UserID, l.cols.UserID, l.head, l.tail)
	moveCol(c.GemPackID, l.cols.GemPackID, l.head, l.tail)
	moveCol(c.Price, l.cols.Price, l.head, l.tail)
	moveCol(c.EventTime, l.cols.EventTime, l.head, l.tail)
	moveCol(c.IngestTime, l.cols.IngestTime, l.head, l.tail)
	moveCol(c.Weight, l.cols.Weight, l.head, l.tail)
	l.cols = c
}

// moveCol copies the rows at positions [head, tail) of one column ring
// into a larger one.  Both sizes are powers of two, so a segment that does
// not wrap in src does not wrap in dst either.
func moveCol[T any](dst, src []T, head, tail uint64) {
	sm, dm := uint64(len(src)-1), uint64(len(dst)-1)
	for p := head; p < tail; {
		i, j := p&sm, p&dm
		n := min(tail-p, uint64(len(src))-i)
		copy(dst[j:j+n], src[i:i+n])
		p += n
	}
}

// copyIn writes src into the ring from index i, wrapping once.
func copyIn[T any](ring []T, i int, src []T) {
	c := copy(ring[i:], src)
	copy(ring, src[c:])
}

// fetchCol fills dst with the ring entries at pos: as at most two copies
// when run (pos is a run of consecutive positions), one by one otherwise.
func fetchCol[T any](dst, ring []T, pos []uint64, mask uint64, run bool) {
	if run {
		c := copy(dst, ring[pos[0]&mask:])
		copy(dst[c:], ring)
		return
	}
	dst = dst[:len(pos)]
	for i, p := range pos {
		dst[i] = ring[p&mask]
	}
}

// appendCols copies every row of c to the log's tail and returns the first
// row's position.  The caller has reserved room.
func (l *eventLog) appendCols(c tuple.Cols) uint64 {
	p, i := l.tail, int(l.tail&l.mask())
	copyIn(l.cols.Stream, i, c.Stream)
	copyIn(l.cols.UserID, i, c.UserID)
	copyIn(l.cols.GemPackID, i, c.GemPackID)
	copyIn(l.cols.Price, i, c.Price)
	copyIn(l.cols.EventTime, i, c.EventTime)
	copyIn(l.cols.IngestTime, i, c.IngestTime)
	copyIn(l.cols.Weight, i, c.Weight)
	l.tail += uint64(len(c.Weight))
	return p
}

// set writes e as the row at position p.
func (l *eventLog) set(p uint64, e tuple.Event) {
	c, i := &l.cols, p&l.mask()
	c.Stream[i], c.UserID[i], c.GemPackID[i], c.Price[i] = e.Stream, e.UserID, e.GemPackID, e.Price
	c.EventTime[i], c.IngestTime[i], c.Weight[i] = e.EventTime, e.IngestTime, e.Weight
}

// row materializes the event at position p.
func (l *eventLog) row(p uint64) tuple.Event {
	c, i := &l.cols, p&l.mask()
	return tuple.Event{
		Stream: c.Stream[i], UserID: c.UserID[i], GemPackID: c.GemPackID[i], Price: c.Price[i],
		EventTime: c.EventTime[i], IngestTime: c.IngestTime[i], Weight: c.Weight[i],
	}
}

// gather copies the rows at pos, in order, into c (len(c) == len(pos)).
func (l *eventLog) gather(c tuple.Cols, pos []uint64) {
	if len(pos) == 0 {
		return
	}
	m, run := l.mask(), contiguous(pos)
	fetchCol(c.Stream, l.cols.Stream, pos, m, run)
	fetchCol(c.UserID, l.cols.UserID, pos, m, run)
	fetchCol(c.GemPackID, l.cols.GemPackID, pos, m, run)
	fetchCol(c.Price, l.cols.Price, pos, m, run)
	fetchCol(c.EventTime, l.cols.EventTime, pos, m, run)
	fetchCol(c.IngestTime, l.cols.IngestTime, pos, m, run)
	fetchCol(c.Weight, l.cols.Weight, pos, m, run)
}

// contiguous reports whether pos is a run of consecutive positions.
func contiguous(pos []uint64) bool {
	for i, p := range pos {
		if p != pos[0]+uint64(i) {
			return false
		}
	}
	return true
}

// Queue is a FIFO buffer of events with weight-based capacity accounting.
// Its events live in its group's log; the queue holds their positions.
// It is not safe for concurrent use; each simulation run is
// single-goroutine (runs themselves may execute in parallel, each with its
// own queues).
type Queue struct {
	// The fields Scatter and PopBatch touch come first, to share a cache
	// line.  pos[ph:] are the positions of the buffered events, in FIFO
	// and ascending order; pos[:ph] were popped.
	pos      []uint64
	ph       int
	weight   int64
	totalIn  int64 // cumulative real-event weight pushed
	totalOut int64 // cumulative real-event weight popped
	// capWeight is the maximum buffered real-event weight; 0 means
	// unbounded.  The paper's queues are memory-bounded on the driver
	// machines; exceeding the bound means the generator can no longer
	// buffer and the experiment is halted.
	capWeight int64

	g        *Group // owns the log
	name     string
	refused  int64 // cumulative real-event weight refused for capacity
	overflow bool
}

// New creates a standalone queue (a one-member group).  capWeight is the
// maximum real-event weight buffered (0 = unbounded).
func New(name string, capWeight int64) *Queue {
	q := newGroup(1, capWeight).queues[0]
	q.name = name
	return q
}

// Name returns the queue's name.
func (q *Queue) Name() string { return q.name }

// Reset empties the queue and clears all accounting (weight, totals,
// overflow), keeping grown storage so a reused run performs no growth
// (see driver.Probe).
func (q *Queue) Reset() {
	q.pos, q.ph = q.pos[:0], 0
	q.weight, q.totalIn, q.totalOut, q.refused = 0, 0, 0, 0
	q.overflow = false
}

// hold appends position p.  When the array is full and the popped
// positions are at least as many as the held ones, it drops the popped
// ones instead of letting append grow the array, so appends stay
// amortized O(1) and the array within four times the peak backlog.
func (q *Queue) hold(p uint64) {
	if len(q.pos) == cap(q.pos) && 2*q.ph >= len(q.pos) {
		n := copy(q.pos, q.pos[q.ph:])
		q.pos, q.ph = q.pos[:n], 0
	}
	q.pos = append(q.pos, p)
}

// admit applies the capacity bound to one event of weight w with Push's
// accounting: it returns false — and records the refusal — if the event
// does not fit.
func (q *Queue) admit(w int64) bool {
	if q.capWeight > 0 && q.weight+w > q.capWeight {
		q.overflow = true
		q.refused += w
		return false
	}
	q.weight += w
	q.totalIn += w
	return true
}

// take admits the log rows at base+start, base+start+stride, ... (weights
// w[start], w[start+stride], ...) in order, with exact Push semantics.
// When the whole subset fits under the bound it skips the per-event
// checks; refused rows stay in the log, dead.
func (q *Queue) take(w []int64, base uint64, start, stride int) {
	var wsum int64
	for i := start; i < len(w); i += stride {
		wsum += w[i]
	}
	if q.capWeight == 0 || q.weight+wsum <= q.capWeight {
		for i := start; i < len(w); i += stride {
			q.hold(base + uint64(i))
		}
		q.weight += wsum
		q.totalIn += wsum
		return
	}
	for i := start; i < len(w); i += stride {
		if q.admit(w[i]) {
			q.hold(base + uint64(i))
		}
	}
}

// Push appends an event.  It returns false — and marks the queue
// overflowed — if the event does not fit; the driver converts that into an
// experiment failure at the offered rate.
func (q *Queue) Push(e tuple.Event) bool {
	if !q.admit(e.Weight) {
		return false
	}
	q.g.reserve(1)
	l := &q.g.log
	l.set(l.tail, e)
	q.hold(l.tail)
	l.tail++
	return true
}

// PushBatch pushes every event of the slice in order, stopping at the
// first one that does not fit.  It returns the number pushed; a short
// return means the queue overflowed, exactly as if the events had been
// pushed one by one.
func (q *Queue) PushBatch(events []tuple.Event) int {
	for i := range events {
		if !q.Push(events[i]) {
			return i
		}
	}
	return len(events)
}

// PushFromBatch pushes every row of the batch in order — the bulk
// column-to-column transfer engines use to move a pulled batch into an
// internal buffer (Storm's spout-to-bolt queue).  Semantics match pushing
// the rows one by one.
func (q *Queue) PushFromBatch(b *tuple.Batch) {
	if b.Len() > 0 {
		c := b.Columns()
		q.take(c.Weight, q.g.appendCols(c), 0, 1)
	}
}

// Pop removes and returns the oldest event; ok is false if the queue is
// empty.
func (q *Queue) Pop() (tuple.Event, bool) {
	if q.ph == len(q.pos) {
		return tuple.Event{}, false
	}
	e := q.g.log.row(q.pos[q.ph])
	q.ph++
	q.weight -= e.Weight
	q.totalOut += e.Weight
	return e, true
}

// PopBatch appends up to max events in FIFO order to dst and returns how
// many were moved.  The copies in dst are owned by the caller.
func (q *Queue) PopBatch(dst *tuple.Batch, max int) int {
	n := min(q.Len(), max)
	if n <= 0 {
		return 0
	}
	pos := q.pos[q.ph : q.ph+n]
	// Handing the positions off onto their own slots only does the
	// accounting; they stay readable until the next append.
	q.handOff(pos, 1, n, &q.g.log)
	q.g.log.gather(dst.Extend(n), pos)
	return n
}

// handOff removes count positions from the FIFO head, writing them to
// order at 0, stride, 2*stride, ... — one queue's leg of the group's
// round-robin drain.
func (q *Queue) handOff(order []uint64, stride, count int, l *eventLog) {
	w, m := l.cols.Weight, l.mask()
	var wsum int64
	j := 0
	for _, p := range q.pos[q.ph : q.ph+count] {
		order[j] = p
		wsum += w[p&m]
		j += stride
	}
	q.ph += count
	q.weight -= wsum
	q.totalOut += wsum
}

// Peek returns a copy of the oldest event without removing it; ok is false
// if the queue is empty.
func (q *Queue) Peek() (e tuple.Event, ok bool) {
	if q.ph == len(q.pos) {
		return tuple.Event{}, false
	}
	return q.g.log.row(q.pos[q.ph]), true
}

// Len returns the number of buffered simulated events.
func (q *Queue) Len() int { return len(q.pos) - q.ph }

// Weight returns the buffered real-event weight (the paper's "maximum
// number of events ... queued" tolerance is judged on this).
func (q *Queue) Weight() int64 { return q.weight }

// TotalIn returns the cumulative real-event weight ever pushed.
func (q *Queue) TotalIn() int64 { return q.totalIn }

// TotalOut returns the cumulative real-event weight ever popped.
func (q *Queue) TotalOut() int64 { return q.totalOut }

// Refused returns the cumulative real-event weight refused for capacity.
func (q *Queue) Refused() int64 { return q.refused }

// Overflowed reports whether a push was ever refused.
func (q *Queue) Overflowed() bool { return q.overflow }

// Group is the set of queues of one deployment (one per generator
// instance), with helpers for the SUT side to drain them fairly.  The
// members' events share the group's log.
type Group struct {
	// members holds the queues themselves; queues points at them.
	members []Queue
	queues  []*Queue
	next    int
	log     eventLog
	// live and order are PopBatch's scratch: a phase's non-empty queue
	// indices and the drained positions in output order.
	live  []int
	order []uint64
}

// NewGroup creates n queues named prefix-0..n-1, each with capWeight.
func NewGroup(prefix string, n int, capWeight int64) *Group {
	g := newGroup(n, capWeight)
	for i, q := range g.queues {
		q.name = fmt.Sprintf("%s-%d", prefix, i)
	}
	return g
}

// newGroup creates n unnamed members.  The members, and their first
// position slots, lie next to each other, so a drain walks adjacent
// memory.
func newGroup(n int, capWeight int64) *Group {
	g := &Group{members: make([]Queue, n), queues: make([]*Queue, n)}
	held := make([]uint64, n*heldPerQueue)
	for i := range g.members {
		k := i * heldPerQueue
		g.members[i] = Queue{pos: held[k : k : k+heldPerQueue], capWeight: capWeight, g: g}
		g.queues[i] = &g.members[i]
	}
	return g
}

// reserve makes room in the log for n more rows.  It first releases the
// rows before the oldest position any member still holds.  If that is not
// enough and at most half the rows left are held — members drained
// unevenly, so dead rows pin the span — it squeezes them out.  It grows
// the log only if the log is still full.
func (g *Group) reserve(n int) {
	l := &g.log
	if len(l.cols.Weight)-int(l.tail-l.head) >= n {
		return
	}
	l.head = l.tail
	for _, q := range g.queues {
		if q.Len() > 0 {
			l.head = min(l.head, q.pos[q.ph])
		}
	}
	if span := int(l.tail - l.head); len(l.cols.Weight)-span < n && 2*g.Len() <= span {
		g.squeeze()
	}
	size := max(len(l.cols.Weight), minRingSize)
	for size < int(l.tail-l.head)+n {
		size *= 2
	}
	if size > len(l.cols.Weight) {
		l.resize(size)
	}
}

// squeeze moves the held rows down over the dead ones, keeping their log
// order, and renumbers the members' positions to match: the held rows end
// up at consecutive positions from head.  It borrows PopBatch's order as
// scratch, rank[i] being the new offset of the row at head+i.
func (g *Group) squeeze() {
	l := &g.log
	span := int(l.tail - l.head)
	rank := slices.Grow(g.order[:0], span)[:span]
	clear(rank)
	for _, q := range g.queues {
		for _, p := range q.pos[q.ph:] {
			rank[p-l.head] = 1
		}
	}
	var k uint64
	for i, held := range rank {
		if held != 0 {
			rank[i] = k
			l.set(l.head+k, l.row(l.head+uint64(i)))
			k++
		}
	}
	for _, q := range g.queues {
		for j, p := range q.pos[q.ph:] {
			q.pos[q.ph+j] = l.head + rank[p-l.head]
		}
	}
	l.tail = l.head + k
	g.order = rank[:0]
}

// appendCols reserves room for and appends every row of c to the log,
// returning the first row's position.
func (g *Group) appendCols(c tuple.Cols) uint64 {
	g.reserve(len(c.Weight))
	return g.log.appendCols(c)
}

// Queues returns the member queues.
func (g *Group) Queues() []*Queue { return g.queues }

// Reset empties every member queue and the log and rewinds the drain
// cursor, keeping grown storage (see driver.Probe).
func (g *Group) Reset() {
	for _, q := range g.queues {
		q.Reset()
	}
	g.next = 0
	g.log.head, g.log.tail = 0, 0
}

// Queue returns the i-th member.
func (g *Group) Queue(i int) *Queue { return g.queues[i] }

// Size returns the number of queues.
func (g *Group) Size() int { return len(g.queues) }

// sum adds up one per-member figure.
func (g *Group) sum(f func(*Queue) int64) int64 {
	var s int64
	for _, q := range g.queues {
		s += f(q)
	}
	return s
}

// Weight returns the total buffered real-event weight across the group.
func (g *Group) Weight() int64 { return g.sum((*Queue).Weight) }

// Len returns the total number of buffered simulated events.
func (g *Group) Len() int {
	return int(g.sum(func(q *Queue) int64 { return int64(q.Len()) }))
}

// TotalIn returns cumulative pushed weight across the group.
func (g *Group) TotalIn() int64 { return g.sum((*Queue).TotalIn) }

// TotalOut returns cumulative popped weight across the group — the SUT's
// cumulative ingestion, which is where the paper measures throughput.
func (g *Group) TotalOut() int64 { return g.sum((*Queue).TotalOut) }

// Refused returns cumulative weight refused for capacity across the group.
func (g *Group) Refused() int64 { return g.sum((*Queue).Refused) }

// Overflowed reports whether any member overflowed.
func (g *Group) Overflowed() bool {
	return slices.ContainsFunc(g.queues, (*Queue).Overflowed)
}

// Scatter distributes the batch's rows round-robin over the member queues
// (row i to queue i mod size, starting at queue 0 every call), preserving
// each queue's arrival order — the generator's fan-out.  The rows are
// copied into the log once and each queue takes its strided positions;
// capacity bounds and overflow marking behave exactly as if the rows had
// been Pushed one by one in row order.
func (g *Group) Scatter(b *tuple.Batch) {
	size, n := len(g.queues), b.Len()
	if size == 0 || n == 0 {
		return
	}
	c := b.Columns()
	base := g.appendCols(c)
	for qi := 0; qi < size && qi < n; qi++ {
		g.members[qi].take(c.Weight, base, qi, size)
	}
}

// PopBatch appends up to max events to dst, removed round-robin across the
// queues one event at a time, preserving approximate arrival fairness.  It
// moves fewer than max only when the group is drained.  The round-robin
// cursor persists across calls so no queue is starved: it is left just
// after the last queue popped.
//
// The drain runs in phases over which the set of non-empty queues stays
// the same: each phase takes as many full rounds over that set as its
// shortest member and max allow, handing each queue's positions to the
// drain order at the set's stride.  When fewer events than the set's size
// remain to be moved, a partial last round takes one event from each of
// the first queues in cursor order.  The rows are then gathered from the
// log once.  The interleaving in dst is identical to the historical
// per-event rotation that skips empty queues.
func (g *Group) PopBatch(dst *tuple.Batch, max int) int {
	size := len(g.queues)
	g.order = g.order[:0]
	for len(g.order) < max {
		// The non-empty queues in cursor order, their shortest length
		// and their total.
		g.live = g.live[:0]
		minLen, held := 0, 0
		for k, qi := 0, g.next; k < size; k, qi = k+1, qi+1 {
			if qi == size {
				qi = 0
			}
			if n := g.members[qi].Len(); n > 0 {
				g.live = append(g.live, qi)
				held += n
				if minLen == 0 || n < minLen {
					minLen = n
				}
			}
		}
		if len(g.live) == 0 {
			break
		}
		left := max - len(g.order)
		rounds := min(minLen, left/len(g.live))
		if rounds == 0 {
			g.live, rounds = g.live[:left], 1
		}
		base := len(g.order)
		g.order = slices.Grow(g.order, rounds*len(g.live))[:base+rounds*len(g.live)]
		for k, qi := range g.live {
			g.members[qi].handOff(g.order[base+k:], len(g.live), rounds, &g.log)
		}
		// The queues skipped between the old cursor and the last one
		// popped are empty, so the next phase's order is unchanged.
		g.next = (g.live[len(g.live)-1] + 1) % size
		if rounds*len(g.live) == held {
			break // drained
		}
	}
	g.log.gather(dst.Extend(len(g.order)), g.order)
	return len(g.order)
}
