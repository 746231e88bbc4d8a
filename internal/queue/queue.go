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
// Events are stored by value in a power-of-two ring, columnar like the
// batches that feed it (one parallel ring per Event field), so the steady
// state allocates nothing and bulk transfers move column segments instead
// of striding 56-byte records: pushes copy into the rings, pops copy out,
// and the rings only grow (never shrink) until they fit the deployment's
// peak backlog.  See DESIGN-PERF.md §9 for the columnar memory model.
package queue

import (
	"fmt"
	"time"

	"repro/internal/tuple"
)

// minRingSize is the initial ring allocation; must be a power of two.
const minRingSize = 64

// Queue is a FIFO buffer of events with weight-based capacity accounting.
// It is not safe for concurrent use; each simulation run is
// single-goroutine (runs themselves may execute in parallel, each with its
// own queues).
type Queue struct {
	name string
	// capWeight is the maximum buffered real-event weight; 0 means
	// unbounded.  The paper's queues are memory-bounded on the driver
	// machines; exceeding the bound means the generator can no longer
	// buffer and the experiment is halted.
	capWeight int64

	// The ring is columnar: seven parallel power-of-two slices of equal
	// length; head and tail are free-running counters masked by
	// len(ring)-1.  tail-head is the live count.
	stream     []tuple.StreamID
	userID     []int64
	gemPackID  []int64
	price      []int64
	eventTime  []time.Duration
	ingestTime []time.Duration
	wcol       []int64
	head       uint64
	tail       uint64

	weight   int64
	totalIn  int64 // cumulative real-event weight pushed
	totalOut int64 // cumulative real-event weight popped
	overflow bool
}

// New creates a queue.  capWeight is the maximum real-event weight buffered
// (0 = unbounded).
func New(name string, capWeight int64) *Queue {
	return &Queue{name: name, capWeight: capWeight}
}

// Name returns the queue's name.
func (q *Queue) Name() string { return q.name }

// Reset empties the queue and clears all accounting (weight, totals,
// overflow), keeping the grown rings so a reused run performs no ring
// growth (see driver.Probe).
func (q *Queue) Reset() {
	q.head, q.tail = 0, 0
	q.weight, q.totalIn, q.totalOut = 0, 0, 0
	q.overflow = false
}

// ringSize returns the current ring capacity.
func (q *Queue) ringSize() int { return len(q.wcol) }

// relinearize copies the live ring segment of one column in FIFO order
// into dst (len(dst) >= live count).
func relinearize[T any](dst, ring []T, head uint64, n int) {
	if n == 0 || len(ring) == 0 {
		return
	}
	h := int(head & uint64(len(ring)-1))
	c := copy(dst, ring[h:min(h+n, len(ring))])
	if c < n {
		copy(dst[c:], ring[:n-c])
	}
}

// grow doubles the rings (or allocates the initial ones), relinearising the
// live events at the front.
func (q *Queue) grow() {
	size := 2 * q.ringSize()
	if size < minRingSize {
		size = minRingSize
	}
	n := int(q.tail - q.head)
	stream := make([]tuple.StreamID, size)
	userID := make([]int64, size)
	gemPackID := make([]int64, size)
	price := make([]int64, size)
	eventTime := make([]time.Duration, size)
	ingestTime := make([]time.Duration, size)
	wcol := make([]int64, size)
	relinearize(stream, q.stream, q.head, n)
	relinearize(userID, q.userID, q.head, n)
	relinearize(gemPackID, q.gemPackID, q.head, n)
	relinearize(price, q.price, q.head, n)
	relinearize(eventTime, q.eventTime, q.head, n)
	relinearize(ingestTime, q.ingestTime, q.head, n)
	relinearize(wcol, q.wcol, q.head, n)
	q.stream, q.userID, q.gemPackID, q.price = stream, userID, gemPackID, price
	q.eventTime, q.ingestTime, q.wcol = eventTime, ingestTime, wcol
	q.head = 0
	q.tail = uint64(n)
}

// reserve grows the rings until they can hold n more events.
func (q *Queue) reserve(n int) {
	for q.ringSize()-int(q.tail-q.head) < n {
		q.grow()
	}
}

// Push appends an event.  It returns false — and marks the queue
// overflowed — if the event does not fit; the driver converts that into an
// experiment failure at the offered rate.
func (q *Queue) Push(e tuple.Event) bool {
	if q.capWeight > 0 && q.weight+e.Weight > q.capWeight {
		q.overflow = true
		return false
	}
	if int(q.tail-q.head) == q.ringSize() {
		q.grow()
	}
	i := q.tail & uint64(q.ringSize()-1)
	q.stream[i] = e.Stream
	q.userID[i] = e.UserID
	q.gemPackID[i] = e.GemPackID
	q.price[i] = e.Price
	q.eventTime[i] = e.EventTime
	q.ingestTime[i] = e.IngestTime
	q.wcol[i] = e.Weight
	q.tail++
	q.weight += e.Weight
	q.totalIn += e.Weight
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

// scatterCol copies every stride-th element of src starting at start into
// the ring from free-running position t.
func scatterCol[T any](ring []T, t, mask uint64, src []T, start, stride int) {
	j := t
	for i := start; i < len(src); i += stride {
		ring[j&mask] = src[i]
		j++
	}
}

// pushCols bulk-pushes the strided row subset {start, start+stride, ...}
// of a columnar view, preserving per-event Push semantics.  When the whole
// subset fits under the capacity bound the columns move with per-column
// strided copies and one accounting update; otherwise it falls back to
// per-event Push so overflow detection is bit-identical to the row path.
func (q *Queue) pushCols(c tuple.Cols, start, stride int) {
	n := len(c.Weight)
	if start >= n || stride <= 0 {
		return
	}
	count := (n - start + stride - 1) / stride
	var wsum int64
	for i := start; i < n; i += stride {
		wsum += c.Weight[i]
	}
	if q.capWeight > 0 && q.weight+wsum > q.capWeight {
		for i := start; i < n; i += stride {
			q.Push(c.Row(i))
		}
		return
	}
	q.reserve(count)
	mask := uint64(q.ringSize() - 1)
	t := q.tail
	scatterCol(q.stream, t, mask, c.Stream, start, stride)
	scatterCol(q.userID, t, mask, c.UserID, start, stride)
	scatterCol(q.gemPackID, t, mask, c.GemPackID, start, stride)
	scatterCol(q.price, t, mask, c.Price, start, stride)
	scatterCol(q.eventTime, t, mask, c.EventTime, start, stride)
	scatterCol(q.ingestTime, t, mask, c.IngestTime, start, stride)
	scatterCol(q.wcol, t, mask, c.Weight, start, stride)
	q.tail += uint64(count)
	q.weight += wsum
	q.totalIn += wsum
}

// PushFromBatch pushes every row of the batch in order — the bulk
// column-to-column transfer engines use to move a pulled batch into an
// internal buffer (Storm's spout-to-bolt queue).  Semantics match pushing
// the rows one by one.
func (q *Queue) PushFromBatch(b *tuple.Batch) {
	q.pushCols(b.Columns(), 0, 1)
}

// row materializes the ring entry at masked index i.
func (q *Queue) row(i uint64) tuple.Event {
	return tuple.Event{
		Stream:     q.stream[i],
		UserID:     q.userID[i],
		GemPackID:  q.gemPackID[i],
		Price:      q.price[i],
		EventTime:  q.eventTime[i],
		IngestTime: q.ingestTime[i],
		Weight:     q.wcol[i],
	}
}

// Pop removes and returns the oldest event; ok is false if the queue is
// empty.
func (q *Queue) Pop() (e tuple.Event, ok bool) {
	if q.head == q.tail {
		return tuple.Event{}, false
	}
	e = q.row(q.head & uint64(q.ringSize()-1))
	q.head++
	q.weight -= e.Weight
	q.totalOut += e.Weight
	return e, true
}

// popSeg copies the two FIFO segments [h, h+n) mod ringSize of one column
// into dst.
func popSeg[T any](dst, ring []T, h int, n int) {
	c := copy(dst, ring[h:min(h+n, len(ring))])
	if c < n {
		copy(dst[c:], ring[:n-c])
	}
}

// PopBatch appends up to max events in FIFO order to dst and returns how
// many were moved.  The copies in dst are owned by the caller; columns
// move as at most two contiguous segments each.
func (q *Queue) PopBatch(dst *tuple.Batch, max int) int {
	n := int(q.tail - q.head)
	if n > max {
		n = max
	}
	if n <= 0 {
		return 0
	}
	c := dst.Extend(n)
	h := int(q.head & uint64(q.ringSize()-1))
	popSeg(c.Stream, q.stream, h, n)
	popSeg(c.UserID, q.userID, h, n)
	popSeg(c.GemPackID, q.gemPackID, h, n)
	popSeg(c.Price, q.price, h, n)
	popSeg(c.EventTime, q.eventTime, h, n)
	popSeg(c.IngestTime, q.ingestTime, h, n)
	popSeg(c.Weight, q.wcol, h, n)
	var wsum int64
	for _, w := range c.Weight {
		wsum += w
	}
	q.head += uint64(n)
	q.weight -= wsum
	q.totalOut += wsum
	return n
}

// gatherCol copies count ring elements starting at free-running position h
// into dst at positions offset, offset+stride, ...
func gatherCol[T any](dst []T, offset, stride int, ring []T, h, mask uint64, count int) {
	j := offset
	for r := 0; r < count; r++ {
		dst[j] = ring[(h+uint64(r))&mask]
		j += stride
	}
}

// popStrided removes count events from the head, writing row r to the
// strided positions offset+r*stride of the columnar view — the bulk leg of
// the group's round-robin drain.
func (q *Queue) popStrided(c tuple.Cols, offset, stride, count int) {
	mask := uint64(q.ringSize() - 1)
	h := q.head
	gatherCol(c.Stream, offset, stride, q.stream, h, mask, count)
	gatherCol(c.UserID, offset, stride, q.userID, h, mask, count)
	gatherCol(c.GemPackID, offset, stride, q.gemPackID, h, mask, count)
	gatherCol(c.Price, offset, stride, q.price, h, mask, count)
	gatherCol(c.EventTime, offset, stride, q.eventTime, h, mask, count)
	gatherCol(c.IngestTime, offset, stride, q.ingestTime, h, mask, count)
	var wsum int64
	j := offset
	for r := 0; r < count; r++ {
		w := q.wcol[(h+uint64(r))&mask]
		c.Weight[j] = w
		wsum += w
		j += stride
	}
	q.head += uint64(count)
	q.weight -= wsum
	q.totalOut += wsum
}

// Peek returns a copy of the oldest event without removing it; ok is false
// if the queue is empty.
func (q *Queue) Peek() (e tuple.Event, ok bool) {
	if q.head == q.tail {
		return tuple.Event{}, false
	}
	return q.row(q.head & uint64(q.ringSize()-1)), true
}

// Len returns the number of buffered simulated events.
func (q *Queue) Len() int { return int(q.tail - q.head) }

// Weight returns the buffered real-event weight (the paper's "maximum
// number of events ... queued" tolerance is judged on this).
func (q *Queue) Weight() int64 { return q.weight }

// TotalIn returns the cumulative real-event weight ever pushed.
func (q *Queue) TotalIn() int64 { return q.totalIn }

// TotalOut returns the cumulative real-event weight ever popped.
func (q *Queue) TotalOut() int64 { return q.totalOut }

// Overflowed reports whether a push was ever refused.
func (q *Queue) Overflowed() bool { return q.overflow }

// Group is the set of queues of one deployment (one per generator
// instance), with helpers for the SUT side to drain them fairly.
type Group struct {
	queues []*Queue
	next   int
	// live is PopBatch's scratch of non-empty queue indices.
	live []int
}

// NewGroup creates n queues named prefix-0..n-1, each with capWeight.
func NewGroup(prefix string, n int, capWeight int64) *Group {
	g := &Group{}
	for i := 0; i < n; i++ {
		g.queues = append(g.queues, New(fmt.Sprintf("%s-%d", prefix, i), capWeight))
	}
	return g
}

// Queues returns the member queues.
func (g *Group) Queues() []*Queue { return g.queues }

// Reset empties every member queue and rewinds the drain cursor, keeping
// grown rings (see driver.Probe).
func (g *Group) Reset() {
	for _, q := range g.queues {
		q.Reset()
	}
	g.next = 0
}

// Queue returns the i-th member.
func (g *Group) Queue(i int) *Queue { return g.queues[i] }

// Size returns the number of queues.
func (g *Group) Size() int { return len(g.queues) }

// Weight returns the total buffered real-event weight across the group.
func (g *Group) Weight() int64 {
	var w int64
	for _, q := range g.queues {
		w += q.weight
	}
	return w
}

// Len returns the total number of buffered simulated events.
func (g *Group) Len() int {
	n := 0
	for _, q := range g.queues {
		n += q.Len()
	}
	return n
}

// TotalIn returns cumulative pushed weight across the group.
func (g *Group) TotalIn() int64 {
	var w int64
	for _, q := range g.queues {
		w += q.totalIn
	}
	return w
}

// TotalOut returns cumulative popped weight across the group — the SUT's
// cumulative ingestion, which is where the paper measures throughput.
func (g *Group) TotalOut() int64 {
	var w int64
	for _, q := range g.queues {
		w += q.totalOut
	}
	return w
}

// Overflowed reports whether any member overflowed.
func (g *Group) Overflowed() bool {
	for _, q := range g.queues {
		if q.overflow {
			return true
		}
	}
	return false
}

// Scatter distributes the batch's rows round-robin over the member queues
// (row i to queue i mod size), preserving each queue's arrival order —
// the generator's fan-out.  Each queue receives its strided row subset as
// per-column bulk copies; capacity bounds and overflow marking behave
// exactly as if the rows had been Pushed one by one in row order.
func (g *Group) Scatter(b *tuple.Batch) {
	size := len(g.queues)
	n := b.Len()
	if size == 0 || n == 0 {
		return
	}
	c := b.Columns()
	for qi := 0; qi < size && qi < n; qi++ {
		g.queues[qi].pushCols(c, qi, size)
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
// shortest member and max allow, as one strided per-column gather per
// queue.  When fewer events than the set's size remain to be moved, a
// partial last round takes one event from each of the first queues in
// cursor order.  The interleaving in dst is identical to the historical
// per-event rotation that skips empty queues.
func (g *Group) PopBatch(dst *tuple.Batch, max int) int {
	size := len(g.queues)
	moved := 0
	for moved < max {
		// The non-empty queues in cursor order and their shortest length.
		g.live = g.live[:0]
		minLen := 0
		for k := 0; k < size; k++ {
			qi := (g.next + k) % size
			if n := g.queues[qi].Len(); n > 0 {
				g.live = append(g.live, qi)
				if minLen == 0 || n < minLen {
					minLen = n
				}
			}
		}
		if len(g.live) == 0 {
			break
		}
		rounds := min(minLen, (max-moved)/len(g.live))
		if rounds == 0 {
			g.live, rounds = g.live[:max-moved], 1
		}
		c := dst.Extend(rounds * len(g.live))
		for k, qi := range g.live {
			g.queues[qi].popStrided(c, k, len(g.live), rounds)
		}
		moved += rounds * len(g.live)
		// The queues skipped between the old cursor and the last one
		// popped are empty, so the next phase's order is unchanged.
		g.next = (g.live[len(g.live)-1] + 1) % size
	}
	return moved
}
