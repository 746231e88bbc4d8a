package queue

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/tuple"
)

func mkEvent(i int, weight int64) tuple.Event {
	return tuple.Event{
		UserID: int64(i), GemPackID: int64(i % 10),
		EventTime: time.Duration(i) * time.Millisecond, Weight: weight,
	}
}

func TestQueueFIFO(t *testing.T) {
	q := New("q", 0)
	for i := 0; i < 100; i++ {
		if !q.Push(mkEvent(i, 1)) {
			t.Fatal("unbounded queue refused a push")
		}
	}
	for i := 0; i < 100; i++ {
		e, ok := q.Pop()
		if !ok || e.UserID != int64(i) {
			t.Fatalf("FIFO order broken at %d: %+v", i, e)
		}
	}
	if _, ok := q.Pop(); ok {
		t.Fatal("empty queue must pop nothing")
	}
}

func TestQueueWeightAccounting(t *testing.T) {
	q := New("q", 0)
	q.Push(mkEvent(0, 200))
	q.Push(mkEvent(1, 300))
	if q.Weight() != 500 || q.Len() != 2 {
		t.Fatalf("weight=%d len=%d", q.Weight(), q.Len())
	}
	q.Pop()
	if q.Weight() != 300 || q.TotalOut() != 200 || q.TotalIn() != 500 {
		t.Fatalf("after pop: weight=%d out=%d in=%d", q.Weight(), q.TotalOut(), q.TotalIn())
	}
}

func TestQueueCapacityOverflow(t *testing.T) {
	q := New("q", 500)
	if !q.Push(mkEvent(0, 400)) {
		t.Fatal("push within capacity refused")
	}
	if q.Push(mkEvent(1, 200)) {
		t.Fatal("push beyond capacity accepted")
	}
	if !q.Overflowed() {
		t.Fatal("overflow must be recorded (it is the paper's failure signal)")
	}
	// Weight-100 event still fits.
	if !q.Push(mkEvent(2, 100)) {
		t.Fatal("push that fits after refusal should succeed")
	}
}

// TestQueueOverflowAtCapacityParity pins the exact boundary semantics the
// pre-ring queue had: a push that lands exactly on capWeight is accepted,
// one real event over is refused, and a refused push does not change any
// of the counters.
func TestQueueOverflowAtCapacityParity(t *testing.T) {
	q := New("q", 1000)
	if !q.Push(mkEvent(0, 600)) || !q.Push(mkEvent(1, 400)) {
		t.Fatal("pushes summing exactly to capacity must be accepted")
	}
	if q.Overflowed() {
		t.Fatal("filling to exactly capWeight is not an overflow")
	}
	if q.Push(mkEvent(2, 1)) {
		t.Fatal("one event over capacity must be refused")
	}
	if !q.Overflowed() {
		t.Fatal("the refusal must be recorded")
	}
	if q.Weight() != 1000 || q.TotalIn() != 1000 || q.TotalOut() != 0 || q.Len() != 2 {
		t.Fatalf("refused push must not change accounting: w=%d in=%d out=%d len=%d",
			q.Weight(), q.TotalIn(), q.TotalOut(), q.Len())
	}
	// Draining restores headroom.
	q.Pop()
	if !q.Push(mkEvent(3, 600)) {
		t.Fatal("push that fits after a pop should succeed")
	}
}

func TestQueuePeek(t *testing.T) {
	q := New("q", 0)
	if _, ok := q.Peek(); ok {
		t.Fatal("peek on empty must report not-ok")
	}
	q.Push(mkEvent(7, 1))
	if e, ok := q.Peek(); !ok || e.UserID != 7 || q.Len() != 1 {
		t.Fatal("peek must not consume")
	}
}

// TestQueueRingWraparound drives the ring through many full revolutions at
// several fill levels so head/tail wrap the slab repeatedly; FIFO order and
// accounting must survive every wrap.
func TestQueueRingWraparound(t *testing.T) {
	for _, fill := range []int{1, 3, minRingSize - 1, minRingSize, minRingSize + 17} {
		q := New("q", 0)
		next, popped := 0, 0
		for round := 0; round < 300; round++ {
			for i := 0; i < fill; i++ {
				q.Push(mkEvent(next, 1))
				next++
			}
			for i := 0; i < fill; i++ {
				e, ok := q.Pop()
				if !ok || e.UserID != int64(popped) {
					t.Fatalf("fill=%d: order broken after wraparound at %d: %+v", fill, popped, e)
				}
				popped++
			}
		}
		if q.Len() != 0 || q.Weight() != 0 {
			t.Fatalf("fill=%d: queue should be drained: len=%d w=%d", fill, q.Len(), q.Weight())
		}
	}
}

// TestQueueGrowthRelinearises forces a grow while head sits mid-ring, which
// exercises the two-segment copy.
func TestQueueGrowthRelinearises(t *testing.T) {
	q := New("q", 0)
	next, popped := 0, 0
	// Advance head partway, then overfill far beyond one ring size.
	for i := 0; i < minRingSize; i++ {
		q.Push(mkEvent(next, 1))
		next++
	}
	for i := 0; i < minRingSize/2; i++ {
		q.Pop()
		popped++
	}
	for i := 0; i < 5*minRingSize; i++ {
		q.Push(mkEvent(next, 1))
		next++
	}
	for popped < next {
		e, ok := q.Pop()
		if !ok || e.UserID != int64(popped) {
			t.Fatalf("order broken after growth at %d: %+v", popped, e)
		}
		popped++
	}
}

func TestQueuePushPopBatch(t *testing.T) {
	q := New("q", 0)
	in := make([]tuple.Event, 100)
	for i := range in {
		in[i] = mkEvent(i, 2)
	}
	if n := q.PushBatch(in); n != 100 {
		t.Fatalf("unbounded PushBatch moved %d of 100", n)
	}
	b := tuple.NewBatch(32)
	if n := q.PopBatch(b, 30); n != 30 || b.Len() != 30 {
		t.Fatalf("PopBatch moved %d (batch %d), want 30", n, b.Len())
	}
	for i, uid := range b.Columns().UserID {
		if uid != int64(i) {
			t.Fatalf("batch order broken at %d: %+v", i, b.Row(i))
		}
	}
	if q.Len() != 70 || q.Weight() != 140 || q.TotalOut() != 60 {
		t.Fatalf("accounting after PopBatch: len=%d w=%d out=%d", q.Len(), q.Weight(), q.TotalOut())
	}
	// PopBatch appends: a second pop extends the same batch.
	if n := q.PopBatch(b, 1000); n != 70 || b.Len() != 100 {
		t.Fatalf("draining PopBatch moved %d (batch %d)", n, b.Len())
	}
	if b.Columns().UserID[99] != 99 {
		t.Fatalf("appended batch order broken: %+v", b.Row(99))
	}
}

func TestQueuePushBatchStopsAtOverflow(t *testing.T) {
	q := New("q", 5)
	in := []tuple.Event{mkEvent(0, 2), mkEvent(1, 2), mkEvent(2, 2)}
	if n := q.PushBatch(in); n != 2 {
		t.Fatalf("PushBatch should stop at the event that does not fit: moved %d", n)
	}
	if !q.Overflowed() || q.Weight() != 4 {
		t.Fatalf("overflow parity broken: overflowed=%v w=%d", q.Overflowed(), q.Weight())
	}
}

func TestQueueConservationProperty(t *testing.T) {
	// TotalIn == TotalOut + Weight at all times, for any push/pop mix.
	f := func(ops []bool, weights []uint8) bool {
		q := New("q", 0)
		wi := 0
		for _, push := range ops {
			if push {
				w := int64(1)
				if wi < len(weights) {
					w = int64(weights[wi]%100) + 1
					wi++
				}
				q.Push(mkEvent(wi, w))
			} else {
				q.Pop()
			}
			if q.TotalIn() != q.TotalOut()+q.Weight() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestGroupRoundRobinFairness(t *testing.T) {
	g := NewGroup("gen", 4, 0)
	if g.Size() != 4 {
		t.Fatalf("size: %d", g.Size())
	}
	for i := 0; i < 4; i++ {
		for j := 0; j < 10; j++ {
			g.Queue(i).Push(mkEvent(i*100+j, 1))
		}
	}
	b := tuple.NewBatch(8)
	if n := g.PopBatch(b, 8); n != 8 {
		t.Fatalf("popped %d", n)
	}
	// Round-robin: exactly two events from each queue.
	seen := map[int64]int{}
	for _, uid := range b.Columns().UserID {
		seen[uid/100]++
	}
	for i := int64(0); i < 4; i++ {
		if seen[i] != 2 {
			t.Fatalf("queue %d contributed %d of 8 (want 2): %v", i, seen[i], seen)
		}
	}
}

func TestGroupPopBatchDrainsUnevenQueues(t *testing.T) {
	g := NewGroup("gen", 3, 0)
	// Only queue 1 has events.
	for j := 0; j < 5; j++ {
		g.Queue(1).Push(mkEvent(j, 1))
	}
	b := tuple.NewBatch(16)
	if n := g.PopBatch(b, 10); n != 5 {
		t.Fatalf("should drain all 5 available, got %d", n)
	}
	b.Reset()
	if g.PopBatch(b, 10) != 0 {
		t.Fatal("drained group should move nothing")
	}
	if g.PopBatch(b, 0) != 0 {
		t.Fatal("max<=0 should move nothing")
	}
}

// refPopBatch is the historical per-event round-robin drain Group.PopBatch
// must reproduce: visit the queues from the cursor one at a time, popping
// one event from each non-empty one, until max moved or a full idle cycle.
func refPopBatch(g *Group, dst *tuple.Batch, max int) int {
	size := len(g.queues)
	moved, idle := 0, 0
	for moved < max && idle < size {
		q := g.queues[g.next%size]
		g.next++
		if e, ok := q.Pop(); ok {
			dst.Append(e)
			moved++
			idle = 0
		} else {
			idle++
		}
	}
	return moved
}

// TestGroupPopBatchMatchesPerEventReference drives PopBatch and the
// per-event reference over identical groups — random sizes, queue lengths
// (many queues empty), max values and cursor positions, across repeated
// pulls — and requires the same rows in the same order, the same counts,
// the same cursor (mod size) and the same weight totals.
func TestGroupPopBatchMatchesPerEventReference(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		size := r.Intn(17) + 1
		got, want := NewGroup("got", size, 0), NewGroup("want", size, 0)
		got.next = r.Intn(size)
		want.next = got.next
		id := 0
		for pull := 0; pull < 6; pull++ {
			for qi := 0; qi < size; qi++ {
				if r.Intn(3) == 0 {
					continue // leave this queue empty or draining
				}
				for n := r.Intn(12); n > 0; n-- {
					e := mkEvent(id, int64(r.Intn(300)+1))
					id++
					got.Queue(qi).Push(e)
					want.Queue(qi).Push(e)
				}
			}
			max := r.Intn(3 * size * 8)
			gb, wb := tuple.NewBatch(0), tuple.NewBatch(0)
			if gn, wn := got.PopBatch(gb, max), refPopBatch(want, wb, max); gn != wn {
				t.Logf("seed %d pull %d: moved %d, reference %d", seed, pull, gn, wn)
				return false
			}
			if !slices.Equal(gb.AppendRowsTo(nil), wb.AppendRowsTo(nil)) {
				t.Logf("seed %d pull %d: rows differ", seed, pull)
				return false
			}
			if got.next%size != want.next%size {
				t.Logf("seed %d pull %d: cursor %d, reference %d", seed, pull, got.next%size, want.next%size)
				return false
			}
			if got.Weight() != want.Weight() || got.TotalOut() != want.TotalOut() || got.Len() != want.Len() {
				t.Logf("seed %d pull %d: weight/out/len %d/%d/%d, reference %d/%d/%d", seed, pull,
					got.Weight(), got.TotalOut(), got.Len(), want.Weight(), want.TotalOut(), want.Len())
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestGroupAggregates(t *testing.T) {
	g := NewGroup("gen", 2, 100)
	g.Queue(0).Push(mkEvent(0, 60))
	g.Queue(1).Push(mkEvent(1, 70))
	if g.Weight() != 130 || g.Len() != 2 || g.TotalIn() != 130 {
		t.Fatalf("group accounting wrong: w=%d l=%d in=%d", g.Weight(), g.Len(), g.TotalIn())
	}
	if g.Overflowed() {
		t.Fatal("no overflow yet")
	}
	g.Queue(1).Push(mkEvent(2, 60)) // exceeds 100 on queue 1
	if !g.Overflowed() {
		t.Fatal("group must surface member overflow")
	}
}

// The ring-per-queue implementation the log-backed group replaced, kept
// as the reference model for TestGroupMatchesRingReference: each queue
// owned seven column rings, Scatter pushed strided column subsets into
// them and PopBatch gathered strided per queue.

// refQueue is a FIFO buffer of events with weight-based capacity accounting.
// It is not safe for concurrent use; each simulation run is
// single-goroutine (runs themselves may execute in parallel, each with its
// own queues).
type refQueue struct {
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

// newRef creates a queue.  capWeight is the maximum real-event weight buffered
// (0 = unbounded).
func newRef(name string, capWeight int64) *refQueue {
	return &refQueue{name: name, capWeight: capWeight}
}

// Reset empties the queue and clears all accounting (weight, totals,
// overflow), keeping the grown rings so a reused run performs no ring
// growth (see driver.Probe).
func (q *refQueue) Reset() {
	q.head, q.tail = 0, 0
	q.weight, q.totalIn, q.totalOut = 0, 0, 0
	q.overflow = false
}

// ringSize returns the current ring capacity.
func (q *refQueue) ringSize() int { return len(q.wcol) }

// refRelinearize copies the live ring segment of one column in FIFO order
// into dst (len(dst) >= live count).
func refRelinearize[T any](dst, ring []T, head uint64, n int) {
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
func (q *refQueue) grow() {
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
	refRelinearize(stream, q.stream, q.head, n)
	refRelinearize(userID, q.userID, q.head, n)
	refRelinearize(gemPackID, q.gemPackID, q.head, n)
	refRelinearize(price, q.price, q.head, n)
	refRelinearize(eventTime, q.eventTime, q.head, n)
	refRelinearize(ingestTime, q.ingestTime, q.head, n)
	refRelinearize(wcol, q.wcol, q.head, n)
	q.stream, q.userID, q.gemPackID, q.price = stream, userID, gemPackID, price
	q.eventTime, q.ingestTime, q.wcol = eventTime, ingestTime, wcol
	q.head = 0
	q.tail = uint64(n)
}

// reserve grows the rings until they can hold n more events.
func (q *refQueue) reserve(n int) {
	for q.ringSize()-int(q.tail-q.head) < n {
		q.grow()
	}
}

// Push appends an event.  It returns false — and marks the queue
// overflowed — if the event does not fit; the driver converts that into an
// experiment failure at the offered rate.
func (q *refQueue) Push(e tuple.Event) bool {
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

// refScatterCol copies every stride-th element of src starting at start into
// the ring from free-running position t.
func refScatterCol[T any](ring []T, t, mask uint64, src []T, start, stride int) {
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
func (q *refQueue) pushCols(c tuple.Cols, start, stride int) {
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
	refScatterCol(q.stream, t, mask, c.Stream, start, stride)
	refScatterCol(q.userID, t, mask, c.UserID, start, stride)
	refScatterCol(q.gemPackID, t, mask, c.GemPackID, start, stride)
	refScatterCol(q.price, t, mask, c.Price, start, stride)
	refScatterCol(q.eventTime, t, mask, c.EventTime, start, stride)
	refScatterCol(q.ingestTime, t, mask, c.IngestTime, start, stride)
	refScatterCol(q.wcol, t, mask, c.Weight, start, stride)
	q.tail += uint64(count)
	q.weight += wsum
	q.totalIn += wsum
}

// PushFromBatch pushes every row of the batch in order — the bulk
// column-to-column transfer engines use to move a pulled batch into an
// internal buffer (Storm's spout-to-bolt queue).  Semantics match pushing
// the rows one by one.
func (q *refQueue) PushFromBatch(b *tuple.Batch) {
	q.pushCols(b.Columns(), 0, 1)
}

// row materializes the ring entry at masked index i.
func (q *refQueue) row(i uint64) tuple.Event {
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
func (q *refQueue) Pop() (e tuple.Event, ok bool) {
	if q.head == q.tail {
		return tuple.Event{}, false
	}
	e = q.row(q.head & uint64(q.ringSize()-1))
	q.head++
	q.weight -= e.Weight
	q.totalOut += e.Weight
	return e, true
}

// refPopSeg copies the two FIFO segments [h, h+n) mod ringSize of one column
// into dst.
func refPopSeg[T any](dst, ring []T, h int, n int) {
	c := copy(dst, ring[h:min(h+n, len(ring))])
	if c < n {
		copy(dst[c:], ring[:n-c])
	}
}

// PopBatch appends up to max events in FIFO order to dst and returns how
// many were moved.  The copies in dst are owned by the caller; columns
// move as at most two contiguous segments each.
func (q *refQueue) PopBatch(dst *tuple.Batch, max int) int {
	n := int(q.tail - q.head)
	if n > max {
		n = max
	}
	if n <= 0 {
		return 0
	}
	c := dst.Extend(n)
	h := int(q.head & uint64(q.ringSize()-1))
	refPopSeg(c.Stream, q.stream, h, n)
	refPopSeg(c.UserID, q.userID, h, n)
	refPopSeg(c.GemPackID, q.gemPackID, h, n)
	refPopSeg(c.Price, q.price, h, n)
	refPopSeg(c.EventTime, q.eventTime, h, n)
	refPopSeg(c.IngestTime, q.ingestTime, h, n)
	refPopSeg(c.Weight, q.wcol, h, n)
	var wsum int64
	for _, w := range c.Weight {
		wsum += w
	}
	q.head += uint64(n)
	q.weight -= wsum
	q.totalOut += wsum
	return n
}

// refGatherCol copies count ring elements starting at free-running position h
// into dst at positions offset, offset+stride, ...
func refGatherCol[T any](dst []T, offset, stride int, ring []T, h, mask uint64, count int) {
	j := offset
	for r := 0; r < count; r++ {
		dst[j] = ring[(h+uint64(r))&mask]
		j += stride
	}
}

// popStrided removes count events from the head, writing row r to the
// strided positions offset+r*stride of the columnar view — the bulk leg of
// the group's round-robin drain.
func (q *refQueue) popStrided(c tuple.Cols, offset, stride, count int) {
	mask := uint64(q.ringSize() - 1)
	h := q.head
	refGatherCol(c.Stream, offset, stride, q.stream, h, mask, count)
	refGatherCol(c.UserID, offset, stride, q.userID, h, mask, count)
	refGatherCol(c.GemPackID, offset, stride, q.gemPackID, h, mask, count)
	refGatherCol(c.Price, offset, stride, q.price, h, mask, count)
	refGatherCol(c.EventTime, offset, stride, q.eventTime, h, mask, count)
	refGatherCol(c.IngestTime, offset, stride, q.ingestTime, h, mask, count)
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
func (q *refQueue) Peek() (e tuple.Event, ok bool) {
	if q.head == q.tail {
		return tuple.Event{}, false
	}
	return q.row(q.head & uint64(q.ringSize()-1)), true
}

// Len returns the number of buffered simulated events.
func (q *refQueue) Len() int { return int(q.tail - q.head) }

// refGroup is the set of queues of one deployment (one per generator
// instance), with helpers for the SUT side to drain them fairly.
type refGroup struct {
	queues []*refQueue
	next   int
	// live is PopBatch's scratch of non-empty queue indices.
	live []int
}

// newRefGroup creates n queues named prefix-0..n-1, each with capWeight.
func newRefGroup(prefix string, n int, capWeight int64) *refGroup {
	g := &refGroup{}
	for i := 0; i < n; i++ {
		g.queues = append(g.queues, newRef(fmt.Sprintf("%s-%d", prefix, i), capWeight))
	}
	return g
}

// Reset empties every member queue and rewinds the drain cursor, keeping
// grown rings (see driver.Probe).
func (g *refGroup) Reset() {
	for _, q := range g.queues {
		q.Reset()
	}
	g.next = 0
}

// Scatter distributes the batch's rows round-robin over the member queues
// (row i to queue i mod size), preserving each queue's arrival order —
// the generator's fan-out.  Each queue receives its strided row subset as
// per-column bulk copies; capacity bounds and overflow marking behave
// exactly as if the rows had been Pushed one by one in row order.
func (g *refGroup) Scatter(b *tuple.Batch) {
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
func (g *refGroup) PopBatch(dst *tuple.Batch, max int) int {
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

// randEvent returns an event with every column drawn, so a row mix-up in
// any column shows.
func randEvent(r *rand.Rand, id int) tuple.Event {
	return tuple.Event{
		Stream:     tuple.StreamID(r.Intn(2)),
		UserID:     int64(id),
		GemPackID:  r.Int63n(1000),
		Price:      r.Int63n(100),
		EventTime:  time.Duration(id) * time.Millisecond,
		IngestTime: time.Duration(r.Intn(1000)),
		Weight:     int64(r.Intn(300) + 1),
	}
}

// TestGroupMatchesRingReference drives random interleavings of every group
// and member operation — Scatter (batches of 0 to 3×size rows, wrapping
// and growing the log), member Push, PushFromBatch, Pop, Peek and
// PopBatch, Group.PopBatch (max from 0), group and member Reset — on a
// log-backed group and on the ring-per-queue reference, with capacity
// bounds that overflow partway through a scatter.  After every operation
// the results, rows and order, cursor (mod size) and every member's Len,
// Weight, TotalIn, TotalOut and Overflowed must agree, and Refused must
// equal the weight the reference turned away.
func TestGroupMatchesRingReference(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		size := r.Intn(17) + 1
		var capW int64
		if r.Intn(3) > 0 {
			capW = int64(r.Intn(4000) + 300)
		}
		got := NewGroup("got", size, capW)
		if size == 1 && r.Intn(2) == 0 {
			got = New("got", capW).g
		}
		want := newRefGroup("want", size, capW)
		refused := make([]int64, size)
		id := 0
		batch := func(n int) *tuple.Batch {
			b := tuple.NewBatch(0)
			for ; n > 0; n-- {
				b.Append(randEvent(r, id))
				id++
			}
			return b
		}
		for op := 0; op < 300; op++ {
			qi := r.Intn(size)
			gq, wq := got.queues[qi], want.queues[qi]
			var what string
			switch k := r.Intn(20); {
			case k < 6:
				what = "Scatter"
				b := batch(r.Intn(3*size + 1))
				in := make([]int64, size)
				for i, q := range want.queues {
					in[i] = q.totalIn
				}
				got.Scatter(b)
				want.Scatter(b)
				for i, w := range b.Columns().Weight {
					refused[i%size] += w
				}
				for i, q := range want.queues {
					refused[i] -= q.totalIn - in[i]
				}
			case k < 8:
				what = "Push"
				e := randEvent(r, id)
				id++
				gok, wok := gq.Push(e), wq.Push(e)
				if gok != wok {
					t.Logf("seed %d op %d: Push %v, reference %v", seed, op, gok, wok)
					return false
				}
				if !wok {
					refused[qi] += e.Weight
				}
			case k < 9:
				what = "PushFromBatch"
				b := batch(r.Intn(8))
				in := wq.totalIn
				gq.PushFromBatch(b)
				wq.PushFromBatch(b)
				refused[qi] += b.Weight() - (wq.totalIn - in)
			case k < 11:
				what = "Pop"
				ge, gok := gq.Pop()
				we, wok := wq.Pop()
				if ge != we || gok != wok {
					t.Logf("seed %d op %d: Pop %+v %v, reference %+v %v", seed, op, ge, gok, we, wok)
					return false
				}
			case k < 12:
				what = "Peek"
				ge, gok := gq.Peek()
				we, wok := wq.Peek()
				if ge != we || gok != wok {
					t.Logf("seed %d op %d: Peek %+v %v, reference %+v %v", seed, op, ge, gok, we, wok)
					return false
				}
			case k < 13:
				what = "member PopBatch"
				max := r.Intn(12)
				gb, wb := tuple.NewBatch(0), tuple.NewBatch(0)
				gn, wn := gq.PopBatch(gb, max), wq.PopBatch(wb, max)
				if gn != wn || !slices.Equal(gb.AppendRowsTo(nil), wb.AppendRowsTo(nil)) {
					t.Logf("seed %d op %d: member PopBatch moved %d, reference %d", seed, op, gn, wn)
					return false
				}
			case k < 18:
				what = "PopBatch"
				max := r.Intn(3*size*4 + 1)
				gb, wb := tuple.NewBatch(0), tuple.NewBatch(0)
				gn, wn := got.PopBatch(gb, max), want.PopBatch(wb, max)
				if gn != wn || !slices.Equal(gb.AppendRowsTo(nil), wb.AppendRowsTo(nil)) {
					t.Logf("seed %d op %d: PopBatch moved %d, reference %d", seed, op, gn, wn)
					return false
				}
			case k < 19:
				what = "member Reset"
				gq.Reset()
				wq.Reset()
				refused[qi] = 0
			default:
				what = "Reset"
				got.Reset()
				want.Reset()
				clear(refused)
			}
			if got.next%size != want.next%size {
				t.Logf("seed %d op %d (%s): cursor %d, reference %d", seed, op, what, got.next%size, want.next%size)
				return false
			}
			for i, g := range got.queues {
				w := want.queues[i]
				if g.Len() != w.Len() || g.weight != w.weight || g.totalIn != w.totalIn ||
					g.totalOut != w.totalOut || g.overflow != w.overflow || g.refused != refused[i] {
					t.Logf("seed %d op %d (%s): queue %d len/w/in/out/ovf/refused %d/%d/%d/%d/%v/%d, reference %d/%d/%d/%d/%v/%d",
						seed, op, what, i, g.Len(), g.weight, g.totalIn, g.totalOut, g.overflow, g.refused,
						w.Len(), w.weight, w.totalIn, w.totalOut, w.overflow, refused[i])
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

// TestGroupLogStaysNearBacklog drains a group unevenly: 17 rows per
// scatter over 16 queues, so queue 0 gets two a tick, and 16 drained a
// tick, so every queue gives up one.  Queue 0's head falls ever further
// behind the others', and the rows between — popped from the other
// queues — are dead.  The log must squeeze them out instead of growing
// with the run: its size stays within a small factor of what is held.
func TestGroupLogStaysNearBacklog(t *testing.T) {
	g := NewGroup("g", 16, 0)
	in, out := tuple.NewBatch(17), tuple.NewBatch(16)
	for i := 0; i < 17; i++ {
		in.Append(mkEvent(i, 1))
	}
	for tick := 0; tick < 5000; tick++ {
		g.Scatter(in)
		out.Reset()
		g.PopBatch(out, 16)
	}
	if size, held := len(g.log.cols.Weight), g.Len(); held != 5000 || size > 4*(held+17) {
		t.Fatalf("log holds %d rows for %d held events, want at most %d", size, held, 4*(held+17))
	}
}

// BenchmarkQueuePushPop measures the steady-state push/pop hot path; it
// must report 0 allocs/op once the ring has grown to the working set.
func BenchmarkQueuePushPop(b *testing.B) {
	q := New("bench", 0)
	e := mkEvent(1, 20)
	// Warm the ring so the one-time grow is not charged to the first
	// timed iteration (keeps the -benchtime=1x CI smoke at 0 allocs/op).
	q.Push(e)
	q.Pop()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.Push(e)
		q.Pop()
	}
}

// BenchmarkQueueBatchTransfer measures the batched variant used by the
// engines' source pull: 256-event batches through a group of 16 queues.
func BenchmarkQueueBatchTransfer(b *testing.B) {
	g := NewGroup("bench", 16, 0)
	in := make([]tuple.Event, 256)
	for i := range in {
		in[i] = mkEvent(i, 20)
	}
	batch := tuple.NewBatch(256)
	// Warm the rings and the batch slab before timing.
	for j := range in {
		g.Queue(j % 16).Push(in[j])
	}
	g.PopBatch(batch, 256)
	batch.Reset()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range in {
			g.Queue(j % 16).Push(in[j])
		}
		batch.Reset()
		g.PopBatch(batch, 256)
	}
}

// BenchmarkGroupScatterDrain measures the generator-to-engine path at the
// steady workloads' tick sizes: each op scatters a 15-row and a 40-row
// batch over 16 queues and drains each fully.  It must report 0 allocs/op
// once the log and scratch have grown.
func BenchmarkGroupScatterDrain(b *testing.B) {
	g := NewGroup("bench", 16, 0)
	small, large := tuple.NewBatch(15), tuple.NewBatch(40)
	for i := 0; i < 40; i++ {
		if i < 15 {
			small.Append(mkEvent(i, 20))
		}
		large.Append(mkEvent(i, 20))
	}
	dst := tuple.NewBatch(64)
	op := func() {
		g.Scatter(small)
		dst.Reset()
		g.PopBatch(dst, small.Len())
		g.Scatter(large)
		dst.Reset()
		g.PopBatch(dst, large.Len())
	}
	// Warm the log and the drain scratch before timing (keeps the
	// -benchtime=1x CI smoke at 0 allocs/op).
	op()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
}
