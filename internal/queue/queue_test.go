package queue

import (
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
