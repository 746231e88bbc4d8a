package window

import (
	"fmt"
	"slices"
	"sort"
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/tuple"
)

func ev(stream tuple.StreamID, user, pack, price int64, at time.Duration) *tuple.Event {
	return &tuple.Event{
		Stream: stream, UserID: user, GemPackID: pack, Price: price,
		EventTime: at, IngestTime: at + time.Second, Weight: 1,
	}
}

func TestPaneAggregatorPaperFigure1(t *testing.T) {
	// Figure 1: a 10-minute window receives keyed events; key=US gets
	// prices 12, 20, 10 at times 580, 590, 600 and the SUM output is 42
	// with event-time 600.  We reproduce with a 600s tumbling window.
	asg := mustAssigner(t, 600*time.Second, 600*time.Second)
	pa := NewPaneAggregator(asg)
	const us, ger, jpn = 1, 2, 3
	pa.Add(ev(tuple.Purchases, 1, us, 12, 580*time.Second))
	pa.Add(ev(tuple.Purchases, 2, us, 20, 590*time.Second))
	pa.Add(ev(tuple.Purchases, 3, us, 10, 599*time.Second))
	pa.Add(ev(tuple.Purchases, 4, ger, 43, 580*time.Second))
	pa.Add(ev(tuple.Purchases, 5, ger, 20, 590*time.Second))
	pa.Add(ev(tuple.Purchases, 6, ger, 20, 595*time.Second))
	pa.Add(ev(tuple.Purchases, 7, jpn, 33, 580*time.Second))
	pa.Add(ev(tuple.Purchases, 8, jpn, 20, 590*time.Second))
	pa.Add(ev(tuple.Purchases, 9, jpn, 77, 599*time.Second))

	res := pa.Fire(600 * time.Second)
	if len(res) != 3 {
		t.Fatalf("expected 3 keyed outputs, got %d", len(res))
	}
	got := map[int64]Agg{}
	for _, r := range res {
		got[r.Key] = r.Agg
	}
	if got[us].Sum != 42 || got[ger].Sum != 83 || got[jpn].Sum != 130 {
		t.Fatalf("sums wrong: US=%d Ger=%d Jpn=%d", got[us].Sum, got[ger].Sum, got[jpn].Sum)
	}
	// Definition 3: output event-time is the max contributing event-time.
	if got[us].Prov.MaxEventTime != 599*time.Second {
		t.Fatalf("US event-time provenance: %v", got[us].Prov.MaxEventTime)
	}
	if got[ger].Prov.MaxEventTime != 595*time.Second {
		t.Fatalf("Ger event-time provenance: %v", got[ger].Prov.MaxEventTime)
	}
}

func TestPaneAggregatorSlidingOverlap(t *testing.T) {
	// (8s,4s): an event at t=5s contributes to windows ending at 8s and
	// 12s; both fire with the same sum.
	asg := mustAssigner(t, 8*time.Second, 4*time.Second)
	pa := NewPaneAggregator(asg)
	pa.Add(ev(tuple.Purchases, 1, 7, 100, 5*time.Second))
	res := pa.Fire(12 * time.Second)
	if len(res) != 2 {
		t.Fatalf("expected the event in 2 windows, got %d", len(res))
	}
	for _, r := range res {
		if r.Agg.Sum != 100 || r.Key != 7 {
			t.Fatalf("bad window result: %+v", r)
		}
	}
	if pa.LiveEntries() != 0 {
		t.Fatal("fired state must be released")
	}
}

func TestPaneAggregatorFireOnlyRipeWindows(t *testing.T) {
	asg := mustAssigner(t, 8*time.Second, 4*time.Second)
	pa := NewPaneAggregator(asg)
	pa.Add(ev(tuple.Purchases, 1, 7, 1, 5*time.Second)) // windows 8s, 12s
	res := pa.Fire(8 * time.Second)
	if len(res) != 1 || res[0].Window.End != 8*time.Second {
		t.Fatalf("only the 8s window should fire: %+v", res)
	}
	if pa.Fire(8*time.Second) != nil {
		t.Fatal("re-firing the same watermark must yield nothing")
	}
	res = pa.Fire(12 * time.Second)
	if len(res) != 1 || res[0].Window.End != 12*time.Second {
		t.Fatalf("the 12s window should fire next: %+v", res)
	}
}

func TestAggregatorWeightsAndCounts(t *testing.T) {
	asg := mustAssigner(t, 4*time.Second, 4*time.Second)
	pa := NewPaneAggregator(asg)
	e := ev(tuple.Purchases, 1, 7, 10, time.Second)
	e.Weight = 500
	pa.Add(e)
	pa.Add(ev(tuple.Purchases, 2, 7, 5, 2*time.Second))
	res := pa.Fire(4 * time.Second)
	if len(res) != 1 {
		t.Fatalf("results: %+v", res)
	}
	if res[0].Agg.Count != 2 || res[0].Agg.Weight != 501 || res[0].Agg.Sum != 15 {
		t.Fatalf("agg accounting wrong: %+v", res[0].Agg)
	}
}

// genEvents builds a deterministic random workload for equivalence tests.
func genEvents(seed uint64, n int, keys int, span time.Duration) []*tuple.Event {
	r := sim.NewRNG(seed, "window-test")
	events := make([]*tuple.Event, n)
	for i := range events {
		events[i] = ev(tuple.Purchases,
			int64(r.Intn(1000)), int64(r.Intn(keys)), int64(r.Intn(100)),
			time.Duration(r.Float64()*float64(span)))
	}
	return events
}

// refAggregator is a brute-force per-(key, window) reference for
// PaneAggregator: every event is folded, field by field, into each window
// Assigner.Assign gives it, and a fire collects and sorts the ripe cells.
// It shares no state, fold or ordering code with the pane implementation.
type refAggregator struct {
	asg          Assigner
	cells        map[[2]int64]Agg // (key, window end)
	firedThrough time.Duration
	lateDropped  int64
}

func (r *refAggregator) AddAt(e *tuple.Event, at time.Duration) int64 {
	var live int64
	for _, w := range r.asg.Assign(at) {
		if w.End <= r.firedThrough {
			r.lateDropped++
			continue
		}
		live++
		k := [2]int64{e.GemPackID, int64(w.End)}
		c := r.cells[k]
		c.Sum += e.Price
		c.Count++
		c.Weight += e.Weight
		c.Prov.MaxEventTime = max(c.Prov.MaxEventTime, e.EventTime)
		c.Prov.MaxProcTime = max(c.Prov.MaxProcTime, e.IngestTime)
		r.cells[k] = c
	}
	return live
}

func (r *refAggregator) Fire(watermark time.Duration) []Result {
	r.firedThrough = max(r.firedThrough, watermark)
	var out []Result
	for k, c := range r.cells {
		if end := time.Duration(k[1]); end <= watermark {
			out = append(out, Result{Key: k[0], Window: ID{End: end}, Agg: c})
			delete(r.cells, k)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Window.End != out[j].Window.End {
			return out[i].Window.End < out[j].Window.End
		}
		return out[i].Key < out[j].Key
	})
	return out
}

// TestPaneAggregatorEquivalenceProperty drives PaneAggregator and the
// brute-force per-window reference with the same random operations —
// in-order, disordered and late events, arrival-time adds, row and batch
// adds, stepped, stalled, backward and jumping watermarks, size/slide
// ratios 1-4, and a Reset aggregator — and requires identical fired
// results (sums, counts, weights, provenance, order), LateDropped and
// per-event live-window counts throughout: pane sharing is
// semantics-preserving (Experiment 3's Inverse Reduce fix).
func TestPaneAggregatorEquivalenceProperty(t *testing.T) {
	for c := 0; c < 400; c++ {
		r := sim.NewRNG(uint64(c), "pane-ref")
		slide := time.Duration(r.Intn(4)+1) * time.Second
		asg := mustAssigner(t, slide*time.Duration(r.Intn(4)+1), slide)
		got := NewPaneAggregator(asg)
		if c%2 == 1 {
			// A reused aggregator (driver.Probe) must behave like a new one.
			other := mustAssigner(t, 2*time.Second, time.Second)
			got.Reset(other)
			got.Add(ev(tuple.Purchases, 1, 1, -1, 3*time.Second))
			got.Add(ev(tuple.Purchases, 1, 2, -1, 9*time.Second))
			got.Fire(5 * time.Second)
			got.Add(ev(tuple.Purchases, 1, 1, -1, time.Second))
			got.Reset(asg)
		}
		ref := &refAggregator{asg: asg, cells: map[[2]int64]Agg{}}
		var now, wm time.Duration
		batch := tuple.NewBatch(8)
		event := func() *tuple.Event {
			now += time.Duration(r.Intn(400)) * time.Millisecond
			at := now
			if r.Intn(4) == 0 {
				// Disordered, often behind the watermark.
				at -= time.Duration(r.Intn(int(3*asg.Size/time.Millisecond))) * time.Millisecond
				at = max(at, 0)
			}
			e := ev(tuple.Purchases, int64(r.Intn(5)), int64(r.Intn(5)), int64(r.Intn(1000))-100, at)
			e.Weight = int64(r.Intn(200)) + 1
			e.IngestTime = now + time.Duration(r.Intn(50))*time.Millisecond
			return e
		}
		for op := 0; op < 300; op++ {
			where := fmt.Sprintf("case %d (size %v, slide %v) op %d", c, asg.Size, asg.Slide, op)
			switch x := r.Intn(12); {
			case x < 7:
				e := event()
				arrival := e.EventTime
				if r.Intn(5) == 0 {
					arrival = now
				}
				if g, w := got.AddAt(e, arrival), ref.AddAt(e, arrival); g != w {
					t.Fatalf("%s: event joined %d windows, reference %d", where, g, w)
				}
			case x < 9:
				// A pulled batch: rows at their own event time (Flink,
				// ideal) or all at the shared arrival time (Spark).
				batch.Reset()
				for n := r.Intn(5) + 1; n > 0; n-- {
					batch.Append(*event())
				}
				atArrival := r.Intn(2) == 0
				if atArrival {
					got.AddBatchAt(batch, now)
				} else {
					got.AddBatch(batch)
				}
				for i := 0; i < batch.Len(); i++ {
					e := batch.Row(i)
					if atArrival {
						ref.AddAt(&e, now)
					} else {
						ref.AddAt(&e, e.EventTime)
					}
				}
			default:
				switch r.Intn(5) {
				case 0:
					wm -= time.Duration(r.Intn(5)) * time.Second // backwards: a no-op
				case 1:
					wm = now + time.Duration(r.Intn(4))*asg.Size // jump past everything
				case 2:
					// Stalled: the same watermark again.
				default:
					wm = now - time.Duration(r.Intn(int(asg.Size/time.Millisecond)))*time.Millisecond
				}
				fired, want := got.Fire(wm), ref.Fire(wm)
				if !slices.Equal(fired, want) {
					t.Fatalf("%s: fired at wm %v\n got %+v\nwant %+v", where, wm, fired, want)
				}
			}
			if g, w := got.LateDropped(), ref.lateDropped; g != w {
				t.Fatalf("%s: %d contributions dropped late, reference %d", where, g, w)
			}
		}
	}
}

func TestPaneAggregatorIncrementalFiring(t *testing.T) {
	// Firing with advancing watermarks must match a single big fire.
	asg := mustAssigner(t, 8*time.Second, 4*time.Second)
	events := genEvents(99, 500, 8, 40*time.Second)

	single := NewPaneAggregator(asg)
	stepped := NewPaneAggregator(asg)
	for _, e := range events {
		single.Add(e)
		stepped.Add(e)
	}
	var all []Result
	for wm := 4 * time.Second; wm <= 48*time.Second; wm += 4 * time.Second {
		all = append(all, stepped.Fire(wm)...)
	}
	want := single.Fire(48 * time.Second)
	if len(all) != len(want) {
		t.Fatalf("stepped firing produced %d results, single produced %d", len(all), len(want))
	}
	for i := range all {
		if all[i].Key != want[i].Key || all[i].Window != want[i].Window || all[i].Agg.Sum != want[i].Agg.Sum {
			t.Fatalf("mismatch at %d: %+v vs %+v", i, all[i], want[i])
		}
	}
}

func TestPaneAggregatorRetiresState(t *testing.T) {
	asg := mustAssigner(t, 8*time.Second, 4*time.Second)
	pa := NewPaneAggregator(asg)
	for _, e := range genEvents(7, 200, 4, 20*time.Second) {
		pa.Add(e)
	}
	pa.Fire(100 * time.Second)
	if pa.LiveEntries() != 0 {
		t.Fatalf("all panes should be retired after a late watermark, %d live", pa.LiveEntries())
	}
	if pa.StateBytes() != 0 {
		t.Fatalf("state bytes should drop to 0, got %d", pa.StateBytes())
	}
}

func TestStateBytesGrowth(t *testing.T) {
	asg := mustAssigner(t, 8*time.Second, 4*time.Second)
	pa := NewPaneAggregator(asg)
	if pa.StateBytes() != 0 {
		t.Fatal("fresh aggregator should hold no state")
	}
	pa.Add(ev(tuple.Purchases, 1, 7, 1, time.Second))
	if pa.StateBytes() <= 0 {
		t.Fatal("state bytes must grow after Add")
	}
}

// BenchmarkWindowAggregate measures the aggregation hot path: Add into
// the (8s,4s) sliding windows' panes with periodic firing, the exact
// shape of the Flink model's per-tick work.
func BenchmarkWindowAggregate(b *testing.B) {
	asg, err := NewAssigner(8*time.Second, 4*time.Second)
	if err != nil {
		b.Fatal(err)
	}
	pa := NewPaneAggregator(asg)
	const keys = 100
	e := tuple.Event{Stream: tuple.Purchases, Weight: 20, Price: 7}
	step := func(i int) {
		e.GemPackID = int64(i % keys)
		e.EventTime = time.Duration(i) * 100 * time.Microsecond
		e.IngestTime = e.EventTime + time.Millisecond
		pa.Add(&e)
		// Fire every ~40k events (one slide's worth at this event rate).
		if i%40_000 == 39_999 {
			pa.Fire(e.EventTime - 8*time.Second)
		}
	}
	// Warm through several complete fire/retire cycles so state-table
	// growth is not charged to the timed iterations (keeps the
	// CI smoke, scripts/bench-smoke.sh, at 0 allocs/op); the timed loop continues
	// the same stream.
	const warm = 200_000
	for i := 0; i < warm; i++ {
		step(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step(warm + i)
	}
}

// BenchmarkWindowBufferedAdd measures the buffered (join-side) path with
// slab recycling: every fired window's slab is returned for reuse.
func BenchmarkWindowBufferedAdd(b *testing.B) {
	asg, err := NewAssigner(8*time.Second, 4*time.Second)
	if err != nil {
		b.Fatal(err)
	}
	bw := NewBufferedWindows(asg)
	e := tuple.Event{Stream: tuple.Purchases, Weight: 20, Price: 7}
	step := func(i int) {
		e.GemPackID = int64(i % 100)
		e.EventTime = time.Duration(i) * 100 * time.Microsecond
		bw.Add(&e)
		if i%40_000 == 39_999 {
			for _, fw := range bw.Fire(e.EventTime - 8*time.Second) {
				bw.Recycle(fw)
			}
		}
	}
	// Warm through full fire/recycle cycles so slab growth is amortised
	// out of the timed loop, which continues the same stream.
	const warm = 200_000
	for i := 0; i < warm; i++ {
		step(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step(warm + i)
	}
}

// BenchmarkWindowKeyedFire measures the full keyed window lifecycle on
// the flat-table pane state — Add across 100 keys, then periodic Fire
// assembling every window from its panes into the reused result slab —
// the per-fire shape of every engine model's aggregation.  Pinned at
// 0 allocs/op by scripts/bench-smoke.sh: the fire path must not regress
// to per-fire maps or fresh result slices.
func BenchmarkWindowKeyedFire(b *testing.B) {
	asg, err := NewAssigner(8*time.Second, 4*time.Second)
	if err != nil {
		b.Fatal(err)
	}
	pa := NewPaneAggregator(asg)
	const keys = 100
	e := tuple.Event{Stream: tuple.Purchases, Weight: 20, Price: 7}
	var fired int64
	step := func(i int) {
		e.GemPackID = int64(i % keys)
		e.EventTime = time.Duration(i) * 100 * time.Microsecond
		e.IngestTime = e.EventTime + time.Millisecond
		pa.Add(&e)
		// Fire every ~40k events (one slide's worth at this event rate).
		if i%40_000 == 39_999 {
			fired += int64(len(pa.Fire(e.EventTime - 8*time.Second)))
		}
	}
	// Warm through several complete fire/retire cycles so table and slab
	// growth is amortised out of the timed loop.
	const warm = 200_000
	for i := 0; i < warm; i++ {
		step(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step(warm + i)
	}
	if fired == 0 {
		b.Fatal("no windows fired")
	}
}
