package window

import (
	"testing"
	"testing/quick"
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

func TestIncrementalAggregatorPaperFigure1(t *testing.T) {
	// Figure 1: a 10-minute window receives keyed events; key=US gets
	// prices 12, 20, 10 at times 580, 590, 600 and the SUM output is 42
	// with event-time 600.  We reproduce with a 600s tumbling window.
	asg := mustAssigner(t, 600*time.Second, 600*time.Second)
	ia := NewIncrementalAggregator(asg)
	const us, ger, jpn = 1, 2, 3
	ia.Add(ev(tuple.Purchases, 1, us, 12, 580*time.Second))
	ia.Add(ev(tuple.Purchases, 2, us, 20, 590*time.Second))
	ia.Add(ev(tuple.Purchases, 3, us, 10, 599*time.Second))
	ia.Add(ev(tuple.Purchases, 4, ger, 43, 580*time.Second))
	ia.Add(ev(tuple.Purchases, 5, ger, 20, 590*time.Second))
	ia.Add(ev(tuple.Purchases, 6, ger, 20, 595*time.Second))
	ia.Add(ev(tuple.Purchases, 7, jpn, 33, 580*time.Second))
	ia.Add(ev(tuple.Purchases, 8, jpn, 20, 590*time.Second))
	ia.Add(ev(tuple.Purchases, 9, jpn, 77, 599*time.Second))

	res := ia.Fire(600 * time.Second)
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

func TestIncrementalAggregatorSlidingOverlap(t *testing.T) {
	// (8s,4s): an event at t=5s contributes to windows ending at 8s and
	// 12s; both fire with the same sum.
	asg := mustAssigner(t, 8*time.Second, 4*time.Second)
	ia := NewIncrementalAggregator(asg)
	ia.Add(ev(tuple.Purchases, 1, 7, 100, 5*time.Second))
	res := ia.Fire(12 * time.Second)
	if len(res) != 2 {
		t.Fatalf("expected the event in 2 windows, got %d", len(res))
	}
	for _, r := range res {
		if r.Agg.Sum != 100 || r.Key != 7 {
			t.Fatalf("bad window result: %+v", r)
		}
	}
	if ia.LiveEntries() != 0 || ia.LiveWindows() != 0 {
		t.Fatal("fired state must be released")
	}
}

func TestIncrementalAggregatorFireOnlyRipeWindows(t *testing.T) {
	asg := mustAssigner(t, 8*time.Second, 4*time.Second)
	ia := NewIncrementalAggregator(asg)
	ia.Add(ev(tuple.Purchases, 1, 7, 1, 5*time.Second)) // windows 8s, 12s
	res := ia.Fire(8 * time.Second)
	if len(res) != 1 || res[0].Window.End != 8*time.Second {
		t.Fatalf("only the 8s window should fire: %+v", res)
	}
	if ia.Fire(8*time.Second) != nil {
		t.Fatal("re-firing the same watermark must yield nothing")
	}
	res = ia.Fire(12 * time.Second)
	if len(res) != 1 || res[0].Window.End != 12*time.Second {
		t.Fatalf("the 12s window should fire next: %+v", res)
	}
}

func TestAggregatorWeightsAndCounts(t *testing.T) {
	asg := mustAssigner(t, 4*time.Second, 4*time.Second)
	ia := NewIncrementalAggregator(asg)
	e := ev(tuple.Purchases, 1, 7, 10, time.Second)
	e.Weight = 500
	ia.Add(e)
	ia.Add(ev(tuple.Purchases, 2, 7, 5, 2*time.Second))
	res := ia.Fire(4 * time.Second)
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

func TestPaneAggregatorEquivalenceProperty(t *testing.T) {
	// The inverse-reduce/pane strategy must produce byte-identical
	// results to the per-window incremental strategy (Experiment 3's
	// claim that the Inverse Reduce Function fix is semantics-preserving).
	f := func(seed uint16, sizeMul, slideRaw uint8) bool {
		slide := time.Duration(int(slideRaw%4)+1) * time.Second
		size := slide * time.Duration(int(sizeMul%4)+1)
		asg, err := NewAssigner(size, slide)
		if err != nil {
			return false
		}
		events := genEvents(uint64(seed), 300, 5, 30*time.Second)
		ia := NewIncrementalAggregator(asg)
		pa := NewPaneAggregator(asg)
		for _, e := range events {
			ia.Add(e)
			pa.Add(e)
		}
		wm := 40 * time.Second
		ra, rb := ia.Fire(wm), pa.Fire(wm)
		if len(ra) != len(rb) {
			return false
		}
		for i := range ra {
			if ra[i].Key != rb[i].Key || ra[i].Window != rb[i].Window {
				return false
			}
			if ra[i].Agg.Sum != rb[i].Agg.Sum || ra[i].Agg.Count != rb[i].Agg.Count {
				return false
			}
			if ra[i].Agg.Prov != rb[i].Agg.Prov {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
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
	ia := NewIncrementalAggregator(asg)
	if ia.StateBytes() != 0 {
		t.Fatal("fresh aggregator should hold no state")
	}
	ia.Add(ev(tuple.Purchases, 1, 7, 1, time.Second))
	if ia.StateBytes() <= 0 {
		t.Fatal("state bytes must grow after Add")
	}
}

// BenchmarkWindowAggregate measures the incremental-aggregation hot path:
// Add into the (8s,4s) sliding windows with periodic firing, the exact
// shape of the Flink model's per-tick work.
func BenchmarkWindowAggregate(b *testing.B) {
	asg, err := NewAssigner(8*time.Second, 4*time.Second)
	if err != nil {
		b.Fatal(err)
	}
	ia := NewIncrementalAggregator(asg)
	const keys = 100
	e := tuple.Event{Stream: tuple.Purchases, Weight: 20, Price: 7}
	step := func(i int) {
		e.GemPackID = int64(i % keys)
		e.EventTime = time.Duration(i) * 100 * time.Microsecond
		e.IngestTime = e.EventTime + time.Millisecond
		ia.Add(&e)
		// Fire every ~40k events (one slide's worth at this event rate).
		if i%40_000 == 39_999 {
			ia.Fire(e.EventTime - 8*time.Second)
		}
	}
	// Warm through several complete fire/retire cycles so state-map growth
	// is not charged to the timed iterations (keeps the -benchtime=1x CI
	// smoke at 0 allocs/op); the timed loop continues the same stream.
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

// BenchmarkWindowBufferedAdd measures the buffered (Storm-style) path with
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
// the flat-table state — Add across 100 keys, periodic Fire with the
// reused result slab, and the buffered Aggregate scratch — the exact
// per-fire shape of the Flink and Storm models.  Pinned at 0 allocs/op
// by scripts/bench-smoke.sh: the fire path must not regress to per-fire
// maps or fresh result slices.
func BenchmarkWindowKeyedFire(b *testing.B) {
	asg, err := NewAssigner(8*time.Second, 4*time.Second)
	if err != nil {
		b.Fatal(err)
	}
	ia := NewIncrementalAggregator(asg)
	bw := NewBufferedWindows(asg)
	const keys = 100
	e := tuple.Event{Stream: tuple.Purchases, Weight: 20, Price: 7}
	var fired int64
	step := func(i int) {
		e.GemPackID = int64(i % keys)
		e.EventTime = time.Duration(i) * 100 * time.Microsecond
		e.IngestTime = e.EventTime + time.Millisecond
		ia.Add(&e)
		bw.Add(&e)
		// Fire every ~40k events (one slide's worth at this event rate).
		if i%40_000 == 39_999 {
			wm := e.EventTime - 8*time.Second
			fired += int64(len(ia.Fire(wm)))
			for _, fw := range bw.Fire(wm) {
				fired += int64(len(bw.Aggregate(fw)))
				bw.Recycle(fw)
			}
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
