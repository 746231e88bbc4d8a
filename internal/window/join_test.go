package window

import (
	"slices"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/sim"
	"repro/internal/tuple"
)

// joinFlat hash-joins flat purchase and ad slices, each as a single pane,
// and returns a result slice the caller owns.
func joinFlat(w ID, purchases, ads []tuple.Event) []JoinResult {
	var jn Joiner
	return slices.Clone(jn.HashJoin(w, [][]tuple.Event{purchases}, [][]tuple.Event{ads}))
}

func TestHashJoinPaperFigure2(t *testing.T) {
	// Figure 2: ads window has max_time=500, purchases window has
	// max_time=600; every join output carries time=600, and emitted at
	// 630 its latency is 30.
	w := ID{End: 605 * time.Second}
	ads := []tuple.Event{
		*ev(tuple.Ads, 1, 2, 0, 500*time.Second),
	}
	purchases := []tuple.Event{
		*ev(tuple.Purchases, 1, 2, 10, 580*time.Second),
		*ev(tuple.Purchases, 1, 2, 20, 550*time.Second),
		*ev(tuple.Purchases, 1, 2, 30, 600*time.Second),
	}
	out := joinFlat(w, purchases, ads)
	if len(out) != 3 {
		t.Fatalf("expected 3 join results, got %d", len(out))
	}
	for _, r := range out {
		if r.Prov.MaxEventTime != 600*time.Second {
			t.Fatalf("join output event-time must be window max 600s, got %v", r.Prov.MaxEventTime)
		}
		if r.UserID != 1 || r.GemPackID != 2 {
			t.Fatalf("unexpected join keys: %+v", r)
		}
	}
	emit := 630 * time.Second
	if lat := emit - out[0].Prov.MaxEventTime; lat != 30*time.Second {
		t.Fatalf("Figure 2 latency should be 30s, got %v", lat)
	}
}

func TestHashJoinNoMatch(t *testing.T) {
	w := ID{End: 10 * time.Second}
	p := []tuple.Event{*ev(tuple.Purchases, 1, 2, 10, time.Second)}
	a := []tuple.Event{*ev(tuple.Ads, 3, 4, 0, time.Second)}
	if out := joinFlat(w, p, a); out != nil {
		t.Fatalf("disjoint keys must not join: %+v", out)
	}
	if out := joinFlat(w, nil, a); out != nil {
		t.Fatal("empty side must produce no results")
	}
}

func TestNestedLoopMatchesHashJoinProperty(t *testing.T) {
	// Storm's naive join must produce identical results to the hash
	// join; only its cost differs.  Both read the window as pane slabs:
	// any split of the sides into panes joins like the flat slices.
	f := func(seed uint16, np, na uint8) bool {
		r := sim.NewRNG(uint64(seed), "join")
		w := ID{End: 10 * time.Second}
		var purchases, ads []tuple.Event
		for i := 0; i < int(np%20)+1; i++ {
			purchases = append(purchases, *ev(tuple.Purchases,
				int64(r.Intn(5)), int64(r.Intn(5)), int64(r.Intn(50)),
				time.Duration(r.Intn(9000))*time.Millisecond))
			purchases[i].Weight = int64(r.Intn(3)) + 1
		}
		for i := 0; i < int(na%20)+1; i++ {
			ads = append(ads, *ev(tuple.Ads,
				int64(r.Intn(5)), int64(r.Intn(5)), 0,
				time.Duration(r.Intn(9000))*time.Millisecond))
			ads[i].Weight = int64(r.Intn(3)) + 1
		}
		pPanes, aPanes := splitPanes(r, purchases), splitPanes(r, ads)
		hj := joinFlat(w, purchases, ads)
		var jn Joiner
		hjPanes := jn.HashJoin(w, pPanes, aPanes)
		nl, comparisons := NestedLoopJoinWindow(w, pPanes, aPanes)
		if comparisons != int64(len(purchases))*int64(len(ads)) {
			return false
		}
		if len(hj) != len(nl) || len(hj) != len(hjPanes) {
			return false
		}
		for i := range hj {
			if hj[i] != nl[i] || hj[i] != hjPanes[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// splitPanes cuts events into 1-4 consecutive panes, some possibly empty.
func splitPanes(r *sim.RNG, events []tuple.Event) [][]tuple.Event {
	panes := make([][]tuple.Event, r.Intn(4)+1)
	rest := events
	for i := range panes[:len(panes)-1] {
		n := r.Intn(len(rest) + 1)
		panes[i], rest = rest[:n], rest[n:]
	}
	panes[len(panes)-1] = rest
	return panes
}

func TestJoinWeightIsMinOfPair(t *testing.T) {
	w := ID{End: 10 * time.Second}
	p := ev(tuple.Purchases, 1, 2, 10, time.Second)
	p.Weight = 100
	a := ev(tuple.Ads, 1, 2, 0, time.Second)
	a.Weight = 40
	out := joinFlat(w, []tuple.Event{*p}, []tuple.Event{*a})
	if len(out) != 1 || out[0].Weight != 40 {
		t.Fatalf("pair weight should be min(100,40)=40: %+v", out)
	}
}

func TestTwoStreamBufferRoutesAndFires(t *testing.T) {
	asg := mustAssigner(t, 8*time.Second, 4*time.Second)
	tb := NewTwoStreamBuffer(asg)
	tb.Add(ev(tuple.Purchases, 1, 2, 10, 2*time.Second))
	tb.Add(ev(tuple.Ads, 1, 2, 0, 3*time.Second))
	tb.Add(ev(tuple.Ads, 9, 9, 0, 6*time.Second)) // second window only reaches 12s

	if tb.StateBytes() <= 0 {
		t.Fatal("buffered state must be accounted")
	}
	// At wm=8s both the (−4,4] and (0,8] windows fire: the events at 2s
	// and 3s belong to both, the event at 6s only to (0,8].
	fired := tb.Fire(8 * time.Second)
	if len(fired) != 2 {
		t.Fatalf("two windows should fire at wm=8s, got %d", len(fired))
	}
	if fired[0].Window.End != 4*time.Second || fired[1].Window.End != 8*time.Second {
		t.Fatalf("fired window ends wrong: %v, %v", fired[0].Window, fired[1].Window)
	}
	jw := fired[1]
	if paneLen(jw.Purchases) != 1 || paneLen(jw.Ads) != 2 {
		t.Fatalf("window content wrong: %d purchases, %d ads", paneLen(jw.Purchases), paneLen(jw.Ads))
	}
	out := tb.HashJoin(jw)
	if len(out) != 1 {
		t.Fatalf("expected exactly one matching pair, got %d", len(out))
	}

	fired = tb.Fire(12 * time.Second)
	if len(fired) != 1 {
		t.Fatalf("second window should fire at wm=12s, got %d", len(fired))
	}
	if tb.StateBytes() != 0 {
		t.Fatalf("state should be empty after firing everything, %d bytes", tb.StateBytes())
	}
}

func TestBufferedWindowsFireOrderAndAggregate(t *testing.T) {
	asg := mustAssigner(t, 4*time.Second, 2*time.Second)
	bw := NewBufferedWindows(asg)
	bw.Add(ev(tuple.Purchases, 1, 5, 10, time.Second))
	bw.Add(ev(tuple.Purchases, 2, 5, 20, 3*time.Second))
	bw.Add(ev(tuple.Purchases, 3, 6, 7, 3*time.Second))
	fired := bw.Fire(100 * time.Second)
	for i := 1; i < len(fired); i++ {
		if fired[i-1].Window.End > fired[i].Window.End {
			t.Fatal("fired windows must be ascending by end")
		}
	}
	// The window (0,4] holds all three events.
	var w4 *FiredWindow
	for i := range fired {
		if fired[i].Window.End == 4*time.Second {
			w4 = &fired[i]
		}
	}
	if w4 == nil || paneLen(w4.Panes) != 3 {
		t.Fatalf("window ending at 4s should hold 3 events: %+v", fired)
	}
	if sums := keySums(*w4); len(sums) != 2 || sums[5] != 30 || sums[6] != 7 {
		t.Fatalf("aggregate wrong: %v", sums)
	}
}

// keySums returns a fired window's per-key price sums.
func keySums(fw FiredWindow) map[int64]int64 {
	sums := map[int64]int64{}
	for _, events := range fw.Panes {
		for _, e := range events {
			sums[e.Key()] += e.Price
		}
	}
	return sums
}

func TestBufferedStateAccountingProperty(t *testing.T) {
	// State bytes must return to zero after all windows fire, for any
	// workload.
	f := func(seed uint16) bool {
		asg, _ := NewAssigner(8*time.Second, 4*time.Second)
		bw := NewBufferedWindows(asg)
		for _, e := range genEvents(uint64(seed), 100, 5, 20*time.Second) {
			bw.Add(e)
		}
		bw.Fire(1000 * time.Second)
		return bw.StateBytes() == 0 && bw.LiveWindows() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestBufferedWindowsRecycleNoAliasing pins the slab-recycling ownership
// rule: recycling a fired window's slab must not corrupt results computed
// from it before the hand-back, and the recycled slab must actually be
// reused by a later window.
func TestBufferedWindowsRecycleNoAliasing(t *testing.T) {
	asg := mustAssigner(t, 4*time.Second, 4*time.Second)
	bw := NewBufferedWindows(asg)
	bw.Add(ev(tuple.Purchases, 1, 5, 10, time.Second))
	bw.Add(ev(tuple.Purchases, 2, 5, 20, 2*time.Second))
	fired := bw.Fire(4 * time.Second)
	if len(fired) != 1 {
		t.Fatalf("one window should fire: %d", len(fired))
	}
	sums := keySums(fired[0])
	slab := fired[0].Panes[0]
	bw.Recycle(fired[0])

	// The next window reuses the slab and overwrites its contents.
	bw.Add(ev(tuple.Purchases, 9, 9, 999, 5*time.Second))
	bw.Add(ev(tuple.Purchases, 9, 9, 999, 6*time.Second))
	fired2 := bw.Fire(8 * time.Second)
	if len(fired2) != 1 {
		t.Fatalf("second window should fire: %d", len(fired2))
	}
	if &fired2[0].Panes[0][0] != &slab[:1][0] {
		t.Fatal("recycled slab was not reused")
	}
	// Results computed before the recycle are value copies: untouched.
	if len(sums) != 1 || sums[5] != 30 {
		t.Fatalf("pre-recycle aggregate corrupted: %v", sums)
	}
	if sums2 := keySums(fired2[0]); len(sums2) != 1 || sums2[9] != 1998 {
		t.Fatalf("post-recycle aggregate wrong: %v", sums2)
	}
}

// BenchmarkWindowJoinFire measures one slide of the buffered join
// lifecycle on (8s, 4s) windows: a slide's worth of Adds to both streams,
// Fire, HashJoin over the window's shared panes, and Recycle — the
// per-fire shape of the Flink, Spark and ideal join models.  Pinned at
// 0 allocs/op by scripts/bench-smoke.sh: once the pane slabs and join
// scratch have grown, a fire must not allocate.
func BenchmarkWindowJoinFire(b *testing.B) {
	asg, err := NewAssigner(8*time.Second, 4*time.Second)
	if err != nil {
		b.Fatal(err)
	}
	tb := NewTwoStreamBuffer(asg)
	const perSlide = 4000 // one event per millisecond
	var e tuple.Event
	var pairs int64
	i := 0
	slide := func() {
		for end := i + perSlide; i < end; i++ {
			e = tuple.Event{Stream: tuple.StreamID(i % 2), UserID: int64(i/2) % 1000, GemPackID: 1,
				Price: 7, EventTime: time.Duration(i) * time.Millisecond, Weight: 20}
			tb.Add(&e)
		}
		for _, fw := range tb.Fire(e.EventTime) {
			pairs += int64(len(tb.HashJoin(fw)))
			tb.Recycle(fw)
		}
	}
	// Warm through several fires so slab and scratch growth is amortised
	// out of the timed loop, which continues the same stream.
	for w := 0; w < 5; w++ {
		slide()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		slide()
	}
	if pairs == 0 {
		b.Fatal("no pairs joined")
	}
}
