package window

import (
	"cmp"
	"slices"
	"time"

	"repro/internal/flat"
	"repro/internal/tuple"
)

// JoinResult is one output row of the windowed join query
// (SELECT p.userID, p.gemPackID, p.price FROM PURCHASES p, ADS a WHERE
// p.userID = a.userID AND p.gemPackID = a.gemPackID) for one window.  The
// event-time of a join output is the maximum event-time over the two
// matching tuples' windows (the paper's join refinement of Definition 3,
// illustrated in Figure 2: the output carries time=600 = max(500, 600)).
type JoinResult struct {
	UserID    int64
	GemPackID int64
	Price     int64
	Window    ID
	// Weight is the real-event weight of the joined pair.
	Weight int64
	Prov   tuple.Provenance
}

// Joiner carries the reusable build-side state of the hash equi-join: a
// flat table from join key to the head of a chain threaded through next.
// Reusing one Joiner across window fires removes the per-fire index map
// and per-key bucket slices the join used to allocate.
type Joiner struct {
	// head maps join key -> global position of the first matching ad
	// (positions count through the ad panes in order); next[i] is the
	// next ad with the same key, or -1, and weight[i] is ad i's weight.
	// Chains are threaded in ascending ad order so probe output order
	// matches the historical (slice-bucket) implementation exactly.
	head   flat.Table[int32]
	next   []int32
	weight []int64
	out    []JoinResult
}

// HashJoin performs an in-memory hash equi-join over one fired window's
// purchases and ads, each given as the window's pane slabs (a flat slice
// is a single pane).  The build side indexes the ads by join key.  Cost is
// O(|P| + |A| + |results|), which is what Flink's and Spark's window joins
// achieve; contrast NestedLoopJoinWindow below.  The returned slice is a
// reused scratch slab, valid until the next HashJoin call.
func (jn *Joiner) HashJoin(w ID, purchases, ads [][]tuple.Event) []JoinResult {
	na := paneLen(ads)
	if na == 0 || paneLen(purchases) == 0 {
		return nil
	}
	pairProv := joinProv(purchases, ads)

	// Build the ad index as chains of positions, so the build side
	// allocates nothing per event.  Iterating ads backwards makes each
	// chain run in ascending position order.
	jn.head.Reset()
	jn.next = slices.Grow(jn.next[:0], na)[:na]
	jn.weight = slices.Grow(jn.weight[:0], na)[:na]
	pos := na
	for pi := len(ads) - 1; pi >= 0; pi-- {
		pane := ads[pi]
		for j := len(pane) - 1; j >= 0; j-- {
			pos--
			h, fresh := jn.head.Upsert(flat.K(pane[j].JoinKey()))
			if fresh {
				jn.next[pos] = -1
			} else {
				jn.next[pos] = *h
			}
			*h = int32(pos)
			jn.weight[pos] = pane[j].Weight
		}
	}
	jn.out = jn.out[:0]
	for _, pane := range purchases {
		for i := range pane {
			p := &pane[i]
			ai, ok := jn.head.Get(flat.K(p.JoinKey()))
			if !ok {
				continue
			}
			for ; ai >= 0; ai = jn.next[ai] {
				jn.out = append(jn.out, joinPair(w, p, jn.weight[ai], pairProv))
			}
		}
	}
	sortJoinResults(jn.out)
	return jn.out
}

// NestedLoopJoinWindow is the naive O(|P|·|A|) join "we implemented a
// simple version of a windowed join in Storm" refers to, over the window's
// pane slabs.  Results are identical to HashJoin; only the cost model
// differs (the Storm engine model charges quadratic CPU for it).
// Comparisons is the number of pair comparisons performed, for CPU
// accounting.
func NestedLoopJoinWindow(w ID, purchases, ads [][]tuple.Event) (out []JoinResult, comparisons int64) {
	pairProv := joinProv(purchases, ads)
	for _, ppane := range purchases {
		for i := range ppane {
			p := &ppane[i]
			for _, apane := range ads {
				for j := range apane {
					a := &apane[j]
					comparisons++
					if p.UserID == a.UserID && p.GemPackID == a.GemPackID {
						out = append(out, joinPair(w, p, a.Weight, pairProv))
					}
				}
			}
		}
	}
	sortJoinResults(out)
	return out, comparisons
}

// joinProv is the provenance every output of a window's join carries.
// Definition 3 (join form): the tuples' event-time is set to the maximum
// event-time of their window, so each side's window maximum is taken and
// the two merged (Figure 2's max_time).
func joinProv(purchases, ads [][]tuple.Event) tuple.Provenance {
	var pProv, aProv tuple.Provenance
	for _, pane := range purchases {
		for i := range pane {
			pProv.Observe(&pane[i])
		}
	}
	for _, pane := range ads {
		for i := range pane {
			aProv.Observe(&pane[i])
		}
	}
	pProv.Merge(aProv)
	return pProv
}

// joinPair is the output row of purchase p matched with an ad of weight
// adWeight.  One simulated pair stands for min(weights) real pairs: the
// matched ad and purchase populations pair up 1:1.
func joinPair(w ID, p *tuple.Event, adWeight int64, prov tuple.Provenance) JoinResult {
	return JoinResult{
		UserID:    p.UserID,
		GemPackID: p.GemPackID,
		Price:     p.Price,
		Window:    w,
		Weight:    min(p.Weight, adWeight),
		Prov:      prov,
	}
}

// paneLen returns the total number of events across panes.
func paneLen(panes [][]tuple.Event) int {
	n := 0
	for _, pane := range panes {
		n += len(pane)
	}
	return n
}

// sortJoinResults orders a window's join output by (user, gem pack,
// price).  slices.SortFunc runs the same pattern-defeating quicksort as
// sort.Slice, so ties land where they always did, without sort.Slice's
// per-call allocations.
func sortJoinResults(out []JoinResult) {
	slices.SortFunc(out, func(a, b JoinResult) int {
		if c := cmp.Compare(a.UserID, b.UserID); c != 0 {
			return c
		}
		if c := cmp.Compare(a.GemPackID, b.GemPackID); c != 0 {
			return c
		}
		return cmp.Compare(a.Price, b.Price)
	})
}

// TwoStreamBuffer holds both join inputs buffered per window, the state any
// windowed join must keep regardless of engine, plus the reusable join
// scratch.
type TwoStreamBuffer struct {
	Purchases *BufferedWindows
	Ads       *BufferedWindows

	joiner Joiner
	// firedJoin is Fire's reused scratch of assembled windows.
	firedJoin []FiredJoinWindow
}

// NewTwoStreamBuffer builds buffered state for both streams over the same
// assigner.
func NewTwoStreamBuffer(asg Assigner) *TwoStreamBuffer {
	return &TwoStreamBuffer{
		Purchases: NewBufferedWindows(asg),
		Ads:       NewBufferedWindows(asg),
	}
}

// Reset empties both sides for reuse under a (possibly different)
// assigner, keeping grown capacity (see driver.Probe).
func (tb *TwoStreamBuffer) Reset(asg Assigner) {
	tb.Purchases.Reset(asg)
	tb.Ads.Reset(asg)
	tb.joiner.head.Reset()
}

// Add routes the event to its stream's buffer and returns state growth in
// bytes.  The pointee is copied, not retained.
func (tb *TwoStreamBuffer) Add(e *tuple.Event) int64 {
	return tb.AddAt(e, e.EventTime)
}

// AddAt routes the event using arrival-time window assignment; see
// PaneAggregator.AddAt.
func (tb *TwoStreamBuffer) AddAt(e *tuple.Event, at time.Duration) int64 {
	if e.Stream == tuple.Ads {
		return tb.Ads.AddAt(e, at)
	}
	return tb.Purchases.AddAt(e, at)
}

// AddBatch routes every row of the batch by its stream column in row
// order, each at its own event time, and returns total state growth in
// bytes.  Equivalent to calling Add row by row.  The buffered window slabs
// are row-form (the join probe consumes whole records), so rows
// materialize here at the columnar/row boundary.
func (tb *TwoStreamBuffer) AddBatch(b *tuple.Batch) int64 {
	c := b.Columns()
	var grew int64
	for i, n := 0, b.Len(); i < n; i++ {
		e := c.Row(i)
		if c.Stream[i] == tuple.Ads {
			grew += tb.Ads.AddAt(&e, e.EventTime)
		} else {
			grew += tb.Purchases.AddAt(&e, e.EventTime)
		}
	}
	return grew
}

// AddBatchAt is AddBatch with every row assigned by the shared arrival
// time at (micro-batch block semantics); see PaneAggregator.AddAt.
func (tb *TwoStreamBuffer) AddBatchAt(b *tuple.Batch, at time.Duration) int64 {
	c := b.Columns()
	var grew int64
	for i, n := 0, b.Len(); i < n; i++ {
		e := c.Row(i)
		if c.Stream[i] == tuple.Ads {
			grew += tb.Ads.AddAt(&e, at)
		} else {
			grew += tb.Purchases.AddAt(&e, at)
		}
	}
	return grew
}

// FiredJoinWindow pairs both sides of one fired window, each as its pane
// slabs (see FiredWindow), with their total event weight.
type FiredJoinWindow struct {
	Window    ID
	Purchases [][]tuple.Event
	Ads       [][]tuple.Event
	Weight    int64
}

// Fire returns both sides of every window with End <= watermark,
// ascending, merging the two sides' ascending fired lists.  The returned
// slice is a reused scratch slab, valid until the next Fire.
func (tb *TwoStreamBuffer) Fire(watermark time.Duration) []FiredJoinWindow {
	p := tb.Purchases.Fire(watermark)
	a := tb.Ads.Fire(watermark)
	if len(p) == 0 && len(a) == 0 {
		return nil
	}
	tb.firedJoin = tb.firedJoin[:0]
	for len(p) > 0 || len(a) > 0 {
		switch {
		case len(a) == 0 || len(p) > 0 && p[0].Window.End < a[0].Window.End:
			tb.firedJoin = append(tb.firedJoin, FiredJoinWindow{Window: p[0].Window, Purchases: p[0].Panes, Weight: p[0].Weight})
			p = p[1:]
		case len(p) == 0 || a[0].Window.End < p[0].Window.End:
			tb.firedJoin = append(tb.firedJoin, FiredJoinWindow{Window: a[0].Window, Ads: a[0].Panes, Weight: a[0].Weight})
			a = a[1:]
		default:
			tb.firedJoin = append(tb.firedJoin, FiredJoinWindow{Window: p[0].Window,
				Purchases: p[0].Panes, Ads: a[0].Panes, Weight: p[0].Weight + a[0].Weight})
			p, a = p[1:], a[1:]
		}
	}
	return tb.firedJoin
}

// HashJoin joins both sides of one fired window with the buffer's
// reusable Joiner.  The returned slice is valid until the next HashJoin.
func (tb *TwoStreamBuffer) HashJoin(fw FiredJoinWindow) []JoinResult {
	return tb.joiner.HashJoin(fw.Window, fw.Purchases, fw.Ads)
}

// LateDropped returns the (event, window) contributions both sides lost
// to late arrival.
func (tb *TwoStreamBuffer) LateDropped() int64 {
	return tb.Purchases.LateDropped() + tb.Ads.LateDropped()
}

// StateBytes returns total buffered bytes across both sides.
func (tb *TwoStreamBuffer) StateBytes() int64 {
	return tb.Purchases.StateBytes() + tb.Ads.StateBytes()
}

// Recycle hands the slabs of a fired join window's oldest panes back to
// their side's free lists.  Callers must be done reading both sides.
func (tb *TwoStreamBuffer) Recycle(fw FiredJoinWindow) {
	tb.Purchases.Recycle(FiredWindow{Panes: fw.Purchases})
	tb.Ads.Recycle(FiredWindow{Panes: fw.Ads})
}
