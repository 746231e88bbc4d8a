package window

import (
	"time"

	"repro/internal/tuple"
)

// PaneAggregator computes sliding-window aggregates from shared panes
// (Li et al., "No pane, no gain", SIGMOD Record 2005): each event is
// folded into exactly one pane (a tumbling window of width Slide), and a
// sliding window's result is assembled by merging Size/Slide panes.
//
// It is the one aggregation state every engine model deploys.  The fold
// (Agg: sums and provenance maxima) is order-free, so it yields exactly
// the per-(key, window) partials of Flink's incremental operator, of
// Storm's buffered UDF windows evaluated at trigger time, and of Spark's
// inverse-reduce panes (Experiment 3's fix); what differs between those
// operators — fire cost, modelled heap, cache behaviour — lives in each
// engine model's constants and counters.  Its equivalence to a
// brute-force per-(key, window) reference is property-tested.
//
// Keys lie in [0, tuple.KeyDomain), so a pane holds its partials in a
// slice indexed by key, next to the list of keys it holds: folding a row
// is a slice update, and a row finds its pane through a cache of the
// pane span the previous row fell in (DESIGN-PERF §8.4).
type PaneAggregator struct {
	asg Assigner
	// panes are the live panes in creation order; free holds retired
	// ones, their partials zeroed, for reuse.
	panes []*aggPane
	free  []*aggPane
	// [lo, hi) is the span of the pane the last row fell in, cur that
	// pane (nil when every window it feeds has fired), and live and late
	// its unfired and fired window counts.  Fire and Reset invalidate
	// the cache by emptying the span.
	lo, hi     time.Duration
	cur        *aggPane
	live, late int64
	// firedThrough is the watermark cursor: every window with
	// End <= firedThrough has already fired.  Panes outlive the windows
	// they have fired in (a pane feeds size/slide windows), so firing
	// must be tracked separately from pane retirement.
	firedThrough time.Duration
	// maxEnd is the largest pane end ever created; windows beyond it
	// cannot have content, which bounds the fire scan.
	maxEnd time.Duration
	// lateDropped counts window contributions lost to lateness: one per
	// (event, already-fired window) pair (allowed lateness zero, the
	// engines' configuration in the paper).
	lateDropped int64
	// acc is the per-window assembly slab, indexed by key and all zero
	// between fires, and accKeys the keys one window's assembly holds;
	// out is Fire's reused result slab.
	acc     []Agg
	accKeys []int32
	out     []Result
}

// aggPane is one pane's per-key partials.
type aggPane struct {
	end  time.Duration
	aggs []Agg   // by key; zero for every key not in keys
	keys []int32 // keys holding a partial, in first-fold order
}

// at returns key's partial, entering key into the pane.  The caller
// folds an event into it, which is what marks it held (Count > 0).
func (p *aggPane) at(key int64) *Agg {
	if uint64(key) >= uint64(len(p.aggs)) {
		p.aggs = tuple.GrowToKey(p.aggs, key)
	}
	g := &p.aggs[key]
	if g.Count == 0 {
		p.keys = append(p.keys, int32(key))
	}
	return g
}

// clear zeroes the pane's partials for reuse.
func (p *aggPane) clear() {
	for _, k := range p.keys {
		p.aggs[k] = Agg{}
	}
	p.keys = p.keys[:0]
}

// LateDropped returns the number of (event, window) contributions lost to
// late arrival.  An event that misses every window it belongs to
// therefore counts size/slide times.
func (pa *PaneAggregator) LateDropped() int64 { return pa.lateDropped }

// NewPaneAggregator builds an empty pane-based aggregator.
func NewPaneAggregator(asg Assigner) *PaneAggregator {
	return &PaneAggregator{asg: asg}
}

// Reset empties the aggregator for reuse under a (possibly different)
// assigner, keeping grown slabs (see driver.Probe).
func (pa *PaneAggregator) Reset(asg Assigner) {
	pa.asg = asg
	pa.retire(pa.maxEnd)
	pa.lo, pa.hi, pa.cur = 0, 0, nil
	pa.firedThrough = 0
	pa.maxEnd = 0
	pa.lateDropped = 0
}

// Add folds one event into its single pane (O(1) regardless of the
// size/slide ratio — the whole point of pane sharing) and returns how
// many unfired windows it joined; contributions to fired windows are
// lost.  The pointee is copied into the partial, not retained.
func (pa *PaneAggregator) Add(e *tuple.Event) int64 {
	return pa.AddAt(e, e.EventTime)
}

// AddAt folds the event into the pane containing time at instead of the
// event's own time.  Micro-batch engines bucket events by *arrival*: a
// DStream window holds whatever reached the receiver during its span, so
// under backpressure old events slide into current windows instead of
// being dropped as late.  Provenance still records the event's true
// event-time, which is how those windows expose their stale content as
// event-time latency (Figure 7).
func (pa *PaneAggregator) AddAt(e *tuple.Event, at time.Duration) int64 {
	if p := pa.paneFor(at, 1); p != nil {
		p.at(e.Key()).add(e)
	}
	return pa.live
}

// AddBatch folds every event of the batch at its own event time, row
// order, streaming only the key, price, weight, event-time and
// ingest-time columns.  Equivalent to calling Add row by row.
func (pa *PaneAggregator) AddBatch(b *tuple.Batch) {
	c := b.Columns()
	for i, et := range c.EventTime {
		if p := pa.paneFor(et, 1); p != nil {
			p.at(c.GemPackID[i]).addVals(c.Price[i], c.Weight[i], et, c.IngestTime[i])
		}
	}
}

// AddBatchAt folds every event of the batch into the single pane
// containing the shared arrival time at — a micro-batch block write.  The
// pane lookup and lateness check hoist out of the loop entirely.
// Equivalent to calling AddAt row by row.
func (pa *PaneAggregator) AddBatchAt(b *tuple.Batch, at time.Duration) {
	n := b.Len()
	if n == 0 {
		return
	}
	p := pa.paneFor(at, int64(n))
	if p == nil {
		return
	}
	c := b.Columns()
	for i := 0; i < n; i++ {
		p.at(c.GemPackID[i]).addVals(c.Price[i], c.Weight[i], c.EventTime[i], c.IngestTime[i])
	}
}

// paneFor returns the pane containing time t, creating it, or nil when
// every window the pane feeds has fired; the fired windows count as lost
// for each of n events.  A t in the cached span skips the lookup.
func (pa *PaneAggregator) paneFor(t time.Duration, n int64) *aggPane {
	if t < pa.lo || t >= pa.hi {
		pa.locate(t)
	}
	pa.lateDropped += pa.late * n
	return pa.cur
}

// locate fills the pane cache for the pane containing t.
func (pa *PaneAggregator) locate(t time.Duration) {
	end := pa.asg.PaneOf(t).End
	pa.lo, pa.hi = end-pa.asg.Slide, end
	pa.live, pa.late = pa.asg.paneWindows(end, pa.firedThrough)
	pa.cur = nil
	if pa.live == 0 {
		return
	}
	for _, p := range pa.panes {
		if p.end == end {
			pa.cur = p
			return
		}
	}
	if k := len(pa.free); k > 0 {
		pa.cur, pa.free = pa.free[k-1], pa.free[:k-1]
	} else {
		pa.cur = &aggPane{}
	}
	pa.cur.end = end
	pa.panes = append(pa.panes, pa.cur)
	pa.maxEnd = max(pa.maxEnd, end)
}

// Fire assembles and returns the aggregate of every window with End in
// (firedThrough, watermark], ordered by (End, Key), then retires panes
// that no live window can need (panes with end <= watermark - Size +
// Slide).  It returns at once when no window end lies in that range.  The
// returned slice is a reused scratch slab, valid until the next Fire:
// callers that hold results longer copy them out.
func (pa *PaneAggregator) Fire(watermark time.Duration) []Result {
	// Candidate window ends are the aligned points in
	// (firedThrough, watermark]; a window later than the last pane plus
	// the window span cannot have content.
	first := (pa.firedThrough/pa.asg.Slide)*pa.asg.Slide + pa.asg.Slide
	if watermark < first {
		return nil
	}
	limit := min(watermark, pa.maxEnd+pa.asg.Size-pa.asg.Slide)
	pa.out = pa.out[:0]
	for end := first; end <= limit; end += pa.asg.Slide {
		w := ID{End: end}
		// A pane with end p feeds windows with End in [p, p+Size-Slide];
		// the window's panes are those with end in (End-Size, End].
		for _, p := range pa.panes {
			if p.end <= w.End-pa.asg.Size || p.end > w.End {
				continue
			}
			if len(pa.acc) < len(p.aggs) {
				pa.acc = tuple.GrowToKey(pa.acc, int64(len(p.aggs)-1))
			}
			for _, k := range p.keys {
				acc := &pa.acc[k]
				if acc.Count == 0 {
					pa.accKeys = append(pa.accKeys, k)
				}
				acc.merge(p.aggs[k])
			}
		}
		for _, k := range pa.accKeys {
			pa.out = append(pa.out, Result{Key: int64(k), Window: w, Agg: pa.acc[k]})
			pa.acc[k] = Agg{}
		}
		pa.accKeys = pa.accKeys[:0]
	}
	pa.firedThrough = watermark
	pa.lo, pa.hi, pa.cur = 0, 0, nil

	// Retire panes that have left every window still to fire.  A pane
	// with end p contributes to windows with End in [p, p+Size-Slide];
	// once watermark >= p+Size-Slide it can never be needed again.
	pa.retire(watermark - pa.asg.Size + pa.asg.Slide)

	sortResults(pa.out)
	return pa.out
}

// retire moves every pane with end <= horizon to the free list.
func (pa *PaneAggregator) retire(horizon time.Duration) {
	live := pa.panes[:0]
	for _, p := range pa.panes {
		if p.end <= horizon {
			p.clear()
			pa.free = append(pa.free, p)
		} else {
			live = append(live, p)
		}
	}
	clear(pa.panes[len(live):])
	pa.panes = live
}

// LiveEntries returns the number of (key, pane) partials held.
func (pa *PaneAggregator) LiveEntries() int {
	n := 0
	for _, p := range pa.panes {
		n += len(p.keys)
	}
	return n
}

// StateBytes estimates the resident state a keyed engine operator holds:
// one hash-table entry per (key, pane) partial.
func (pa *PaneAggregator) StateBytes() int64 {
	const bytesPerEntry = 96 // Agg + table overhead, rounded up
	return int64(pa.LiveEntries()) * bytesPerEntry
}
