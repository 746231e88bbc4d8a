package window

import (
	"time"

	"repro/internal/flat"
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
type PaneAggregator struct {
	asg Assigner
	// panes holds key × pane-end -> pane partial.
	panes flat.Table[Agg]
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
	// perKey is the per-window-assembly scratch table, reused across
	// fires instead of allocating a map per window; out is Fire's
	// reused result slab.
	perKey flat.Table[Agg]
	out    []Result
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
// assigner, keeping grown table capacity (see driver.Probe).
func (pa *PaneAggregator) Reset(asg Assigner) {
	pa.asg = asg
	pa.panes.Reset()
	pa.perKey.Reset()
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
	end := pa.asg.PaneOf(at).End
	live := pa.live(end, 1)
	if live > 0 {
		pa.pane(e.Key(), end).add(e)
	}
	return live
}

// AddBatch folds every event of the batch at its own event time, row
// order, streaming only the key, price, weight, event-time and
// ingest-time columns.  Equivalent to calling Add row by row.
func (pa *PaneAggregator) AddBatch(b *tuple.Batch) {
	c := b.Columns()
	for i, et := range c.EventTime {
		end := pa.asg.PaneOf(et).End
		if pa.live(end, 1) > 0 {
			pa.pane(c.GemPackID[i], end).addVals(c.Price[i], c.Weight[i], et, c.IngestTime[i])
		}
	}
}

// AddBatchAt folds every event of the batch into the single pane
// containing the shared arrival time at — a micro-batch block write.  The
// pane lookup and lateness check hoist out of the loop entirely.
// Equivalent to calling AddAt row by row.
func (pa *PaneAggregator) AddBatchAt(b *tuple.Batch, at time.Duration) {
	n := b.Len()
	end := pa.asg.PaneOf(at).End
	if n == 0 || pa.live(end, int64(n)) == 0 {
		return
	}
	c := b.Columns()
	for i := 0; i < n; i++ {
		pa.pane(c.GemPackID[i], end).addVals(c.Price[i], c.Weight[i], c.EventTime[i], c.IngestTime[i])
	}
}

// live returns how many of the windows fed by the pane ending at end have
// not fired, and counts the fired ones as lost for each of n events.
func (pa *PaneAggregator) live(end time.Duration, n int64) int64 {
	live, late := pa.asg.paneWindows(end, pa.firedThrough)
	pa.lateDropped += late * n
	return live
}

// pane returns the partial of key's pane ending at end, creating it.
func (pa *PaneAggregator) pane(key int64, end time.Duration) *Agg {
	g, fresh := pa.panes.Upsert(flat.K2(key, int64(end)))
	if fresh && end > pa.maxEnd {
		pa.maxEnd = end
	}
	return g
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
		pa.perKey.Reset()
		pa.panes.Range(func(kw flat.Key, g *Agg) bool {
			if pe := time.Duration(kw.B); pe > w.End-pa.asg.Size && pe <= w.End {
				acc, _ := pa.perKey.Upsert(flat.K(kw.A))
				acc.merge(*g)
			}
			return true
		})
		pa.perKey.Range(func(k flat.Key, g *Agg) bool {
			pa.out = append(pa.out, Result{Key: k.A, Window: w, Agg: *g})
			return true
		})
	}
	pa.firedThrough = watermark

	// Retire panes that have left every window still to fire.  A pane
	// with end p contributes to windows with End in [p, p+Size-Slide];
	// once watermark >= p+Size-Slide it can never be needed again.
	horizon := watermark - pa.asg.Size + pa.asg.Slide
	pa.panes.Range(func(kw flat.Key, _ *Agg) bool {
		if time.Duration(kw.B) <= horizon {
			pa.panes.Delete(kw)
		}
		return true
	})

	sortResults(pa.out)
	return pa.out
}

// LiveEntries returns the number of (key, pane) partials held.
func (pa *PaneAggregator) LiveEntries() int { return pa.panes.Len() }

// StateBytes estimates resident state: one Agg per (key, pane) entry.
func (pa *PaneAggregator) StateBytes() int64 {
	const bytesPerEntry = 96 // Agg + table overhead, rounded up
	return int64(pa.panes.Len()) * bytesPerEntry
}
