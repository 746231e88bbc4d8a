package window

import (
	"math"
	"slices"
	"time"

	"repro/internal/flat"
	"repro/internal/tuple"
)

// BufferedWindows retains every raw event of every live window and hands
// the window's content over only when it fires.  It is one side of the
// windowed join's state (TwoStreamBuffer): a join cannot pre-aggregate,
// so every engine keeps its join inputs raw.  Memory grows with rate ×
// window size, which StateBytes models.
//
// Each event is buffered once, by value, in the slab of its pane: the
// slide-wide tumbling bucket (Assigner.PaneOf) containing its assignment
// time.  A window is the concatenation of its Size/Slide consecutive
// panes, so firing copies no events: a FiredWindow lists its pane slabs.
// A pane is shared by Size/Slide windows and released together with the
// last of them (the one whose oldest pane it is).  Callers may pass
// pointers into reusable pull batches.
//
// The modelled footprint is still that of an operator that keeps one copy
// per (event, window): StateBytes counts every event once for each window
// it belongs to that has not fired.
type BufferedWindows struct {
	asg Assigner
	// panes maps pane end -> that pane's events.
	panes flat.Table[pane]
	bytes int64
	// free holds recycled pane slabs (see Recycle); new panes reuse them
	// instead of growing fresh ones, so the steady state stops allocating
	// once slabs have grown to a pane's typical fill.
	free [][]tuple.Event
	// firedThrough is the firing cursor; late events' contributions to
	// already-fired windows are lost (allowed lateness zero).
	firedThrough time.Duration
	lateDropped  int64
	// fired and firedPanes are the per-fire scratch slabs (valid until
	// the next Fire); paneEnds and ends are windowEnds' scratch.
	fired      []FiredWindow
	firedPanes [][]tuple.Event
	paneEnds   []time.Duration
	ends       []time.Duration
}

// pane is one slide-wide bucket of buffered events and their total weight.
type pane struct {
	events []tuple.Event
	weight int64
}

// LateDropped returns the number of (event, window) contributions lost to
// late arrival.
func (bw *BufferedWindows) LateDropped() int64 { return bw.lateDropped }

// BufferedEventBytes is the modelled heap footprint of one buffered
// event in one window (object header, fields, slice slot); scaled by the
// event's Weight because one simulated tuple stands for Weight real
// events.  Storm's aggregation heap model charges the same per event.
const BufferedEventBytes = 120

// NewBufferedWindows builds empty buffered window state.
func NewBufferedWindows(asg Assigner) *BufferedWindows {
	return &BufferedWindows{asg: asg}
}

// Reset empties the buffer for reuse under a (possibly different)
// assigner.  Grown capacity is kept, including the recycled slabs on the
// free list (see driver.Probe).
func (bw *BufferedWindows) Reset(asg Assigner) {
	bw.asg = asg
	// Recycle the live slabs before dropping the table so the next run
	// reuses them instead of growing fresh ones.
	bw.panes.Range(func(_ flat.Key, p *pane) bool {
		bw.recycle(p.events)
		return true
	})
	bw.panes.Reset()
	bw.bytes = 0
	bw.firedThrough = 0
	bw.lateDropped = 0
}

// Add buffers the event in every window containing it and returns the
// bytes of additional state consumed.  The pointee is copied, not retained.
func (bw *BufferedWindows) Add(e *tuple.Event) int64 {
	return bw.AddAt(e, e.EventTime)
}

// AddAt buffers the event in the windows containing time at rather than
// the event's own time; see PaneAggregator.AddAt for when arrival-time
// assignment is the right semantics.
func (bw *BufferedWindows) AddAt(e *tuple.Event, at time.Duration) int64 {
	end := bw.asg.PaneOf(at).End
	live, late := bw.asg.paneWindows(end, bw.firedThrough)
	bw.lateDropped += late
	if live == 0 {
		return 0
	}
	p, fresh := bw.panes.Upsert(flat.K(int64(end)))
	if fresh {
		p.events = bw.takeSlab()
	}
	p.events = append(p.events, *e)
	p.weight += e.Weight
	grew := live * BufferedEventBytes * e.Weight
	bw.bytes += grew
	return grew
}

// takeSlab pops a recycled slab.  With none left it sizes a fresh slab
// like the fullest live pane, so a run's first panes do not each regrow
// from empty (nil when no pane holds events yet: append grows fresh).
func (bw *BufferedWindows) takeSlab() []tuple.Event {
	if n := len(bw.free); n > 0 {
		s := bw.free[n-1]
		bw.free[n-1] = nil
		bw.free = bw.free[:n-1]
		return s
	}
	fullest := 0
	bw.panes.Range(func(_ flat.Key, p *pane) bool {
		fullest = max(fullest, len(p.events))
		return true
	})
	if fullest == 0 {
		return nil
	}
	return make([]tuple.Event, 0, fullest)
}

// Recycle hands the slab of a fired window's oldest pane, released when
// the window fired, back for reuse by future panes.  Callers must be done
// reading the window: the next pane to buffer will overwrite the slab.
// Engines call this after evaluating a FiredWindow, in firing order.
func (bw *BufferedWindows) Recycle(fw FiredWindow) {
	if len(fw.Panes) > 0 {
		bw.recycle(fw.Panes[0])
	}
}

func (bw *BufferedWindows) recycle(events []tuple.Event) {
	if cap(events) > 0 {
		bw.free = append(bw.free, events[:0])
	}
}

// FiredWindow is a complete window's raw content: its Size/Slide
// consecutive pane slabs, oldest first, with nil for a pane that holds no
// events, and the total event weight across them.  The slabs are shared
// with the window's successors and must not be modified; Panes[0] was
// released with the window and is owned by the receiver until Recycled.
type FiredWindow struct {
	Window ID
	Panes  [][]tuple.Event
	Weight int64
}

// Fire removes and returns every window with End <= watermark that holds
// events, ascending.  The returned slice is a reused scratch slab, valid
// until the next Fire; the pane slabs inside stay valid until Recycled.
func (bw *BufferedWindows) Fire(watermark time.Duration) []FiredWindow {
	if watermark <= bw.firedThrough {
		return nil
	}
	ends := bw.windowEnds(bw.firedThrough, watermark)
	bw.firedThrough = watermark
	if len(ends) == 0 {
		return nil
	}
	k := bw.asg.WindowsPerEvent()
	bw.fired = bw.fired[:0]
	bw.firedPanes = slices.Grow(bw.firedPanes[:0], len(ends)*k)[:len(ends)*k]
	for i, end := range ends {
		fw := FiredWindow{Window: ID{End: end}, Panes: bw.firedPanes[i*k : (i+1)*k : (i+1)*k]}
		for j := range fw.Panes {
			pk := flat.K(int64(end - time.Duration(k-1-j)*bw.asg.Slide))
			p, ok := bw.panes.Get(pk)
			fw.Panes[j] = p.events
			fw.Weight += p.weight
			if j == 0 && ok {
				// The oldest pane's last window is this one.
				bw.panes.Delete(pk)
			}
		}
		bw.bytes -= BufferedEventBytes * fw.Weight
		bw.fired = append(bw.fired, fw)
	}
	return bw.fired
}

// windowEnds returns, ascending, the ends in (from, through] of the
// windows holding at least one live pane: each pane feeds the window
// ending at it and those of the next Size/Slide-1 slides.  The slice is
// the reused ends scratch.
func (bw *BufferedWindows) windowEnds(from, through time.Duration) []time.Duration {
	bw.paneEnds = bw.paneEnds[:0]
	bw.panes.Range(func(k flat.Key, _ *pane) bool {
		bw.paneEnds = append(bw.paneEnds, time.Duration(k.A))
		return true
	})
	slices.Sort(bw.paneEnds)
	bw.ends = bw.ends[:0]
	last := from
	for _, p := range bw.paneEnds {
		for end := p; end <= p+bw.asg.Size-bw.asg.Slide && end <= through; end += bw.asg.Slide {
			if end > last {
				bw.ends = append(bw.ends, end)
				last = end
			}
		}
	}
	return bw.ends
}

// StateBytes returns the modelled resident bytes of buffered events.
func (bw *BufferedWindows) StateBytes() int64 { return bw.bytes }

// LiveWindows returns the number of unfired windows holding events.
func (bw *BufferedWindows) LiveWindows() int {
	return len(bw.windowEnds(bw.firedThrough, math.MaxInt64))
}
