// Package window implements the windowing substrate shared by the engine
// models: sliding/tumbling window assignment over event time, pane-based
// aggregation (PaneAggregator, the one aggregation state every engine
// deploys) and the windowed join's buffered two-stream state
// (TwoStreamBuffer over BufferedWindows).
package window

import (
	"fmt"
	"time"
)

// ID identifies a window by its end time.  Windows are half-open intervals
// [End-Size, End) over event time, with ends aligned to multiples of the
// slide.  Using the end as identity makes trigger logic ("fire every window
// with End <= watermark") a simple ordered scan.
type ID struct {
	End time.Duration
}

// Assigner maps an event time to the set of sliding windows containing it.
type Assigner struct {
	Size  time.Duration
	Slide time.Duration
}

// NewAssigner validates and builds an assigner.  Size must be a positive
// multiple of Slide (the paper's configurations — (8s,4s), (60s,60s) — all
// are; non-multiple slides complicate pane sharing without adding anything
// to the reproduction).
func NewAssigner(size, slide time.Duration) (Assigner, error) {
	if size <= 0 || slide <= 0 {
		return Assigner{}, fmt.Errorf("window: size and slide must be positive, got (%v, %v)", size, slide)
	}
	if size%slide != 0 {
		return Assigner{}, fmt.Errorf("window: size %v must be a multiple of slide %v", size, slide)
	}
	return Assigner{Size: size, Slide: slide}, nil
}

// WindowsPerEvent returns how many windows each event belongs to
// (size/slide).
func (a Assigner) WindowsPerEvent() int { return int(a.Size / a.Slide) }

// Assign returns the IDs of every window containing event time t, in
// ascending End order.  An event at time t belongs to windows with
// End-Size <= t < End, i.e. Ends in (t, t+Size] aligned to Slide.
func (a Assigner) Assign(t time.Duration) []ID {
	out := make([]ID, 0, a.WindowsPerEvent())
	a.AssignTo(t, &out)
	return out
}

// AssignTo appends the window IDs for t to out (avoiding allocation on hot
// paths).
func (a Assigner) AssignTo(t time.Duration, out *[]ID) {
	first := a.firstEnd(t)
	for end := first; end <= t+a.Size; end += a.Slide {
		*out = append(*out, ID{End: end})
	}
}

// firstEnd returns the smallest aligned window end strictly greater than t.
func (a Assigner) firstEnd(t time.Duration) time.Duration {
	// floor(t/slide)*slide + slide handles t >= 0; events never have
	// negative event time (the generator starts at the epoch).
	return (t/a.Slide)*a.Slide + a.Slide
}

// PaneOf returns the ID of the pane (tumbling window of width Slide)
// containing t.  Panes are the unit of sharing for pane-based aggregation:
// each sliding window is the concatenation of Size/Slide consecutive panes.
func (a Assigner) PaneOf(t time.Duration) ID {
	return ID{End: a.firstEnd(t)}
}

// paneWindows splits the windows fed by the pane ending at end — those
// ending at end, end+Slide, ..., end+Size-Slide — into the live ones,
// ending after the firing cursor firedThrough, and the late ones, which
// have fired: an event assigned to the pane is lost to those (allowed
// lateness zero).
func (a Assigner) paneWindows(end, firedThrough time.Duration) (live, late int64) {
	live = int64(a.WindowsPerEvent())
	if firedThrough >= end {
		late = min(int64((firedThrough-end)/a.Slide)+1, live)
		live -= late
	}
	return live, late
}

// PanesOf returns the pane IDs making up window w, ascending.
func (a Assigner) PanesOf(w ID) []ID {
	n := a.WindowsPerEvent()
	out := make([]ID, 0, n)
	for i := n - 1; i >= 0; i-- {
		out = append(out, ID{End: w.End - time.Duration(i)*a.Slide})
	}
	return out
}

// Contains reports whether event time t falls inside window w.
func (a Assigner) Contains(w ID, t time.Duration) bool {
	return t >= w.End-a.Size && t < w.End
}
