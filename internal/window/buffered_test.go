package window

import (
	"fmt"
	"slices"
	"sort"
	"testing"
	"time"

	"repro/internal/flat"
	"repro/internal/sim"
	"repro/internal/tuple"
)

// refBuffered is the per-window buffer BufferedWindows replaced: every
// event is copied into the slab of each window containing it.  It is the
// reference the pane-shared buffer is pinned against.
type refBuffered struct {
	asg          Assigner
	buf          flat.Table[[]tuple.Event]
	bytes        int64
	scratch      []ID
	firedThrough time.Duration
	lateDropped  int64
}

type refFired struct {
	Window ID
	Events []tuple.Event
}

func (bw *refBuffered) AddAt(e *tuple.Event, at time.Duration) int64 {
	bw.scratch = bw.scratch[:0]
	bw.asg.AssignTo(at, &bw.scratch)
	var grew int64
	for _, w := range bw.scratch {
		if w.End <= bw.firedThrough {
			bw.lateDropped++
			continue
		}
		s, _ := bw.buf.Upsert(flat.K(int64(w.End)))
		*s = append(*s, *e)
		grew += BufferedEventBytes * e.Weight
	}
	bw.bytes += grew
	return grew
}

func (bw *refBuffered) Fire(watermark time.Duration) []refFired {
	if watermark > bw.firedThrough {
		bw.firedThrough = watermark
	}
	var fired []refFired
	bw.buf.Range(func(k flat.Key, events *[]tuple.Event) bool {
		if end := time.Duration(k.A); end <= watermark {
			fired = append(fired, refFired{Window: ID{End: end}, Events: *events})
			for i := range *events {
				bw.bytes -= BufferedEventBytes * (*events)[i].Weight
			}
			bw.buf.Delete(k)
		}
		return true
	})
	sort.Slice(fired, func(i, j int) bool { return fired[i].Window.End < fired[j].Window.End })
	return fired
}

// byPrice returns the window's events ordered by Price, which the
// randomized test makes unique per event: a multiset in canonical order.
func byPrice(panes ...[]tuple.Event) []tuple.Event {
	var out []tuple.Event
	for _, p := range panes {
		out = append(out, p...)
	}
	slices.SortFunc(out, func(a, b tuple.Event) int { return int(a.Price - b.Price) })
	return out
}

// TestBufferedMatchesPerWindowReference drives the pane-shared buffer and
// the per-window reference with the same random operations — in-order,
// disordered and late events, arrival-time assignment, stalled, backward
// and jumping watermarks, size/slide ratios 1-4 — and requires identical
// fired window contents (as multisets), growth, StateBytes, LateDropped
// and live window counts throughout.  Every fired window is recycled, so
// slab reuse is exercised too.
func TestBufferedMatchesPerWindowReference(t *testing.T) {
	for c := 0; c < 400; c++ {
		r := sim.NewRNG(uint64(c), "buffered-ref")
		slide := time.Duration(r.Intn(3)+1) * time.Second
		asg := mustAssigner(t, slide*time.Duration(r.Intn(4)+1), slide)
		got := NewBufferedWindows(asg)
		if c%2 == 1 {
			// A reused buffer (driver.Probe) must behave like a new one.
			got.Add(ev(tuple.Purchases, 1, 1, -1, 3*time.Second))
			got.Fire(time.Second)
			got.Reset(asg)
		}
		ref := &refBuffered{asg: asg}
		var now, wm time.Duration
		price := int64(0)
		for op := 0; op < 300; op++ {
			where := fmt.Sprintf("case %d (size %v, slide %v) op %d", c, asg.Size, asg.Slide, op)
			switch x := r.Intn(10); {
			case x < 7:
				now += time.Duration(r.Intn(400)) * time.Millisecond
				at := now
				if r.Intn(4) == 0 {
					// Disordered, often behind the watermark.
					at -= time.Duration(r.Intn(int(3*asg.Size/time.Millisecond))) * time.Millisecond
					at = max(at, 0)
				}
				price++
				e := ev(tuple.Purchases, int64(r.Intn(5)), int64(r.Intn(5)), price, at)
				e.Weight = int64(r.Intn(200)) + 1
				arrival := at
				if r.Intn(5) == 0 {
					arrival = now
				}
				if g, w := got.AddAt(e, arrival), ref.AddAt(e, arrival); g != w {
					t.Fatalf("%s: growth %d, reference %d", where, g, w)
				}
			default:
				switch r.Intn(4) {
				case 0:
					wm -= time.Duration(r.Intn(5)) * time.Second // backwards: a no-op
				case 1:
					wm = now + time.Duration(r.Intn(4))*asg.Size // jump past everything
				default:
					wm = now - time.Duration(r.Intn(int(asg.Size/time.Millisecond)))*time.Millisecond
				}
				fired, want := got.Fire(wm), ref.Fire(wm)
				if len(fired) != len(want) {
					t.Fatalf("%s: fired %d windows at wm %v, reference %d", where, len(fired), wm, len(want))
				}
				for i, fw := range fired {
					if fw.Window != want[i].Window || len(fw.Panes) != asg.WindowsPerEvent() {
						t.Fatalf("%s: window %d is %v with %d panes, reference %v", where, i, fw.Window, len(fw.Panes), want[i].Window)
					}
					g, w := byPrice(fw.Panes...), byPrice(want[i].Events)
					if !slices.Equal(g, w) {
						t.Fatalf("%s: window %v holds %v, reference %v", where, fw.Window, g, w)
					}
					var weight int64
					for _, e := range w {
						weight += e.Weight
					}
					if fw.Weight != weight {
						t.Fatalf("%s: window %v weight %d, reference %d", where, fw.Window, fw.Weight, weight)
					}
					got.Recycle(fw)
				}
			}
			if got.StateBytes() != ref.bytes || got.LateDropped() != ref.lateDropped || got.LiveWindows() != ref.buf.Len() {
				t.Fatalf("%s: state %d B / %d late / %d live, reference %d B / %d late / %d live", where,
					got.StateBytes(), got.LateDropped(), got.LiveWindows(), ref.bytes, ref.lateDropped, ref.buf.Len())
			}
		}
	}
}

// TestBufferedEventStoredOnce pins the layout: with (8s, 4s) windows an
// event sits in one pane slab shared by both of its windows, and the pane
// is released with the second window only.
func TestBufferedEventStoredOnce(t *testing.T) {
	asg := mustAssigner(t, 8*time.Second, 4*time.Second)
	bw := NewBufferedWindows(asg)
	if grew := bw.Add(ev(tuple.Purchases, 1, 5, 10, 5*time.Second)); grew != 2*BufferedEventBytes {
		t.Fatalf("one event in two windows must model two copies, grew %d", grew)
	}
	first := bw.Fire(8 * time.Second)
	if len(first) != 1 || first[0].Window.End != 8*time.Second {
		t.Fatalf("window 8s should fire alone: %+v", first)
	}
	if first[0].Panes[0] != nil || len(first[0].Panes[1]) != 1 {
		t.Fatalf("window 8s = empty pane 4s + pane 8s: %+v", first[0].Panes)
	}
	shared := &first[0].Panes[1][0]
	bw.Recycle(first[0]) // its oldest pane is empty: nothing to recycle
	if bw.StateBytes() != BufferedEventBytes || bw.panes.Len() != 1 {
		t.Fatalf("pane 8s must stay live for window 12s: %d B, %d panes", bw.StateBytes(), bw.panes.Len())
	}
	second := bw.Fire(12 * time.Second)
	if len(second) != 1 || &second[0].Panes[0][0] != shared {
		t.Fatal("window 12s must read the same pane slab, not a copy")
	}
	if bw.StateBytes() != 0 || bw.panes.Len() != 0 {
		t.Fatalf("pane must be released with its last window: %d B, %d panes", bw.StateBytes(), bw.panes.Len())
	}
}

// TestBufferedFreshPaneSizedLikeFullest pins fresh-pane sizing: with the
// free list empty, a new pane's slab starts at the fullest live pane's
// length instead of growing from empty.
func TestBufferedFreshPaneSizedLikeFullest(t *testing.T) {
	asg := mustAssigner(t, 8*time.Second, 4*time.Second)
	bw := NewBufferedWindows(asg)
	for i := 0; i < 100; i++ {
		bw.Add(ev(tuple.Purchases, 1, 5, int64(i), time.Second))
	}
	bw.Add(ev(tuple.Purchases, 1, 5, 0, 5*time.Second))
	if p, _ := bw.panes.Get(flat.K(int64(8 * time.Second))); cap(p.events) < 100 {
		t.Fatalf("fresh pane slab has cap %d, want >= 100", cap(p.events))
	}
}
