// Package oracle computes ground-truth results for the benchmark queries
// from a complete event log, independent of any engine model.  Integration
// tests use it to verify that the engines' outputs are *correct*, not just
// fast: the simulated systems really aggregate and join the generated
// tuples, and their sums must match the oracle's for every window they
// emitted.
//
// The oracle uses textbook (non-incremental) evaluation so it shares no
// code path with the engines' pane aggregation or buffered join state.
package oracle

import (
	"sort"
	"time"

	"repro/internal/tuple"
	"repro/internal/workload"
)

// AggResult is the expected SUM(price) for one (key, window).
type AggResult struct {
	Key       int64
	WindowEnd time.Duration
	Sum       int64
	Count     int64
	// MaxEventTime is the Definition 3 event-time of the output.
	MaxEventTime time.Duration
}

// Aggregate computes every (key, window) SUM over the full event log for
// the query's window geometry, by brute force: for each event, for each
// window containing it, accumulate.  Results are sorted by (window, key).
func Aggregate(q workload.Query, events []tuple.Event) []AggResult {
	asg := q.Assigner()
	type kw struct {
		key int64
		end time.Duration
	}
	acc := map[kw]*AggResult{}
	for i := range events {
		e := &events[i]
		if e.Stream != tuple.Purchases {
			continue
		}
		for _, w := range asg.Assign(e.EventTime) {
			k := kw{key: e.Key(), end: w.End}
			r, ok := acc[k]
			if !ok {
				r = &AggResult{Key: e.Key(), WindowEnd: w.End}
				acc[k] = r
			}
			r.Sum += e.Price
			r.Count++
			if e.EventTime > r.MaxEventTime {
				r.MaxEventTime = e.EventTime
			}
		}
	}
	out := make([]AggResult, 0, len(acc))
	for _, r := range acc {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].WindowEnd != out[j].WindowEnd {
			return out[i].WindowEnd < out[j].WindowEnd
		}
		return out[i].Key < out[j].Key
	})
	return out
}

// JoinResultCount returns, per window end, the number of matching
// (purchase, ad) pairs the join query should produce: for every window,
// the pairs agreeing on (userID, gemPackID), counted by brute force as
// the product of each join key's purchase and ad counts.
func JoinResultCount(q workload.Query, events []tuple.Event) map[time.Duration]int {
	asg := q.Assigner()
	type cell struct {
		end             time.Duration
		user, gemPackID int64
	}
	purchases, ads := map[cell]int{}, map[cell]int{}
	for i := range events {
		e := &events[i]
		for _, w := range asg.Assign(e.EventTime) {
			c := cell{end: w.End, user: e.UserID, gemPackID: e.GemPackID}
			if e.Stream == tuple.Ads {
				ads[c]++
			} else {
				purchases[c]++
			}
		}
	}
	// Every window holding events gets an entry, zero when nothing
	// matches.
	out := map[time.Duration]int{}
	for c, np := range purchases {
		out[c.end] += np * ads[c]
	}
	for c := range ads {
		if _, ok := out[c.end]; !ok {
			out[c.end] = 0
		}
	}
	return out
}

// CompareAggregates checks engine outputs against the oracle for every
// window the engine actually emitted (engines legitimately emit only the
// windows that closed during the run).  It returns the mismatching keys,
// or nil when everything agrees.
//
// onlyWindows restricts the check to window ends for which the engine
// emitted *complete* results (callers usually trim the first and last
// windows of a run).
type Mismatch struct {
	Key       int64
	WindowEnd time.Duration
	WantSum   int64
	GotSum    int64
}

// CompareAggregates implements the check described above.
func CompareAggregates(expected []AggResult, outputs []*tuple.Output, onlyWindows map[time.Duration]bool) []Mismatch {
	want := map[[2]int64]int64{}
	for _, r := range expected {
		want[[2]int64{r.Key, int64(r.WindowEnd)}] = r.Sum
	}
	var bad []Mismatch
	for _, o := range outputs {
		if onlyWindows != nil && !onlyWindows[o.WindowEnd] {
			continue
		}
		k := [2]int64{o.Key, int64(o.WindowEnd)}
		if w, ok := want[k]; !ok || w != o.Value {
			bad = append(bad, Mismatch{Key: o.Key, WindowEnd: o.WindowEnd, WantSum: w, GotSum: o.Value})
		}
	}
	return bad
}
