package window

import (
	"cmp"
	"slices"
	"time"

	"repro/internal/tuple"
)

// Agg is one (key, window) partial aggregate for the paper's windowed
// aggregation query: SELECT SUM(price) FROM PURCHASES GROUP BY gemPackID.
// It also carries the provenance needed by Definitions 3/4 and the count
// and weight used by the driver's accounting.
type Agg struct {
	Sum    int64
	Count  int64
	Weight int64
	Prov   tuple.Provenance
}

// add folds one event in.
func (g *Agg) add(e *tuple.Event) {
	g.addVals(e.Price, e.Weight, e.EventTime, e.IngestTime)
}

// addVals folds one event given by its aggregation-relevant fields — the
// column-streaming form of add: batch folds read only the price, weight,
// event-time and ingest-time columns.
func (g *Agg) addVals(price, weight int64, et, it time.Duration) {
	g.Sum += price
	g.Count++
	g.Weight += weight
	if et > g.Prov.MaxEventTime {
		g.Prov.MaxEventTime = et
	}
	if it > g.Prov.MaxProcTime {
		g.Prov.MaxProcTime = it
	}
}

// merge folds another partial aggregate in (pane -> window assembly).
func (g *Agg) merge(o Agg) {
	g.Sum += o.Sum
	g.Count += o.Count
	g.Weight += o.Weight
	g.Prov.Merge(o.Prov)
}

// Result is one fired (key, window) aggregate.
type Result struct {
	Key    int64
	Window ID
	Agg    Agg
}

// sortResults orders fired aggregates by (End, Key), the deterministic
// emission order every engine model shares.
func sortResults(out []Result) {
	slices.SortFunc(out, func(a, b Result) int {
		if c := cmp.Compare(a.Window.End, b.Window.End); c != 0 {
			return c
		}
		return cmp.Compare(a.Key, b.Key)
	})
}
