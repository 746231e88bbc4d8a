package oracle_test

import (
	"math"
	"testing"
	"time"

	"repro/internal/driver"
	"repro/internal/engine"
	"repro/internal/engine/flink"
	"repro/internal/engine/ideal"
	"repro/internal/engine/spark"
	"repro/internal/engine/storm"
	"repro/internal/fault"
	"repro/internal/generator"
	"repro/internal/metrics"
	"repro/internal/oracle"
	"repro/internal/tuple"
	"repro/internal/workload"
)

// TestAggregationMatchesOracle is the end-to-end correctness check: run
// the full benchmark pipeline (generator -> queues -> engine model ->
// sink), capture every generated event, and verify each engine's emitted
// window sums equal a brute-force recomputation.  Every engine folds into
// the same pane partials (window.PaneAggregator), so the oracle, not a
// second engine, is the independent check.  The event-time engines must
// match per (key, window) cell.  Spark windows by arrival time, so an
// event near a window boundary can land in the neighbouring window: each
// interior window's total SUM must match within 3%, the tolerance of the
// join oracle check.
//
// Each event-time engine also has a faulted row: a whole-cluster stall to
// 10% of capacity over [30 s, 35 s), inside the checked windows.  The
// stall must bite — the run's peak driver-queue depth must exceed the
// fault-free run's — and the backlog it leaves must still fold into the
// right sums.  Spark has no stall row.
//
// Flink and Storm also have a rescaled row: a 2→4 scale-out at 30 s,
// whose transition stops ingestion (savepoint, rebalance).  The rescale
// must bite — the run's minimum ingest rate over [30 s, 32 s] must fall
// below the fault-free run's — and the sums must still match.  Ideal
// rescales instantly, so it has no rescaled row.
func TestAggregationMatchesOracle(t *testing.T) {
	stall := &fault.Schedule{Events: []fault.Event{
		{Kind: fault.KindStall, At: 30 * time.Second, For: 5 * time.Second, Factor: 0.1},
	}}
	scaleOut := &fault.RescalePlan{Steps: []fault.RescaleStep{{At: 30 * time.Second, Workers: 4}}}
	for _, tc := range []struct {
		eng     engine.Engine
		exact   bool
		rescale bool
	}{
		{flink.New(flink.Options{}), true, true},
		{storm.New(storm.Options{}), true, true},
		{ideal.New(), true, false},
		{spark.New(spark.Options{}), false, false},
	} {
		t.Run(tc.eng.Name(), func(t *testing.T) {
			plain := runOracleCheck(t, tc.eng, nil, nil, tc.exact)
			if !tc.exact {
				return
			}
			t.Run("stall", func(t *testing.T) {
				stalled := runOracleCheck(t, tc.eng, stall, nil, true)
				if a, b := stalled.QueueDepthSeries.Max(), plain.QueueDepthSeries.Max(); a <= b {
					t.Fatalf("the stall did not bite: peak queue depth %v with it, %v without", a, b)
				}
			})
			if !tc.rescale {
				return
			}
			t.Run("rescale", func(t *testing.T) {
				rescaled := runOracleCheck(t, tc.eng, nil, scaleOut, true)
				a := minBetween(rescaled.ThroughputSeries, 30*time.Second, 32*time.Second)
				b := minBetween(plain.ThroughputSeries, 30*time.Second, 32*time.Second)
				t.Logf("minimum ingest rate over [30 s, 32 s]: %.0f ev/s rescaled, %.0f fault-free", a, b)
				if a >= b {
					t.Fatalf("the rescale did not bite: minimum ingest rate over [30 s, 32 s] %v with it, %v without", a, b)
				}
			})
		})
	}
}

// minBetween returns the minimum of s's points with from <= T <= to.
func minBetween(s *metrics.Series, from, to time.Duration) float64 {
	m := math.Inf(1)
	for _, p := range s.Points {
		if p.T >= from && p.T <= to && p.V < m {
			m = p.V
		}
	}
	return m
}

// runOracleCheck runs eng on the aggregation query under faults and a
// rescale plan (nil for none), checks its interior windows against the oracle — per (key,
// window) cell when exact, else each window's total SUM within 3% — and
// returns the run's Result.
func runOracleCheck(t *testing.T, eng engine.Engine, faults *fault.Schedule, plan *fault.RescalePlan, exact bool) *driver.Result {
	t.Helper()
	q := workload.Default(workload.Aggregation)

	var log []tuple.Event
	var outputs []*tuple.Output

	cfg := driver.Config{
		Seed:           11,
		Workers:        2,
		Rate:           generator.ConstantRate(0.2e6),
		Query:          q,
		RunFor:         80 * time.Second,
		EventsPerTuple: 200,
		Faults:         faults,
		Rescale:        plan,
		EventTap: func(e *tuple.Event) {
			log = append(log, *e)
		},
		OutputTap: func(o *tuple.Output) {
			c := *o
			outputs = append(outputs, &c)
		},
	}

	res, err := driver.Run(eng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed {
		t.Fatalf("run failed: %s", res.FailReason)
	}
	if len(outputs) == 0 || len(log) == 0 {
		t.Fatalf("no data captured: %d outputs, %d events", len(outputs), len(log))
	}

	expected := oracle.Aggregate(q, log)

	// Only check interior windows: ones that closed well before the run
	// ended and opened well after it started, so the engine saw all
	// their input and had time to emit them.
	interior := map[time.Duration]bool{}
	for _, o := range outputs {
		if o.WindowEnd > 20*time.Second && o.WindowEnd < 60*time.Second {
			interior[o.WindowEnd] = true
		}
	}
	if len(interior) < 5 {
		t.Fatalf("too few interior windows: %d", len(interior))
	}
	if !exact {
		want, got := map[time.Duration]int64{}, map[time.Duration]int64{}
		for _, r := range expected {
			want[r.WindowEnd] += r.Sum
		}
		for _, o := range outputs {
			got[o.WindowEnd] += o.Value
		}
		for end, w := range want {
			if end <= 20*time.Second || end >= 60*time.Second {
				continue
			}
			if g := got[end]; g < w*97/100 || g > w*103/100 {
				t.Fatalf("%s window %v: SUM %d, oracle expects %d (beyond 3%%)", eng.Name(), end, g, w)
			}
		}
		return res
	}
	if bad := oracle.CompareAggregates(expected, outputs, interior); bad != nil {
		t.Fatalf("%s output disagrees with oracle on %d (key, window) cells; first: %+v",
			eng.Name(), len(bad), bad[0])
	}

	// And the engine must have emitted *every* oracle cell for those
	// windows (no missing keys).
	emitted := map[[2]int64]bool{}
	for _, o := range outputs {
		emitted[[2]int64{o.Key, int64(o.WindowEnd)}] = true
	}
	for _, r := range expected {
		if !interior[r.WindowEnd] {
			continue
		}
		if !emitted[[2]int64{r.Key, int64(r.WindowEnd)}] {
			t.Fatalf("%s never emitted key %d window %v (oracle sum %d)",
				eng.Name(), r.Key, r.WindowEnd, r.Sum)
		}
	}
	return res
}

// TestJoinCountMatchesOracle verifies every engine's join pipeline
// produces the pairs a brute-force evaluation finds, per interior window.
// The event-time engines must match exactly.  Spark assigns events to
// windows by arrival time, so an event near a window boundary can land in
// the neighbouring window: its per-window pair counts must match within
// 3%, the tolerance of the repository benchmark's correctness check.
func TestJoinCountMatchesOracle(t *testing.T) {
	for _, tc := range []struct {
		eng   engine.Engine
		exact bool
	}{
		{flink.New(flink.Options{}), true},
		{storm.New(storm.Options{}), true}, // nested-loop join
		{ideal.New(), true},
		{spark.New(spark.Options{}), false},
	} {
		t.Run(tc.eng.Name(), func(t *testing.T) {
			q := workload.Default(workload.Join)
			var log []tuple.Event
			var outputs []*tuple.Output
			cfg := driver.Config{
				Seed:           13,
				Workers:        2,
				Rate:           generator.ConstantRate(0.2e6),
				Query:          q,
				RunFor:         80 * time.Second,
				EventsPerTuple: 200,
				EventTap:       func(e *tuple.Event) { log = append(log, *e) },
				OutputTap:      func(o *tuple.Output) { c := *o; outputs = append(outputs, &c) },
			}
			res, err := driver.Run(tc.eng, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.Failed {
				t.Fatalf("run failed: %s", res.FailReason)
			}
			want := oracle.JoinResultCount(q, log)
			got := map[time.Duration]int{}
			for _, o := range outputs {
				got[o.WindowEnd]++
			}
			checked := 0
			for end, n := range want {
				if end <= 20*time.Second || end >= 60*time.Second {
					continue
				}
				checked++
				if g := got[end]; tc.exact && g != n || g < n*97/100 || g > n*103/100 {
					t.Fatalf("window %v: engine emitted %d pairs, oracle expects %d", end, g, n)
				}
			}
			if checked < 5 {
				t.Fatalf("too few interior windows checked: %d", checked)
			}
		})
	}
}

// TestOracleUnits sanity-checks the oracle itself on a tiny hand-built log.
func TestOracleUnits(t *testing.T) {
	q := workload.Default(workload.Aggregation)
	log := []tuple.Event{
		{Stream: tuple.Purchases, GemPackID: 1, Price: 10, EventTime: 2 * time.Second, Weight: 1},
		{Stream: tuple.Purchases, GemPackID: 1, Price: 20, EventTime: 6 * time.Second, Weight: 1},
		{Stream: tuple.Ads, GemPackID: 1, EventTime: 3 * time.Second, Weight: 1},
	}
	res := oracle.Aggregate(q, log)
	// Event at 2s -> windows 4s, 8s; event at 6s -> windows 8s, 12s.
	bySig := map[[2]int64]oracle.AggResult{}
	for _, r := range res {
		bySig[[2]int64{r.Key, int64(r.WindowEnd)}] = r
	}
	if r := bySig[[2]int64{1, int64(8 * time.Second)}]; r.Sum != 30 || r.Count != 2 {
		t.Fatalf("window 8s: %+v", r)
	}
	if r := bySig[[2]int64{1, int64(4 * time.Second)}]; r.Sum != 10 {
		t.Fatalf("window 4s: %+v", r)
	}
	if r := bySig[[2]int64{1, int64(12 * time.Second)}]; r.Sum != 20 {
		t.Fatalf("window 12s: %+v", r)
	}
	// Ads never contribute to the aggregation.
	for _, r := range res {
		if r.Sum == 0 {
			t.Fatalf("zero-sum cell should not exist: %+v", r)
		}
	}
}
