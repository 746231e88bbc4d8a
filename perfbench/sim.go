package main

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/driver"
	"repro/internal/generator"
	"repro/internal/oracle"
	"repro/internal/tuple"
	"repro/internal/workload"
)

// The steady workloads run four workers for 60 s of virtual time at
// 0.3M events/s, one simulated tuple standing for 200 events (the scale
// of a sustainable-throughput search's probe runs), so a closed loop
// completes enough operations in a few seconds of wall time.  The rate
// is under half of
// every engine's 4-worker capacity (Table I: storm 0.69M, spark 0.64M,
// flink 1.2M; Table III: spark 0.63M, flink 1.12M), so the backlog stays
// flat and no event arrives behind its window's watermark; nearer
// capacity, transient stalls make flink drop late events, and its sums no
// longer match the oracle's.
const (
	simWorkers = 4
	simRunFor  = 60 * time.Second
	simEPT     = 200
	simRate    = 0.3e6
)

// steady is a fixed-rate run of one query on several engines.  Every
// repetition uses the same seed, so every result must equal the set-up
// run's bit for bit.
type steady struct {
	query   workload.Query
	engines []string
	seed    uint64
	// want is each engine's result fingerprint from the set-up run.
	want     map[string]string
	mismatch error
}

func setupAgg(seed uint64, _ string) (instance, error) {
	return newSteady(workload.Default(workload.Aggregation), []string{"storm", "spark", "flink"}, seed)
}

func setupJoin(seed uint64, _ string) (instance, error) {
	// Storm has no windowed join (the paper's naive join stalls).
	return newSteady(workload.Default(workload.Join), []string{"spark", "flink"}, seed)
}

func newSteady(q workload.Query, engines []string, seed uint64) (*steady, error) {
	s := &steady{query: q, engines: engines, seed: seed, want: map[string]string{}}
	for _, name := range engines {
		res, err := s.runOne(name, nil, nil)
		if err != nil {
			return nil, err
		}
		if res.Failed || !res.Verdict.Sustainable {
			return nil, fmt.Errorf("%s: %v is not steady: %s %s", name, q.Type, res.FailReason, res.Verdict.Reason)
		}
		s.want[name] = fingerprint(res)
	}
	return s, nil
}

func (s *steady) config() driver.Config {
	return driver.Config{
		Seed:           s.seed,
		Workers:        simWorkers,
		Rate:           generator.ConstantRate(simRate),
		Query:          s.query,
		RunFor:         simRunFor,
		EventsPerTuple: simEPT,
	}
}

func (s *steady) runOne(name string, evTap func(*tuple.Event), outTap func(*tuple.Output)) (*driver.Result, error) {
	eng, err := core.EngineByName(name)
	if err != nil {
		return nil, err
	}
	cfg := s.config()
	cfg.EventTap, cfg.OutputTap = evTap, outTap
	res, err := driver.Run(eng, cfg)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	return res, nil
}

func (s *steady) op() (map[string]time.Duration, error) {
	spans := make(map[string]time.Duration, len(s.engines))
	for _, name := range s.engines {
		start := time.Now()
		res, err := s.runOne(name, nil, nil)
		spans[name] = time.Since(start)
		if err != nil {
			return nil, err
		}
		if got := fingerprint(res); got != s.want[name] {
			if s.mismatch == nil {
				s.mismatch = fmt.Errorf("%s: repeated run differs from the first:\n got %s\nwant %s", name, got, s.want[name])
			}
			return nil, s.mismatch
		}
	}
	return spans, nil
}

// check reruns each engine with event and output taps (which must not
// change the result) and compares its window outputs with the oracle's
// brute-force evaluation of the captured event log.
func (s *steady) check() error {
	if s.mismatch != nil {
		return s.mismatch
	}
	for _, name := range s.engines {
		var log []tuple.Event
		var outs []*tuple.Output
		res, err := s.runOne(name,
			func(e *tuple.Event) { log = append(log, *e) },
			func(o *tuple.Output) { c := *o; outs = append(outs, &c) })
		if err != nil {
			return err
		}
		if got := fingerprint(res); got != s.want[name] {
			return fmt.Errorf("%s: tapped run differs from the untapped one:\n got %s\nwant %s", name, got, s.want[name])
		}
		// Spark assigns events to windows by arrival time, so an event
		// near a window boundary can land in the neighbouring window; its
		// per-window totals must match the oracle's within 3%.  The
		// event-time engines must match exactly, key by key.
		check := checkExact
		if name == "spark" {
			check = checkTotals
		}
		if err := check(s.query, log, outs); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
	}
	return nil
}

// interior reports whether a window closed well after warm-up and well
// before the run ended, so the engine saw all its input and emitted it.
func interior(end time.Duration) bool {
	return end > simRunFor/4 && end < simRunFor-15*time.Second
}

// emittedInterior returns the interior windows the engine emitted.
func emittedInterior(outs []*tuple.Output) (map[time.Duration]bool, error) {
	windows := map[time.Duration]bool{}
	for _, o := range outs {
		if interior(o.WindowEnd) {
			windows[o.WindowEnd] = true
		}
	}
	if len(windows) < 5 {
		return nil, fmt.Errorf("only %d interior windows emitted", len(windows))
	}
	return windows, nil
}

// oracleTotals returns the oracle's per-window total: the join's pair
// count or the aggregation's sum over all keys.
func oracleTotals(q workload.Query, log []tuple.Event) map[time.Duration]int64 {
	out := map[time.Duration]int64{}
	if q.Type == workload.Join {
		for end, n := range oracle.JoinResultCount(q, log) {
			out[end] = int64(n)
		}
		return out
	}
	for _, r := range oracle.Aggregate(q, log) {
		out[r.WindowEnd] += r.Sum
	}
	return out
}

// outputTotals is oracleTotals for an engine's outputs.
func outputTotals(q workload.Query, outs []*tuple.Output) map[time.Duration]int64 {
	out := map[time.Duration]int64{}
	for _, o := range outs {
		if q.Type == workload.Join {
			out[o.WindowEnd]++
		} else {
			out[o.WindowEnd] += o.Value
		}
	}
	return out
}

func checkTotals(q workload.Query, log []tuple.Event, outs []*tuple.Output) error {
	windows, err := emittedInterior(outs)
	if err != nil {
		return err
	}
	want, got := oracleTotals(q, log), outputTotals(q, outs)
	for end := range windows {
		if w, g := want[end], got[end]; g < w*97/100 || g > w*103/100 {
			return fmt.Errorf("window %v total %d, oracle %d (beyond 3%%)", end, g, w)
		}
	}
	return nil
}

func checkExact(q workload.Query, log []tuple.Event, outs []*tuple.Output) error {
	windows, err := emittedInterior(outs)
	if err != nil {
		return err
	}
	if q.Type == workload.Join {
		want, got := oracleTotals(q, log), outputTotals(q, outs)
		for end := range windows {
			if want[end] != got[end] {
				return fmt.Errorf("join window %v: %d pairs emitted, oracle expects %d", end, got[end], want[end])
			}
		}
		return nil
	}
	want := oracle.Aggregate(q, log)
	if bad := oracle.CompareAggregates(want, outs, windows); bad != nil {
		return fmt.Errorf("%d (key, window) sums disagree with the oracle; first %+v", len(bad), bad[0])
	}
	emitted := map[[2]int64]bool{}
	for _, o := range outs {
		emitted[[2]int64{o.Key, int64(o.WindowEnd)}] = true
	}
	for _, r := range want {
		if windows[r.WindowEnd] && !emitted[[2]int64{r.Key, int64(r.WindowEnd)}] {
			return fmt.Errorf("key %d of window %v never emitted", r.Key, r.WindowEnd)
		}
	}
	return nil
}

func (s *steady) close() {}

// fingerprint summarises everything a run measured that the driver's
// determinism guarantee covers.
func fingerprint(r *driver.Result) string {
	h := r.EventLatency
	return fmt.Sprintf("%s gen=%d ingested=%d outputs=%d weight=%d late=%d failed=%v sustainable=%v latency=%d/%v/%v/%v",
		r.Engine, r.Generated, r.Ingested, r.Outputs, r.OutputWeight, r.LateDropped, r.Failed, r.Verdict.Sustainable,
		h.Count(), h.Mean(), h.Quantile(0.99), h.Max())
}
