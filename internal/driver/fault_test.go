package driver

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/engine/flink"
	"repro/internal/engine/ideal"
	"repro/internal/engine/spark"
	"repro/internal/engine/storm"
	"repro/internal/fault"
	"repro/internal/metrics"
)

// fingerprint renders everything a run measured that an artifact reads:
// the weight accounting, both latency distributions and the per-interval
// series.  Two runs with equal fingerprints are indistinguishable.
func fingerprint(res *Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "generated=%d ingested=%d outputs=%d weight=%d late=%d failed=%v %q\n",
		res.Generated, res.Ingested, res.Outputs, res.OutputWeight, res.LateDropped, res.Failed, res.FailReason)
	for _, h := range []*metrics.Histogram{res.EventLatency, res.ProcLatency} {
		fmt.Fprintf(&b, "n=%d mean=%v p50=%v p99=%v max=%v\n",
			h.Count(), h.Mean(), h.Quantile(0.5), h.Quantile(0.99), h.Max())
	}
	for _, s := range []*metrics.Series{res.ThroughputSeries, res.QueueDepthSeries, res.EventLatencySeries, res.EventLatencyMaxSeries} {
		fmt.Fprintf(&b, "%v\n", s.Points)
	}
	fmt.Fprintf(&b, "%+v\n", res.Verdict)
	return b.String()
}

// TestKillOfWorkerNotYetScaledInIsInert runs the ideal engine on 4 workers
// rescaled to 8 at 40 s, with worker 6 killed over [10 s, 30 s) — before
// it is in service.  The kill must take no capacity: ingested weight and
// the event-time latency distribution equal those of the same run
// without it.
func TestKillOfWorkerNotYetScaledInIsInert(t *testing.T) {
	cfg := quickConfig(1e6) // within the 1.2 M ev/s fabric bound, above 3/4 of it
	cfg.Workers = 4
	cfg.Rescale = &fault.RescalePlan{Steps: []fault.RescaleStep{{At: 40 * time.Second, Workers: 8}}}
	plain, err := Run(ideal.New(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Faults = &fault.Schedule{Events: []fault.Event{
		{Kind: fault.KindKillWorker, Worker: 6, At: 10 * time.Second, RestartAfter: 20 * time.Second},
	}}
	killed, err := Run(ideal.New(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Ingested != killed.Ingested {
		t.Fatalf("ingested weight %d with the kill, %d without", killed.Ingested, plain.Ingested)
	}
	a, b := plain.EventLatency, killed.EventLatency
	if a.Mean() != b.Mean() || a.Quantile(0.99) != b.Quantile(0.99) || a.Max() != b.Max() {
		t.Fatalf("event latency mean/p99/max %v/%v/%v with the kill, %v/%v/%v without",
			b.Mean(), b.Quantile(0.99), b.Max(), a.Mean(), a.Quantile(0.99), a.Max())
	}
}

// assertInert is the harness of the metamorphic no-op tests: on storm,
// spark and flink at 4 workers and 0.4 M ev/s, a run with change applied
// to its config must have the fingerprint of the run without it.
func assertInert(t *testing.T, what string, change func(*Config)) {
	t.Helper()
	for _, newEngine := range []func() engine.Engine{
		func() engine.Engine { return storm.New(storm.Options{}) },
		func() engine.Engine { return spark.New(spark.Options{}) },
		func() engine.Engine { return flink.New(flink.Options{}) },
	} {
		cfg := quickConfig(0.4e6)
		cfg.Workers = 4
		plain, err := Run(newEngine(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		change(&cfg)
		changed, err := Run(newEngine(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if a, b := fingerprint(plain), fingerprint(changed); a != b {
			t.Errorf("%s: %s changed the run:\nwithout: %.300s\nwith:    %.300s", plain.Engine, what, a, b)
		}
	}
}

// TestRescaleToSameWorkerCountIsNoOp is a metamorphic test: a rescale
// step to the worker count already in service changes nothing.
func TestRescaleToSameWorkerCountIsNoOp(t *testing.T) {
	assertInert(t, "a rescale to the same 4 workers", func(cfg *Config) {
		cfg.Rescale = &fault.RescalePlan{Steps: []fault.RescaleStep{{At: 30 * time.Second, Workers: 4}}}
	})
}

// TestRescalePastRunEndIsNoOp is a metamorphic test: a scale-out step
// after the run ends never takes effect, so the run spends all of it on
// the 4 workers it starts with, even though its cluster is provisioned
// for 6.
func TestRescalePastRunEndIsNoOp(t *testing.T) {
	assertInert(t, "a rescale to 6 workers past the run's end", func(cfg *Config) {
		cfg.Rescale = &fault.RescalePlan{Steps: []fault.RescaleStep{{At: cfg.RunFor + time.Second, Workers: 6}}}
	})
}

// TestStallPastRunEndIsNoOp is a metamorphic test: a stall whose window
// opens after the run ends never takes capacity.  The factor is one that
// bites: the same stall inside the run leaves less capacity than the
// offered rate on all three engines.
func TestStallPastRunEndIsNoOp(t *testing.T) {
	assertInert(t, "a stall past the run's end", func(cfg *Config) {
		cfg.Faults = &fault.Schedule{Events: []fault.Event{
			{Kind: fault.KindStall, At: cfg.RunFor + time.Second, For: 5 * time.Second, Factor: 0.1},
		}}
	})
}
