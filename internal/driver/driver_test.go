package driver

import (
	"context"
	"testing"
	"time"

	"repro/internal/broker"
	"repro/internal/engine"
	"repro/internal/engine/flink"
	"repro/internal/engine/ideal"
	"repro/internal/engine/spark"
	"repro/internal/engine/storm"
	"repro/internal/generator"
	"repro/internal/queue"
	"repro/internal/workload"
)

func quickConfig(rate float64) Config {
	return Config{
		Seed:           42,
		Workers:        2,
		Rate:           generator.ConstantRate(rate),
		Query:          workload.Default(workload.Aggregation),
		RunFor:         60 * time.Second,
		EventsPerTuple: 200,
	}
}

func TestConfigValidate(t *testing.T) {
	if _, err := Run(flink.New(flink.Options{}), Config{}); err == nil {
		t.Fatal("missing rate must be rejected")
	}
	bad := quickConfig(1e5)
	bad.WarmupFraction = 1.5
	if _, err := Run(flink.New(flink.Options{}), bad); err == nil {
		t.Fatal("bad warmup fraction must be rejected")
	}
	d := Config{}.WithDefaults()
	if d.Workers != 2 || d.GeneratorInstances != 16 || d.WarmupFraction != 0.25 {
		t.Fatalf("defaults wrong: %+v", d)
	}
}

func TestRunProducesCompleteResult(t *testing.T) {
	res, err := Run(flink.New(flink.Options{}), quickConfig(0.4e6))
	if err != nil {
		t.Fatal(err)
	}
	if res.Engine != "flink" || res.Workers != 2 {
		t.Fatalf("identity: %s/%d", res.Engine, res.Workers)
	}
	if res.Outputs == 0 || res.EventLatency.Count() == 0 || res.ProcLatency.Count() == 0 {
		t.Fatal("latency measurements missing")
	}
	if res.Generated == 0 || res.Ingested == 0 {
		t.Fatal("throughput accounting missing")
	}
	if res.Ingested > res.Generated {
		t.Fatalf("ingested %d exceeds generated %d", res.Ingested, res.Generated)
	}
	if res.EventLatencySeries.Len() == 0 || res.ThroughputSeries.Len() == 0 || res.QueueDepthSeries.Len() == 0 {
		t.Fatal("series missing")
	}
	if len(res.CPU) != 2 || len(res.Net) != 2 {
		t.Fatalf("resource series: %d cpu, %d net", len(res.CPU), len(res.Net))
	}
	if !res.Verdict.Sustainable {
		t.Fatalf("0.4M ev/s must be sustainable on flink: %+v", res.Verdict)
	}
	// Offered rate accounting.
	if r := float64(res.Generated) / res.Config.RunFor.Seconds(); r < 0.39e6 || r > 0.41e6 {
		t.Fatalf("offered rate: %v", r)
	}
}

func TestRunDetectsOverload(t *testing.T) {
	res, err := Run(flink.New(flink.Options{}), quickConfig(1.6e6)) // >1.2M network bound
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict.Sustainable {
		t.Fatalf("1.6M ev/s cannot be sustainable: %+v", res.Verdict)
	}
	if res.Verdict.Reason == "" {
		t.Fatal("verdict must carry a reason")
	}
}

func TestEventLatencyDominatesProcLatency(t *testing.T) {
	// Event-time latency includes queueing; processing-time latency
	// cannot exceed it (Section IV).
	res, err := Run(spark.New(spark.Options{}), quickConfig(0.3e6))
	if err != nil {
		t.Fatal(err)
	}
	if res.ProcLatency.Mean() > res.EventLatency.Mean() {
		t.Fatalf("proc latency mean %v exceeds event latency mean %v",
			res.ProcLatency.Mean(), res.EventLatency.Mean())
	}
}

func TestRunIsDeterministic(t *testing.T) {
	run := func() (uint64, int64) {
		res, err := Run(storm.New(storm.Options{}), quickConfig(0.3e6))
		if err != nil {
			t.Fatal(err)
		}
		return res.EventLatency.Count(), res.Ingested
	}
	c1, i1 := run()
	c2, i2 := run()
	if c1 != c2 || i1 != i2 {
		t.Fatalf("runs with the same seed differ: (%d,%d) vs (%d,%d)", c1, i1, c2, i2)
	}
}

func TestQueueOverflowFailsRun(t *testing.T) {
	cfg := quickConfig(1.6e6)
	cfg.QueueCapPerInstance = 100_000 // tiny driver queues
	res, err := Run(flink.New(flink.Options{}), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Failed {
		t.Fatal("queue overflow must fail the run")
	}
	if res.Verdict.Sustainable {
		t.Fatal("failed run judged sustainable")
	}
}

func TestWarmupExcludedFromHistograms(t *testing.T) {
	cfg := quickConfig(0.4e6)
	cfg.WarmupFraction = 0.5
	a, err := Run(flink.New(flink.Options{}), cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.WarmupFraction = 0.1
	b, err := Run(flink.New(flink.Options{}), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.EventLatency.Count() >= b.EventLatency.Count() {
		t.Fatalf("longer warmup must record fewer samples: %d vs %d",
			a.EventLatency.Count(), b.EventLatency.Count())
	}
}

func TestFindSustainableFlinkHitsNetworkBound(t *testing.T) {
	rate, res, err := FindSustainableContext(context.Background(), flink.New(flink.Options{}), Config{
		Seed: 42, Workers: 4, Query: workload.Default(workload.Aggregation),
		EventsPerTuple: 400,
	}, SearchConfig{Lo: 0.1e6, Hi: 1.6e6, Resolution: 0.05, ProbeRunFor: 75 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if res == nil || !res.Verdict.Sustainable {
		t.Fatal("search must return the last sustainable result")
	}
	// Table I: Flink is network-bound at ~1.2M ev/s.
	if rate < 1.05e6 || rate > 1.32e6 {
		t.Fatalf("flink sustainable rate %v not near the 1.2M network bound", rate)
	}
}

func TestFindSustainableRespectsFloor(t *testing.T) {
	// If even the floor rate fails (naive Storm join on 4 workers
	// stalls), the search reports 0 with the failing result.
	rate, res, err := FindSustainableContext(context.Background(), storm.New(storm.Options{}), Config{
		Seed: 42, Workers: 4, Query: workload.Default(workload.Join),
		EventsPerTuple: 400,
	}, SearchConfig{Lo: 0.05e6, Hi: 0.4e6, Resolution: 0.05, ProbeRunFor: 80 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if rate != 0 {
		t.Fatalf("stalling config should yield rate 0, got %v", rate)
	}
	if res == nil || !res.Failed {
		t.Fatal("floor probe's failing result must be returned")
	}
}

func TestFindSustainableEnforcesWindowCoverage(t *testing.T) {
	// With a 60s tumbling window, probes must be stretched so outputs
	// exist; the search must not report rate 0 for a healthy engine.
	q, err := workload.NewAggregation(time.Minute, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	rate, _, err := FindSustainableContext(context.Background(), flink.New(flink.Options{}), Config{
		Seed: 42, Workers: 2, Query: q, EventsPerTuple: 400,
	}, SearchConfig{Lo: 0.2e6, Hi: 1.6e6, Resolution: 0.1, ProbeRunFor: 75 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if rate == 0 {
		t.Fatal("healthy large-window deployment judged totally unsustainable")
	}
}

func TestStepScheduleRun(t *testing.T) {
	cfg := quickConfig(0)
	cfg.Rate = generator.PaperFluctuation(cfg.RunFor, 0.5e6, 0.2e6)
	res, err := Run(flink.New(flink.Options{}), cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Throughput series must show both plateaus.
	hi, lo := 0.0, 1e18
	for _, p := range res.ThroughputSeries.Points {
		if p.V > hi {
			hi = p.V
		}
		if p.V > 0 && p.V < lo {
			lo = p.V
		}
	}
	if hi < 0.45e6 || lo > 0.3e6 {
		t.Fatalf("fluctuating schedule not visible in throughput: hi=%v lo=%v", hi, lo)
	}
}

func TestRunWithBrokerInterposed(t *testing.T) {
	bcfg := broker.DefaultConfig()
	cfg := quickConfig(0.5e6)
	cfg.Broker = &bcfg
	cfg.WatermarkSlack = 200 * time.Millisecond
	res, err := Run(flink.New(flink.Options{}), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Outputs == 0 {
		t.Fatal("no outputs through the broker")
	}
	if !res.Verdict.Sustainable {
		t.Fatalf("0.5M ev/s is within the broker's capacity: %+v", res.Verdict)
	}
	// Above the broker's ~0.8M capacity the run must be unsustainable
	// even though Flink itself could do 1.2M.
	cfg2 := quickConfig(1.1e6)
	cfg2.Broker = &bcfg
	cfg2.WatermarkSlack = 200 * time.Millisecond
	res2, err := Run(flink.New(flink.Options{}), cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Verdict.Sustainable {
		t.Fatal("broker bottleneck not detected at 1.1M ev/s")
	}
}

func TestRunDisorderAndSlack(t *testing.T) {
	cfg := quickConfig(0.4e6)
	cfg.DisorderProb = 0.3
	cfg.DisorderMax = time.Second
	res, err := Run(flink.New(flink.Options{}), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.LateDropped == 0 {
		t.Fatal("disorder without slack should lose window contributions")
	}
	cfg.WatermarkSlack = 1200 * time.Millisecond
	res2, err := Run(flink.New(flink.Options{}), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res2.LateDropped >= res.LateDropped {
		t.Fatalf("slack should reduce late drops: %d vs %d", res2.LateDropped, res.LateDropped)
	}
}

// checkQueueConservation requires that a queue group accounts for every
// unit of weight offered to it: offered = TotalIn + Refused for the group,
// and TotalIn = TotalOut + Weight for every member.
func checkQueueConservation(t *testing.T, name string, g *queue.Group, offered int64) {
	t.Helper()
	if got := g.TotalIn() + g.Refused(); got != offered {
		t.Errorf("%s: TotalIn %d + Refused %d = %d, offered %d", name, g.TotalIn(), g.Refused(), got, offered)
	}
	for _, q := range g.Queues() {
		if q.TotalIn() != q.TotalOut()+q.Weight() {
			t.Errorf("%s: %s TotalIn %d != TotalOut %d + Weight %d", name, q.Name(), q.TotalIn(), q.TotalOut(), q.Weight())
		}
	}
}

// TestRunConservesQueueWeight checks weight conservation at the end of
// driver runs on every engine, for aggregation and join, at a steady rate
// and at a rate that overflows the driver queues, plus one run through a
// broker: the generated weight is what the generator queues admitted plus
// what they refused, and each queue's admitted weight is what left it plus
// what it still holds.  With a broker the same holds for the SUT-side
// queues against what the broker delivered.
func TestRunConservesQueueWeight(t *testing.T) {
	type run struct {
		name     string
		eng      engine.Engine
		cfg      Config
		overflow bool
	}
	var runs []run
	for _, eng := range []engine.Engine{
		storm.New(storm.Options{}), spark.New(spark.Options{}), flink.New(flink.Options{}), ideal.New(),
	} {
		for _, qt := range []workload.Type{workload.Aggregation, workload.Join} {
			steady := quickConfig(0.2e6)
			steady.Query = workload.Default(qt)
			steady.RunFor = 20 * time.Second
			over := steady
			over.Rate = generator.ConstantRate(3e6)
			over.QueueCapPerInstance = 100_000
			runs = append(runs,
				run{eng.Name() + "/" + qt.String() + "/steady", eng, steady, false},
				run{eng.Name() + "/" + qt.String() + "/overflow", eng, over, true})
		}
	}
	bcfg := broker.DefaultConfig()
	brokered := quickConfig(0.5e6)
	brokered.Broker = &bcfg
	brokered.RunFor = 20 * time.Second
	runs = append(runs, run{"flink/broker", flink.New(flink.Options{}), brokered, false})

	defer func() { runEndHook = nil }()
	for _, r := range runs {
		checked := false
		runEndHook = func(gen *generator.Generator, queues *queue.Group, brk *broker.Broker, sources *queue.Group) {
			checked = true
			checkQueueConservation(t, r.name+" generator queues", queues, gen.TotalWeight())
			if r.overflow != queues.Overflowed() {
				t.Errorf("%s: overflowed %v, want %v", r.name, queues.Overflowed(), r.overflow)
			}
			if brk != nil {
				checkQueueConservation(t, r.name+" broker output", sources, brk.Published()-brk.Backlog())
			}
		}
		res, err := Run(r.eng, r.cfg)
		if err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		if !checked {
			t.Fatalf("%s: end-of-run hook not called", r.name)
		}
		if res.Generated == 0 {
			t.Fatalf("%s: nothing generated", r.name)
		}
	}
}
