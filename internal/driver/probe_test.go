package driver

import (
	"context"
	"reflect"
	"testing"
	"time"

	"repro/internal/broker"
	"repro/internal/engine"
	"repro/internal/engine/flink"
	"repro/internal/engine/ideal"
	"repro/internal/engine/spark"
	"repro/internal/engine/storm"
	"repro/internal/fault"
	"repro/internal/generator"
	"repro/internal/workload"
)

func probeTestConfig(rate float64) Config {
	return Config{
		Seed:           42,
		Workers:        4,
		Query:          workload.Default(workload.Aggregation),
		EventsPerTuple: 400,
		Rate:           generator.ConstantRate(rate),
		RunFor:         40 * time.Second,
	}
}

// TestProbeRunBitIdenticalToFresh is the arena determinism pin: every row
// runs on one Probe, dirtied by the row before it, and must produce a
// Result deep-equal to a run on a new Probe (driver.Run).  The table runs
// twice, so the second pass recycles every window operator kind (Pane,
// TwoStream), Storm's scratch queue and a cluster reprovisioned for the
// rescale row.
func TestProbeRunBitIdenticalToFresh(t *testing.T) {
	type row struct {
		name string
		eng  engine.Engine
		cfg  Config
	}
	var rows []row
	for _, eng := range []engine.Engine{
		storm.New(storm.Options{}),
		spark.New(spark.Options{}),
		flink.New(flink.Options{}),
		ideal.New(),
	} {
		for _, qt := range []workload.Type{workload.Aggregation, workload.Join} {
			cfg := probeTestConfig(0.6e6)
			cfg.Query = workload.Default(qt)
			rows = append(rows, row{eng.Name() + "/" + qt.String(), eng, cfg})
		}
	}
	brokered := probeTestConfig(0.6e6)
	bc := broker.DefaultConfig()
	brokered.Broker = &bc
	rows = append(rows, row{"flink/broker", flink.New(flink.Options{}), brokered})
	rescaled := probeTestConfig(0.6e6)
	rescaled.Rescale = &fault.RescalePlan{Steps: []fault.RescaleStep{{At: 30 * time.Second, Workers: 6}}}
	rows = append(rows, row{"storm/rescale-4-to-6", storm.New(storm.Options{}), rescaled})

	fresh := make([]*Result, len(rows))
	for i, r := range rows {
		res, err := Run(r.eng, r.cfg)
		if err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		fresh[i] = res
	}

	p := NewProbe()
	// Dirty the arena before the first row with a run at a different
	// rate and seed.
	dirty := probeTestConfig(1.1e6)
	dirty.Seed = 7
	if _, err := p.Run(context.Background(), flink.New(flink.Options{}), dirty); err != nil {
		t.Fatal(err)
	}
	for pass := 1; pass <= 2; pass++ {
		for i, r := range rows {
			got, err := p.Run(context.Background(), r.eng, r.cfg)
			if err != nil {
				t.Fatalf("pass %d, %s: %v", pass, r.name, err)
			}
			if !reflect.DeepEqual(got, fresh[i]) {
				t.Fatalf("pass %d, %s: recycled probe Result differs from fresh run:\nprobe: outputs=%d gen=%d verdict=%+v\nfresh: outputs=%d gen=%d verdict=%+v",
					pass, r.name, got.Outputs, got.Generated, got.Verdict, fresh[i].Outputs, fresh[i].Generated, fresh[i].Verdict)
			}
		}
	}
}

// TestProbeReusePerformsLittleAllocation pins the arena's reason to
// exist: steady-state probe runs after the first must perform near-zero
// setup allocation (the bound is loose against GC noise; a regression to
// fresh construction is two orders of magnitude above it).
func TestProbeReusePerformsLittleAllocation(t *testing.T) {
	eng := flink.New(flink.Options{})
	p := NewProbe()
	cfg := probeTestConfig(0.6e6)
	// Warm the arena through two runs so every component has grown.
	for i := 0; i < 2; i++ {
		if _, err := p.Run(context.Background(), eng, cfg); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := p.Run(context.Background(), eng, cfg); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 500 {
		t.Fatalf("steady-state probe run allocated %.0f times, want near-zero (fresh construction is ~10k)", allocs)
	}
}

// TestProbeReshapes pins that a probe survives config shape changes
// (worker count, queue fleet) by rebuilding only the mismatching
// components, still bit-identical to fresh runs.
func TestProbeReshapes(t *testing.T) {
	eng := flink.New(flink.Options{})
	p := NewProbe()
	small := probeTestConfig(0.6e6)
	if _, err := p.Run(context.Background(), eng, small); err != nil {
		t.Fatal(err)
	}
	big := probeTestConfig(0.6e6)
	big.Workers = 8
	big.GeneratorInstances = 8
	fresh, err := Run(eng, big)
	if err != nil {
		t.Fatal(err)
	}
	got, err := p.Run(context.Background(), eng, big)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, fresh) {
		t.Fatal("reshaped probe Result differs from fresh run")
	}
}
