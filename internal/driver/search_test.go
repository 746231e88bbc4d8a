package driver

import (
	"context"
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/broker"
	"repro/internal/engine/flink"
	"repro/internal/workload"
)

func searchBase() Config {
	return Config{
		Seed: 42, Workers: 4, Query: workload.Default(workload.Aggregation),
		EventsPerTuple: 400,
	}
}

func searchCfg() SearchConfig {
	return SearchConfig{Lo: 0.1e6, Hi: 1.6e6, Resolution: 0.05, ProbeRunFor: 75 * time.Second}
}

// TestSpeculativeSearchBitIdenticalToSequential is the determinism pin of
// DESIGN-PERF.md §6: the speculative search must return a bit-identical
// rate and Result to the strictly sequential bisection, at GOMAXPROCS=1
// and on a parallel budget.  The broker base puts brokered probes on the
// pooled arenas shared by the speculation goroutines.
func TestSpeculativeSearchBitIdenticalToSequential(t *testing.T) {
	brokered := searchBase()
	bc := broker.DefaultConfig()
	brokered.Broker = &bc
	for _, tc := range []struct {
		name string
		base Config
	}{
		{"direct", searchBase()},
		{"broker", brokered},
	} {
		t.Run(tc.name, func(t *testing.T) { checkSpeculativeMatchesSequential(t, tc.base) })
	}
}

func checkSpeculativeMatchesSequential(t *testing.T, base Config) {
	var seqStats SearchStats
	seq := searchCfg()
	seq.Speculate = 1
	seq.Stats = &seqStats
	seqRate, seqRes, err := FindSustainableContext(context.Background(), flink.New(flink.Options{}), base, seq)
	if err != nil {
		t.Fatal(err)
	}

	for _, procs := range []int{1, 4} {
		old := runtime.GOMAXPROCS(procs)
		var specStats SearchStats
		spec := searchCfg()
		spec.Speculate = 7
		spec.Stats = &specStats
		rate, res, err := FindSustainableContext(context.Background(), flink.New(flink.Options{}), base, spec)
		runtime.GOMAXPROCS(old)
		if err != nil {
			t.Fatal(err)
		}
		if rate != seqRate {
			t.Fatalf("GOMAXPROCS=%d: speculative rate %v != sequential %v", procs, rate, seqRate)
		}
		if !reflect.DeepEqual(res, seqRes) {
			t.Fatalf("GOMAXPROCS=%d: speculative Result differs from sequential", procs)
		}
		if specStats.Probes != seqStats.Probes {
			t.Fatalf("GOMAXPROCS=%d: consumed %d probes, sequential consumed %d",
				procs, specStats.Probes, seqStats.Probes)
		}
		if procs > 1 && specStats.Speculative <= specStats.Probes {
			t.Fatalf("GOMAXPROCS=%d: no speculation happened (%d launched, %d consumed)",
				procs, specStats.Speculative, specStats.Probes)
		}
		if procs == 1 && specStats.Speculative != specStats.Probes {
			t.Fatalf("GOMAXPROCS=1 must degenerate to sequential probing: %d launched, %d consumed",
				specStats.Speculative, specStats.Probes)
		}
	}
	if seqStats.FinalLo != seqRate || seqStats.FinalHi <= seqRate {
		t.Fatalf("final bracket accounting wrong: [%v, %v] around rate %v",
			seqStats.FinalLo, seqStats.FinalHi, seqRate)
	}
}

// TestWarmStartSearch checks a bracket recorded by a prior search makes the
// next one cheaper and lands within the search resolution of the cold rate.
func TestWarmStartSearch(t *testing.T) {
	var cold SearchStats
	cfg := searchCfg()
	cfg.Stats = &cold
	coldRate, _, err := FindSustainableContext(context.Background(), flink.New(flink.Options{}), searchBase(), cfg)
	if err != nil {
		t.Fatal(err)
	}

	var warm SearchStats
	wcfg := searchCfg()
	wcfg.WarmLo, wcfg.WarmHi = cold.FinalLo, cold.FinalHi
	wcfg.Stats = &warm
	warmRate, res, err := FindSustainableContext(context.Background(), flink.New(flink.Options{}), searchBase(), wcfg)
	if err != nil {
		t.Fatal(err)
	}
	if !warm.WarmStart {
		t.Fatal("warm bracket was not used")
	}
	if res == nil || !res.Verdict.Sustainable {
		t.Fatal("warm search must return a sustainable Result")
	}
	if warm.Probes >= cold.Probes {
		t.Fatalf("warm start did not save probes: %d vs cold %d", warm.Probes, cold.Probes)
	}
	if rel := (warmRate - coldRate) / coldRate; rel > 2*wcfg.Resolution || rel < -2*wcfg.Resolution {
		t.Fatalf("warm rate %v strays from cold rate %v by %.1f%%", warmRate, coldRate, 100*rel)
	}
}

// TestWarmStartFallsBackCold checks a stale warm bracket (floor no longer
// sustainable) falls back to the cold search and returns exactly its
// result.
func TestWarmStartFallsBackCold(t *testing.T) {
	coldRate, coldRes, err := FindSustainableContext(context.Background(), flink.New(flink.Options{}), searchBase(), searchCfg())
	if err != nil {
		t.Fatal(err)
	}

	var stats SearchStats
	wcfg := searchCfg()
	// Flink is network-bound ~1.2M ev/s: a 1.4–1.6M bracket's floor fails.
	wcfg.WarmLo, wcfg.WarmHi = 1.4e6, 1.6e6
	wcfg.Stats = &stats
	rate, res, err := FindSustainableContext(context.Background(), flink.New(flink.Options{}), searchBase(), wcfg)
	if err != nil {
		t.Fatal(err)
	}
	if stats.WarmStart {
		t.Fatal("stale warm bracket must not be reported as used")
	}
	if rate != coldRate || !reflect.DeepEqual(res, coldRes) {
		t.Fatalf("fallback result differs from cold search: %v vs %v", rate, coldRate)
	}

	// Upward drift: a warm bracket entirely below the true rate has every
	// probe judged sustainable, so its ceiling is never invalidated.  The
	// search must not cap the answer at the bracket ceiling — it falls
	// back cold and finds the real rate.
	var low SearchStats
	lcfg := searchCfg()
	lcfg.WarmLo, lcfg.WarmHi = 0.3e6, 0.4e6
	lcfg.Stats = &low
	rate, res, err = FindSustainableContext(context.Background(), flink.New(flink.Options{}), searchBase(), lcfg)
	if err != nil {
		t.Fatal(err)
	}
	if low.WarmStart {
		t.Fatal("uninvalidated warm ceiling must not be reported as used")
	}
	if rate != coldRate || !reflect.DeepEqual(res, coldRes) {
		t.Fatalf("upward-drift fallback differs from cold search: %v vs %v", rate, coldRate)
	}
}

// TestWarmBracketValidation pins the widen/clip rules.
func TestWarmBracketValidation(t *testing.T) {
	base := SearchConfig{Lo: 0.1e6, Hi: 1.6e6, Resolution: 0.05}
	if _, _, ok := warmBracket(base); ok {
		t.Fatal("zero warm bracket must be ignored")
	}
	bad := base
	bad.WarmLo, bad.WarmHi = 0.5e6, 0.4e6 // inverted
	if _, _, ok := warmBracket(bad); ok {
		t.Fatal("inverted warm bracket must be ignored")
	}
	w := base
	w.WarmLo, w.WarmHi = 0.4e6, 0.5e6
	lo, hi, ok := warmBracket(w)
	if !ok || lo >= w.WarmLo || hi <= w.WarmHi {
		t.Fatalf("warm bracket not widened: [%v, %v]", lo, hi)
	}
	clip := base
	clip.WarmLo, clip.WarmHi = 0.05e6, 2e6 // beyond [Lo, Hi]
	lo, hi, ok = warmBracket(clip)
	if !ok || lo != base.Lo || hi != base.Hi {
		t.Fatalf("warm bracket not clipped to [Lo, Hi]: [%v, %v]", lo, hi)
	}
}

// BenchmarkFindSustainableQuick is the headline microbenchmark of one
// quick-scale sustainable-throughput search (the unit Table I runs nine
// of).  Speculation follows the spare worker budget, so single-core runs
// measure the sequential path.
func BenchmarkFindSustainableQuick(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := FindSustainableContext(context.Background(), flink.New(flink.Options{}), searchBase(), searchCfg()); err != nil {
			b.Fatal(err)
		}
	}
}
