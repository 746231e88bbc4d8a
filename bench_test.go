// Package repro's top-level benchmarks regenerate every table and figure
// of "Benchmarking Distributed Stream Data Processing Systems" (Karimov et
// al., ICDE 2018).  One testing.B target per artefact; each prints the
// paper-shaped rows/series through internal/report, so
//
//	go test -bench=. -benchmem
//
// re-derives the whole evaluation.  Absolute numbers come from the
// calibrated simulation substrate (capacity laws fitted to the paper's
// Tables I and III, see internal/engine); the shapes — who
// wins, by what factor, where the crossovers fall — are asserted in
// internal/core's tests and recorded against the paper in EXPERIMENTS.md.
//
// Benchmarks run at Quick scale by default so the full suite stays in the
// minutes range; set SDPS_BENCH_SCALE=full for evaluation fidelity.
package main

import (
	"fmt"
	"os"
	"testing"

	"repro/internal/core"
	// Registers the grid experiments declared as scenario specs.
	_ "repro/internal/scenario"
)

func benchScale() core.Scale {
	if os.Getenv("SDPS_BENCH_SCALE") == "full" {
		return core.Full
	}
	return core.Quick
}

// runExperiment executes the registered experiment once per benchmark
// iteration and reports headline metrics through the benchmark framework.
func runExperiment(b *testing.B, id string) {
	b.Helper()
	exp, err := core.Lookup(id)
	if err != nil {
		b.Fatal(err)
	}
	var out *core.Outcome
	for i := 0; i < b.N; i++ {
		// Vary the seed across iterations so -count>1 samples episode
		// schedules instead of replaying one bit-for-bit.
		out, err = exp.Run(core.Options{Seed: 42 + uint64(i), Scale: benchScale()})
		if err != nil {
			b.Fatal(err)
		}
	}
	if out != nil {
		fmt.Printf("\n%s\n", out.Text)
		reportHeadlines(b, id, out)
	}
}

// reportHeadlines attaches a few headline metrics to the benchmark output
// so regressions show up in benchstat diffs.
func reportHeadlines(b *testing.B, id string, out *core.Outcome) {
	switch id {
	case "table1":
		b.ReportMetric(out.Metrics["flink/8"], "flink8_ev/s")
		b.ReportMetric(out.Metrics["storm/8"], "storm8_ev/s")
		b.ReportMetric(out.Metrics["spark/8"], "spark8_ev/s")
	case "table2":
		b.ReportMetric(out.Metrics["flink/2/100/avg"], "flink2_avg_s")
		b.ReportMetric(out.Metrics["spark/2/100/avg"], "spark2_avg_s")
	case "table3":
		b.ReportMetric(out.Metrics["flink/8"], "flink8_ev/s")
		b.ReportMetric(out.Metrics["spark/8"], "spark8_ev/s")
	case "table4":
		b.ReportMetric(out.Metrics["flink/2/100/avg"], "flink2_avg_s")
		b.ReportMetric(out.Metrics["spark/2/100/avg"], "spark2_avg_s")
	case "fig7":
		b.ReportMetric(out.Metrics["event_slope"], "event_slope_s/s")
		b.ReportMetric(out.Metrics["proc_slope"], "proc_slope_s/s")
	case "fig9":
		b.ReportMetric(out.Metrics["flink/cv"], "flink_cv")
		b.ReportMetric(out.Metrics["storm/cv"], "storm_cv")
		b.ReportMetric(out.Metrics["spark/cv"], "spark_cv")
	case "fig10":
		b.ReportMetric(out.Metrics["flink/cpu_mean"], "flink_cpu_pct")
		b.ReportMetric(out.Metrics["spark/cpu_mean"], "spark_cpu_pct")
	case "exp4":
		b.ReportMetric(out.Metrics["flink/8"], "flink8_skew_ev/s")
		b.ReportMetric(out.Metrics["spark/4"], "spark4_skew_ev/s")
	}
}

// BenchmarkTable1SustainableAggregation regenerates Table I: the maximum
// sustainable throughput of the windowed aggregation for every engine and
// cluster size, found by bisection per Definition 5.
func BenchmarkTable1SustainableAggregation(b *testing.B) { runExperiment(b, "table1") }

// BenchmarkTable2AggregationLatency regenerates Table II: event-time
// latency statistics (avg/min/max/quantiles) at the Table I workloads and
// at 90% of them.
func BenchmarkTable2AggregationLatency(b *testing.B) { runExperiment(b, "table2") }

// BenchmarkTable3SustainableJoin regenerates Table III: sustainable
// throughput of the windowed join for Spark and Flink, plus the Storm
// naive-join aside (0.14M ev/s on 2 nodes, stall on 4).
func BenchmarkTable3SustainableJoin(b *testing.B) { runExperiment(b, "table3") }

// BenchmarkTable4JoinLatency regenerates Table IV: join latency statistics
// at the Table III workloads and at 90% of them.
func BenchmarkTable4JoinLatency(b *testing.B) { runExperiment(b, "table4") }

// BenchmarkFig4AggregationLatencySeries regenerates Figure 4's 18 panels:
// aggregation latency over time per engine × cluster × load.
func BenchmarkFig4AggregationLatencySeries(b *testing.B) { runExperiment(b, "fig4") }

// BenchmarkFig5JoinLatencySeries regenerates Figure 5's 12 panels: join
// latency over time for Spark and Flink.
func BenchmarkFig5JoinLatencySeries(b *testing.B) { runExperiment(b, "fig5") }

// BenchmarkExp3LargeWindows regenerates Experiment 3: the (60s,60s) window
// with Spark's caching/recompute/inverse-reduce strategies, Storm's OOM
// without spillable state, and Flink's indifference.
func BenchmarkExp3LargeWindows(b *testing.B) { runExperiment(b, "exp3") }

// BenchmarkExp4DataSkew regenerates Experiment 4: single-key skew pins
// Storm and Flink to one slot while Spark's tree aggregate scales.
func BenchmarkExp4DataSkew(b *testing.B) { runExperiment(b, "exp4") }

// BenchmarkFig6FluctuatingWorkload regenerates Figure 6 / Experiment 5:
// event-time latency under the 0.84M -> 0.28M -> 0.84M ev/s schedule.
func BenchmarkFig6FluctuatingWorkload(b *testing.B) { runExperiment(b, "fig6") }

// BenchmarkFig7UnsustainableEventVsProcessing regenerates Figure 7: under
// overload, event-time latency diverges while processing-time latency
// stays flat.
func BenchmarkFig7UnsustainableEventVsProcessing(b *testing.B) { runExperiment(b, "fig7") }

// BenchmarkFig8EventVsProcessingTime regenerates Figure 8 / Experiment 6:
// both latency definitions side by side per engine.
func BenchmarkFig8EventVsProcessingTime(b *testing.B) { runExperiment(b, "fig8") }

// BenchmarkFig9ThroughputSeries regenerates Figure 9 / Experiment 8: the
// pull-rate-over-time comparison (Storm fluctuates, Flink does not).
func BenchmarkFig9ThroughputSeries(b *testing.B) { runExperiment(b, "fig9") }

// BenchmarkFig10ResourceUsage regenerates Figure 10: per-node CPU and
// network usage during the 4-node aggregation.
func BenchmarkFig10ResourceUsage(b *testing.B) { runExperiment(b, "fig10") }

// BenchmarkFig11SparkSchedulerDelay regenerates Figure 11: Spark's
// scheduler delay coupling to its ingestion rate at overload onset.
func BenchmarkFig11SparkSchedulerDelay(b *testing.B) { runExperiment(b, "fig11") }
