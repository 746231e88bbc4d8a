// Package core is the public facade of the benchmark framework: it ties
// the driver, workloads, engine models and report formatting into a
// registry of named experiments, one per table and figure of the paper's
// evaluation (`sdpsbench -list` prints the index).
//
// The same registry backs cmd/sdpsbench and the benchmark targets in
// bench_test.go, so `sdpsbench -exp table1` and
// `go test -bench Table1` produce the same artefact.
package core

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/driver"
	"repro/internal/engine"
	"repro/internal/engine/flink"
	"repro/internal/engine/ideal"
	"repro/internal/engine/spark"
	"repro/internal/engine/storm"
	"repro/internal/metrics"
	"repro/internal/plot"
	"repro/internal/report"
)

// Scale selects the fidelity/cost trade-off of an experiment run.
type Scale int

const (
	// Quick runs short, coarse simulations suitable for CI and
	// integration tests (tens of seconds of virtual time, coarse event
	// scale, relaxed search resolution).
	Quick Scale = iota
	// Full runs the evaluation-fidelity configuration used to produce
	// EXPERIMENTS.md (minutes of virtual time, fine event scale).
	Full
)

// Options parameterise an experiment run.
type Options struct {
	// Seed drives every random stream; same seed, same artefact.
	Seed uint64
	// Scale selects Quick or Full fidelity.
	Scale Scale
}

// WithDefaults fills zero fields.
func (o Options) WithDefaults() Options {
	if o.Seed == 0 {
		o.Seed = 42
	}
	return o
}

// String renders the scale the way the CLIs spell it.
func (s Scale) String() string {
	if s == Full {
		return "full"
	}
	return "quick"
}

// ParseScale parses the CLI/wire spelling of a scale.
func ParseScale(s string) (Scale, error) {
	switch s {
	case "quick", "":
		return Quick, nil
	case "full":
		return Full, nil
	default:
		return Quick, fmt.Errorf("core: unknown scale %q (quick | full)", s)
	}
}

// RunFor returns the measured virtual duration per run.
func (o Options) RunFor() time.Duration {
	if o.Scale == Full {
		return 4 * time.Minute
	}
	return 75 * time.Second
}

// EventsPerTuple returns the simulation event scale.
func (o Options) EventsPerTuple() int64 {
	if o.Scale == Full {
		return 20
	}
	return 100
}

// SearchConfig returns the sustainable-throughput search settings.  The
// search itself always uses a coarse event scale — queue divergence does
// not need fine-grained latency fidelity.
func (o Options) SearchConfig() driver.SearchConfig {
	sc := driver.SearchConfig{Lo: 0.05e6, Hi: 1.6e6}
	if o.Scale == Full {
		sc.Resolution = 0.02
		sc.ProbeRunFor = 2 * time.Minute
	} else {
		sc.Resolution = 0.05
		sc.ProbeRunFor = 75 * time.Second
	}
	return sc
}

// Outcome is what an experiment produced.
type Outcome struct {
	// Text is the paper-shaped human-readable artefact (table or figure).
	Text string
	// CSV carries raw series for figures (empty for tables).
	CSV string
	// Panels carries the figure's series for SVG rendering (empty for
	// tables).
	Panels []report.FigurePanel
	// Metrics exposes headline numbers for assertions and EXPERIMENTS.md
	// (e.g. "storm/2" -> sustainable rate).
	Metrics map[string]float64
}

// SVG renders the outcome's panels as a multi-panel SVG figure, or returns
// "" for table-style outcomes.
func (o *Outcome) SVG() string {
	if len(o.Panels) == 0 {
		return ""
	}
	series := make([]*metrics.Series, 0, len(o.Panels))
	for _, p := range o.Panels {
		s := *p.Series
		s.Name = p.Title
		series = append(series, &s)
	}
	cols := 3
	if len(series) < 3 {
		cols = len(series)
	}
	return plot.Grid(series, cols, plot.Options{})
}

// Experiment is one registered, runnable artefact.  Its work is exposed as
// independent cells (see cells.go) so the local runner and the distributed
// controller share one execution model; Run/RunContext execute it
// in-process.
type Experiment struct {
	ID          string
	Title       string
	Description string
	// Cells enumerates the experiment's schedulable units for the given
	// (defaulted) options, in a deterministic order.
	Cells func(o Options) []Cell
	// Assemble folds the cells' canonically-encoded results (indexed as
	// enumerated by Cells) into the final artefact.
	Assemble func(o Options, results [][]byte) (*Outcome, error)
}

// registry holds all experiments, populated by the experiment files' init
// functions and by internal/scenario's builtin specs via Register.
var registry []Experiment

// Register adds an experiment to the registry.  The paper's built-in
// experiments register themselves from init functions (here and in
// internal/scenario); additional experiments may be registered before the
// registry is first consulted.
func Register(e Experiment) { registry = append(registry, e) }

// Experiments returns all registered experiments sorted by ID in the
// paper's order (tables first, then experiments, then figures).
func Experiments() []Experiment {
	out := make([]Experiment, len(registry))
	copy(out, registry)
	sort.SliceStable(out, func(i, j int) bool { return orderKey(out[i].ID) < orderKey(out[j].ID) })
	return out
}

// orderKey sorts experiment ids in presentation order.
func orderKey(id string) string {
	rank := map[string]string{
		"table1": "01", "table2": "02", "fig4": "03", "table3": "04",
		"table4": "05", "fig5": "06", "exp3": "07", "exp4": "08",
		"fig6": "09", "fig7": "10", "fig8": "11", "fig9": "12",
		"fig10": "13", "fig11": "14",
	}
	if r, ok := rank[id]; ok {
		return r
	}
	return "99" + id
}

// Lookup finds an experiment by ID.
func Lookup(id string) (Experiment, error) {
	for _, e := range registry {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("core: unknown experiment %q (run `sdpsbench -list`)", id)
}

// engineNames is the paper's presentation order for the engine models.
var engineNames = []string{"storm", "spark", "flink"}

// Engines returns fresh instances of the three engine models in the
// paper's order.
func Engines() []engine.Engine {
	return []engine.Engine{
		storm.New(storm.Options{}),
		spark.New(spark.Options{}),
		flink.New(flink.Options{}),
	}
}

// EngineByName builds a fresh engine model by name.
func EngineByName(name string) (engine.Engine, error) {
	switch name {
	case "storm":
		return storm.New(storm.Options{}), nil
	case "spark":
		return spark.New(spark.Options{}), nil
	case "flink":
		return flink.New(flink.Options{}), nil
	case "ideal":
		return ideal.New(), nil
	default:
		return nil, fmt.Errorf("core: unknown engine %q (storm, spark, flink, ideal)", name)
	}
}

// PaperRates returns the published sustainable throughput (events/second)
// of Table I (aggregation) and Table III (join), used to position the
// latency experiments exactly where the paper positioned them.  Keys are
// "engine/workers".
func PaperRates(join bool) map[string]float64 {
	if join {
		return map[string]float64{
			"spark/2": 0.36e6, "spark/4": 0.63e6, "spark/8": 0.94e6,
			"flink/2": 0.85e6, "flink/4": 1.12e6, "flink/8": 1.19e6,
		}
	}
	return map[string]float64{
		"storm/2": 0.40e6, "storm/4": 0.69e6, "storm/8": 0.99e6,
		"spark/2": 0.38e6, "spark/4": 0.64e6, "spark/8": 0.91e6,
		"flink/2": 1.2e6, "flink/4": 1.2e6, "flink/8": 1.2e6,
	}
}

// ClusterSizes are the paper's worker counts.
var ClusterSizes = []int{2, 4, 8}
