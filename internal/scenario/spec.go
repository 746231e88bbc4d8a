// Package scenario turns benchmark scenarios into data.  A Spec is a
// validated, JSON-serializable description of a complete experiment — which
// engine models, which cluster sizes, which query and window parameters,
// which offered-load schedule and key distribution, which measurement to
// take, how many replication seeds — and Compile lowers it into the same
// deterministic cell/assembly model (core.Experiment) that the local runner
// and the distributed controller already share.
//
// The paper's regular evaluation grids (Tables I-IV, Figures 4/5/6/8/9)
// are themselves Spec values (builtin.go) registered through this path;
// user-written specs load from JSON files (`sdpsbench -scenario f.json`)
// or travel inside a ctl.RunSpec over the controller wire format, and
// produce artifacts byte-identical to a local run of the same spec.  See
// DESIGN-SCENARIO.md for the schema and the grid→cell compilation rules.
package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/generator"
	"repro/internal/tuple"
	"repro/internal/workload"
)

// Duration is a time.Duration that marshals as a human-readable string
// ("8s", "500ms") and unmarshals from either that form or integer
// nanoseconds.
type Duration time.Duration

// D converts to the standard-library type.
func (d Duration) D() time.Duration { return time.Duration(d) }

// MarshalJSON renders the duration as its canonical string form.
func (d Duration) MarshalJSON() ([]byte, error) {
	return json.Marshal(time.Duration(d).String())
}

// UnmarshalJSON accepts "8s"-style strings and integer nanoseconds.
func (d *Duration) UnmarshalJSON(b []byte) error {
	if len(b) > 0 && b[0] == '"' {
		var s string
		if err := json.Unmarshal(b, &s); err != nil {
			return err
		}
		v, err := time.ParseDuration(s)
		if err != nil {
			return fmt.Errorf("scenario: bad duration %q: %w", s, err)
		}
		*d = Duration(v)
		return nil
	}
	var ns int64
	if err := json.Unmarshal(b, &ns); err != nil {
		return fmt.Errorf("scenario: bad duration %s", b)
	}
	*d = Duration(ns)
	return nil
}

// Spec is a complete benchmark scenario as data.
type Spec struct {
	// Name is the scenario's identifier; it becomes the compiled
	// experiment's registry/artifact ID.
	Name string `json:"name"`
	// Title and Description annotate listings and the artifact envelope.
	Title       string `json:"title,omitempty"`
	Description string `json:"description,omitempty"`
	// Heading is the first line of the rendered text artefact (defaults
	// to Title).
	Heading string `json:"heading,omitempty"`
	// Seeds is the number of replication seeds (>= 1).  1 runs the grid
	// once at the submitted seed; N > 1 expands to one cell per
	// (seed, grid point) — seeds derived as seed, seed+7919, ... — and
	// the artefact becomes the cross-seed spread table.
	Seeds int `json:"seeds"`
	// Measure selects what each grid point measures and how the results
	// render.
	Measure Measure `json:"measure"`
	// Faults is the deterministic fault schedule injected into every
	// grid cell: kill engine worker i at virtual time t (restarting
	// after a delay), stall ingestion for a bounded interval, partition
	// the workers into groups, pin a straggler factor to one worker, or
	// crash a worker through a full checkpoint-restore cycle whose
	// restore cost depends on the engine's recovery model.  The
	// schedule is part of the cell identity, so faulted cells cache and
	// replay like any other.  Required (non-empty) for the
	// recovery-series measure; forbidden with sustainable.
	Faults []Fault `json:"faults,omitempty"`
	// Rescale is the elastic-rescaling plan applied to every grid cell:
	// at each step's virtual time the cluster's worker count moves to the
	// step's value, paying the deployed engine's modeled transition cost
	// (savepoint-stop/restore for flink, rebalance with paused spouts for
	// storm, dynamic executor allocation for spark, instant for ideal).
	// Step times must be strictly increasing; the count before the first
	// step is the sweep's worker count.  Part of the cell identity with
	// omitempty semantics, so rescale-free specs hash identically to
	// pre-rescale builds.  Forbidden with the sustainable measure.
	Rescale []RescaleStep `json:"rescale,omitempty"`
	// Domains assigns workers to named correlated fault domains (racks,
	// zones); a "domain-outage" fault fences every member of one domain
	// together.  A worker belongs to at most one domain.  Like faults and
	// rescale, part of the cell identity with omitempty semantics.
	Domains map[string][]int `json:"domains,omitempty"`
	// Sweeps are the parameter grids; cells are enumerated sweep by
	// sweep, each expanded engines × workers × load points in Order.
	Sweeps []Sweep `json:"sweeps"`
}

// Measurement kinds.
const (
	// MeasureSustainable bisects the maximum sustainable rate
	// (Definition 5) per grid point and renders a throughput table.
	MeasureSustainable = "sustainable"
	// MeasureLatency runs each grid point at a fixed offered rate and
	// renders a latency-statistics table (avg/min/max/quantiles).
	MeasureLatency = "latency"
	// MeasureLatencySeries runs fixed-rate and renders per-interval mean
	// event-time latency panels (a figure).
	MeasureLatencySeries = "latency-series"
	// MeasureLatencyPairSeries renders event-time and processing-time
	// latency panels side by side per grid point.
	MeasureLatencyPairSeries = "latency-pair-series"
	// MeasureThroughputSeries renders the SUT ingestion (pull) rate over
	// time per grid point.
	MeasureThroughputSeries = "throughput-series"
	// MeasureRecoverySeries runs fixed-rate under the spec's fault
	// schedule and renders throughput + queue-depth panels per grid
	// point, with per-fault dip and recovery-latency metrics.
	MeasureRecoverySeries = "recovery-series"
)

// measureKinds lists the valid Measure.Kind values.
var measureKinds = []string{
	MeasureSustainable, MeasureLatency, MeasureLatencySeries,
	MeasureLatencyPairSeries, MeasureThroughputSeries,
	MeasureRecoverySeries,
}

// AsideStormNaiveJoin is the one recognised Measure.Aside value: the
// Storm naive-join aside of Table III (a 2-node bisection plus a 4-node
// stall probe appended to a sustainable grid).
const AsideStormNaiveJoin = "storm-naive-join"

// Measure selects the measurement taken at every grid point.
type Measure struct {
	Kind string `json:"kind"`
	// SeriesStats are the per-panel statistics emitted as metrics by the
	// series kinds: "mean", "max", "min", "cv" (cv excludes the warm-up
	// first quarter of the run).  Default: ["mean"] for latency-series,
	// ["cv"] for throughput-series.
	SeriesStats []string `json:"series_stats,omitempty"`
	// Aside names an irregular cell-group extension appended after the
	// sweep grids (only AsideStormNaiveJoin, only with
	// MeasureSustainable).
	Aside string `json:"aside,omitempty"`
}

// Fault is one scheduled fault: the spec-level mirror of fault.Event with
// human-readable durations ("30s").
type Fault struct {
	// Kind is "kill-worker", "stall", "partition", "slow-worker" or
	// "checkpoint-restore".
	Kind string `json:"kind"`
	// Worker is the 0-based index of the targeted worker (kill-worker,
	// slow-worker, checkpoint-restore).
	Worker int `json:"worker,omitempty"`
	// At is the virtual time the fault strikes.
	At Duration `json:"at"`
	// RestartAfter is how long a killed worker stays down (kill-worker:
	// 0 = never restarts within the run; checkpoint-restore: must be
	// positive, and the restart is followed by an engine-dependent
	// restore period).
	RestartAfter Duration `json:"restart_after,omitempty"`
	// For is the duration of a stall or slow-worker window, or the time
	// until a partition heals (0 = never).
	For Duration `json:"for,omitempty"`
	// Factor is the capacity multiplier while the fault is active, in
	// [0,1): the whole cluster for a stall, the minority groups for a
	// partition (0 = complete loss), the straggler for a slow-worker
	// (where it must be positive).
	Factor float64 `json:"factor,omitempty"`
	// Groups partitions the workers (partition): each inner list is one
	// side of the split; the largest group keeps its capacity, every
	// other group runs at Factor, unlisted workers side with the
	// majority.
	Groups [][]int `json:"groups,omitempty"`
	// Domain names the fault domain the outage fences (domain-outage);
	// it must be a key of the spec's domains block.
	Domain string `json:"domain,omitempty"`
}

// RescaleStep is one step of the spec's elastic-rescaling plan: the
// spec-level mirror of fault.RescaleStep with human-readable times.
type RescaleStep struct {
	// At is the virtual time the step applies.
	At Duration `json:"at"`
	// Workers is the cluster's worker count from At on.
	Workers int `json:"workers"`
}

// buildRescale lowers the spec rescale steps onto a fault.RescalePlan (nil
// when the spec has none, which is the static fast path in the engine
// runtime).
func buildRescale(steps []RescaleStep) *fault.RescalePlan {
	if len(steps) == 0 {
		return nil
	}
	p := &fault.RescalePlan{Steps: make([]fault.RescaleStep, len(steps))}
	for i, st := range steps {
		p.Steps[i] = fault.RescaleStep{At: st.At.D(), Workers: st.Workers}
	}
	return p
}

// buildFaults lowers the spec faults onto a fault.Schedule carrying the
// spec's domain map (nil when the spec has no faults, which is the
// fault-free fast path in the engine runtime — a domains block with no
// events has no effect).
func buildFaults(fs []Fault, domains map[string][]int) *fault.Schedule {
	if len(fs) == 0 {
		return nil
	}
	s := &fault.Schedule{Events: make([]fault.Event, len(fs)), Domains: domains}
	for i, f := range fs {
		s.Events[i] = fault.Event{
			Kind:         f.Kind,
			Worker:       f.Worker,
			At:           f.At.D(),
			RestartAfter: f.RestartAfter.D(),
			For:          f.For.D(),
			Factor:       f.Factor,
			Groups:       f.Groups,
			Domain:       f.Domain,
		}
	}
	return s
}

// Sweep is one parameter grid: engines × workers × load points.
type Sweep struct {
	// Prefix, when set, leads every cell ID of this sweep ("agg/storm").
	Prefix string `json:"prefix,omitempty"`
	// Engines names the engine models of the grid: "storm", "spark",
	// "flink", or "ideal" (the reference engine: the fabric bound, with
	// no recovery or rescale cost).
	Engines []string `json:"engines"`
	Workers []int    `json:"workers"`
	// Order controls the axis nesting of the enumeration:
	// "engines,workers,loads" (default for figures),
	// "engines,loads,workers" (default for latency tables) or
	// "workers,engines,loads".
	Order string `json:"order,omitempty"`
	Query Query  `json:"query"`
	// Load describes the offered-load schedule (ignored by
	// MeasureSustainable except for Keys/Disorder, which shape the input
	// during the search probes too).
	Load Load `json:"load,omitempty"`
	// Label is the panel-title template for series measures.
	// Placeholders: {prefix} {engine} {workers} {pct} {query}.
	Label string `json:"label,omitempty"`
	// MetricKey is the metric base-key template (same placeholders).
	MetricKey string `json:"metric_key,omitempty"`
	// WatermarkSlack holds windows open for out-of-order input.
	WatermarkSlack Duration `json:"watermark_slack,omitempty"`
}

// Query parameterises the benchmark query of a sweep.
type Query struct {
	// Kind is "aggregation" or "join".
	Kind string `json:"kind"`
	// WindowSize/WindowSlide default to the paper's (8s, 4s).
	WindowSize  Duration `json:"window_size,omitempty"`
	WindowSlide Duration `json:"window_slide,omitempty"`
	// Selectivity is the join-match probability (default 0.05).
	Selectivity float64 `json:"selectivity,omitempty"`
	// Strategy is the sliding-window sharing strategy ("default",
	// "recompute", "inverse-reduce").
	Strategy string `json:"strategy,omitempty"`
}

// Load kinds.
const (
	// LoadTableRates offers percentages of the paper's published
	// sustainable rate for each (engine, workers) grid point — one load
	// point per entry of Pcts.
	LoadTableRates = "table-rates"
	// LoadConstant offers a fixed rate.
	LoadConstant = "constant"
	// LoadSteps offers a stepped schedule.
	LoadSteps = "steps"
	// LoadFluctuation offers the Experiment 5 high→low→high schedule
	// scaled over the run.
	LoadFluctuation = "fluctuation"
)

// Load is a sweep's offered-load schedule plus input-shape knobs.
type Load struct {
	Kind string `json:"kind,omitempty"`
	// Pcts (LoadTableRates): load points as percentages of the published
	// rate, e.g. [100, 90].
	Pcts []int `json:"pcts,omitempty"`
	// RateEvPerSec (LoadConstant): the fixed rate in real events/second.
	RateEvPerSec float64 `json:"rate_ev_per_sec,omitempty"`
	// Steps (LoadSteps): the schedule, strictly ordered by From.
	Steps []Step `json:"steps,omitempty"`
	// HighEvPerSec/LowEvPerSec (LoadFluctuation): the two plateau rates.
	HighEvPerSec float64 `json:"high_ev_per_sec,omitempty"`
	LowEvPerSec  float64 `json:"low_ev_per_sec,omitempty"`
	// Keys overrides the gemPackID key distribution (default: the
	// driver's normal distribution).
	Keys *Keys `json:"keys,omitempty"`
	// DisorderProb/DisorderMax inject bounded out-of-order event times.
	DisorderProb float64  `json:"disorder_prob,omitempty"`
	DisorderMax  Duration `json:"disorder_max,omitempty"`
}

// Step is one segment of a stepped load schedule.
type Step struct {
	From         Duration `json:"from"`
	RateEvPerSec float64  `json:"rate_ev_per_sec"`
}

// Keys selects the key distribution of the generated events.
type Keys struct {
	// Kind is "normal", "uniform", "zipf" or "single".
	Kind string `json:"kind"`
	// N is the key cardinality (normal/uniform/zipf).
	N int `json:"n,omitempty"`
	// S is the Zipf exponent.
	S float64 `json:"s,omitempty"`
	// Key is the single key value (single).
	Key int64 `json:"key,omitempty"`
}

// Parse decodes and validates a spec from JSON.  Unknown fields are
// rejected so typos fail loudly instead of silently benchmarking the wrong
// thing.
func Parse(data []byte) (Spec, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return Spec{}, fmt.Errorf("scenario: parse: %w", err)
	}
	if dec.More() {
		return Spec{}, fmt.Errorf("scenario: trailing data after spec document")
	}
	if err := s.Validate(); err != nil {
		return Spec{}, err
	}
	return s, nil
}

// LoadFile reads and validates a spec from a JSON file.
func LoadFile(path string) (Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Spec{}, fmt.Errorf("scenario: %w", err)
	}
	s, err := Parse(data)
	if err != nil {
		return Spec{}, fmt.Errorf("%w (in %s)", err, path)
	}
	return s, nil
}

// Validate checks the spec for structural and semantic errors.  A valid
// spec always compiles.
func (s Spec) Validate() error {
	if strings.TrimSpace(s.Name) == "" {
		return fmt.Errorf("scenario: spec needs a name")
	}
	if strings.ContainsAny(s.Name, " \t\n/") {
		return fmt.Errorf("scenario %s: name must not contain whitespace or '/'", s.Name)
	}
	if s.Seeds < 1 {
		return fmt.Errorf("scenario %s: seeds must be >= 1, got %d (zero seeds measure nothing)", s.Name, s.Seeds)
	}
	if err := s.Measure.validate(s.Name); err != nil {
		return err
	}
	if len(s.Sweeps) == 0 {
		return fmt.Errorf("scenario %s: at least one sweep is required", s.Name)
	}
	for i := range s.Sweeps {
		if err := s.Sweeps[i].validate(s.Name, i, s.Measure); err != nil {
			return err
		}
	}
	if len(s.Rescale) > 0 {
		if s.Measure.Kind == MeasureSustainable {
			return fmt.Errorf("scenario %s: rescale cannot combine with the %q measure (the bisection assumes a steady worker set)", s.Name, MeasureSustainable)
		}
		if err := buildRescale(s.Rescale).Validate(); err != nil {
			return fmt.Errorf("scenario %s: %w", s.Name, err)
		}
	}
	if len(s.Faults) > 0 || len(s.Domains) > 0 {
		if len(s.Faults) > 0 && s.Measure.Kind == MeasureSustainable {
			return fmt.Errorf("scenario %s: faults cannot combine with the %q measure (the bisection assumes steady capacity)", s.Name, MeasureSustainable)
		}
		// A fault target must exist on every cluster in the grid, so
		// validate against the smallest sweep worker count — raised by
		// the rescale plan's largest target, since a worker that only
		// exists after a scale-out step is still a valid target.
		minWorkers := 0
		for _, sw := range s.Sweeps {
			for _, w := range sw.Workers {
				if minWorkers == 0 || w < minWorkers {
					minWorkers = w
				}
			}
		}
		capWorkers := buildRescale(s.Rescale).MaxWorkers(minWorkers)
		sched := buildFaults(s.Faults, s.Domains)
		if sched == nil {
			sched = &fault.Schedule{Domains: s.Domains}
		}
		if err := sched.Validate(capWorkers); err != nil {
			return fmt.Errorf("scenario %s: %w", s.Name, err)
		}
	}
	if len(s.Faults) == 0 && len(s.Rescale) == 0 && s.Measure.Kind == MeasureRecoverySeries {
		return fmt.Errorf("scenario %s: the %q measure needs at least one fault or rescale step", s.Name, MeasureRecoverySeries)
	}
	// Colliding cell IDs or metric base keys would silently overwrite
	// results and metrics at assembly; reject them here (duplicate axis
	// values, or unprefixed sweeps over the same grid).
	seenID := map[string]bool{}
	metricOwner := map[string]string{}
	for _, p := range points(s) {
		id := cellID(s, p)
		if seenID[id] {
			return fmt.Errorf("scenario %s: duplicate grid point %q (dedupe the axes or give sweeps distinct prefixes)", s.Name, id)
		}
		seenID[id] = true
		base := metricBase(s, p)
		if owner, ok := metricOwner[base]; ok {
			return fmt.Errorf("scenario %s: cells %q and %q share metric key %q (set metric_key on the sweeps)", s.Name, owner, id, base)
		}
		metricOwner[base] = id
	}
	return nil
}

func (m Measure) validate(name string) error {
	ok := false
	for _, k := range measureKinds {
		if m.Kind == k {
			ok = true
			break
		}
	}
	if !ok {
		return fmt.Errorf("scenario %s: unknown measure kind %q (%s)", name, m.Kind, strings.Join(measureKinds, " | "))
	}
	for _, st := range m.SeriesStats {
		switch st {
		case "mean", "max", "min", "cv":
		default:
			return fmt.Errorf("scenario %s: unknown series stat %q (mean | max | min | cv)", name, st)
		}
	}
	if len(m.SeriesStats) > 0 && !isSeriesKind(m.Kind) {
		return fmt.Errorf("scenario %s: series_stats only apply to series measures, not %q", name, m.Kind)
	}
	if len(m.SeriesStats) > 0 && m.Kind == MeasureLatencyPairSeries {
		return fmt.Errorf("scenario %s: %q always emits event_mean/proc_mean; series_stats do not apply", name, MeasureLatencyPairSeries)
	}
	switch m.Aside {
	case "":
	case AsideStormNaiveJoin:
		if m.Kind != MeasureSustainable {
			return fmt.Errorf("scenario %s: aside %q requires the %q measure", name, m.Aside, MeasureSustainable)
		}
	default:
		return fmt.Errorf("scenario %s: unknown aside %q", name, m.Aside)
	}
	return nil
}

func isSeriesKind(kind string) bool {
	switch kind {
	case MeasureLatencySeries, MeasureLatencyPairSeries, MeasureThroughputSeries:
		return true
	}
	return false
}

func (sw Sweep) validate(name string, i int, m Measure) error {
	where := fmt.Sprintf("scenario %s sweep %d", name, i)
	if len(sw.Engines) == 0 {
		return fmt.Errorf("%s: engines must not be empty", where)
	}
	for _, e := range sw.Engines {
		if _, err := core.EngineByName(e); err != nil {
			return fmt.Errorf("%s: %w", where, err)
		}
	}
	if len(sw.Workers) == 0 {
		return fmt.Errorf("%s: workers must not be empty", where)
	}
	for _, w := range sw.Workers {
		if w <= 0 {
			return fmt.Errorf("%s: worker count must be positive, got %d", where, w)
		}
	}
	switch sw.Order {
	case "", orderEWL, orderELW, orderWEL:
	default:
		return fmt.Errorf("%s: unknown order %q (%s | %s | %s)", where, sw.Order, orderEWL, orderELW, orderWEL)
	}
	q, err := sw.Query.build()
	if err != nil {
		return fmt.Errorf("%s: %w", where, err)
	}
	if err := sw.Load.validate(where, m, sw, q); err != nil {
		return err
	}
	return nil
}

// build lowers the spec query onto workload.Query, starting from the
// paper's defaults so that unset knobs mean "the evaluation's standard
// configuration".
func (q Query) build() (workload.Query, error) {
	var t workload.Type
	switch q.Kind {
	case "aggregation":
		t = workload.Aggregation
	case "join":
		t = workload.Join
	default:
		return workload.Query{}, fmt.Errorf("unknown query kind %q (aggregation | join)", q.Kind)
	}
	wq := workload.Default(t)
	if q.WindowSize != 0 {
		wq.WindowSize = q.WindowSize.D()
	}
	if q.WindowSlide != 0 {
		wq.WindowSlide = q.WindowSlide.D()
	}
	if q.Selectivity != 0 {
		wq.Selectivity = q.Selectivity
	}
	switch q.Strategy {
	case "", "default":
		wq.Strategy = workload.StrategyDefault
	case "recompute":
		wq.Strategy = workload.StrategyRecompute
	case "inverse-reduce":
		wq.Strategy = workload.StrategyInverseReduce
	default:
		return workload.Query{}, fmt.Errorf("unknown sliding strategy %q (default | recompute | inverse-reduce)", q.Strategy)
	}
	if err := wq.Validate(); err != nil {
		return workload.Query{}, err
	}
	return wq, nil
}

func (l Load) validate(where string, m Measure, sw Sweep, q workload.Query) error {
	switch l.Kind {
	case "":
		if m.Kind != MeasureSustainable {
			return fmt.Errorf("%s: measure %q needs a load schedule", where, m.Kind)
		}
	case LoadTableRates:
		if len(l.Pcts) == 0 {
			return fmt.Errorf("%s: table-rates load needs at least one pct", where)
		}
		for _, p := range l.Pcts {
			if p <= 0 {
				return fmt.Errorf("%s: load pct must be positive, got %d", where, p)
			}
		}
		rates := core.PaperRates(q.Type == workload.Join)
		for _, e := range sw.Engines {
			for _, w := range sw.Workers {
				if _, ok := rates[fmt.Sprintf("%s/%d", e, w)]; !ok {
					return fmt.Errorf("%s: no published rate for %s/%d to scale from (use a constant load)", where, e, w)
				}
			}
		}
	case LoadConstant:
		if l.RateEvPerSec <= 0 {
			return fmt.Errorf("%s: constant load needs rate_ev_per_sec > 0", where)
		}
	case LoadSteps:
		if len(l.Steps) == 0 {
			return fmt.Errorf("%s: steps load needs at least one step", where)
		}
		sched := make(generator.StepSchedule, len(l.Steps))
		for i, st := range l.Steps {
			if st.RateEvPerSec < 0 {
				return fmt.Errorf("%s: step %d rate must be >= 0", where, i)
			}
			sched[i] = generator.Step{From: st.From.D(), Rate: st.RateEvPerSec}
		}
		if err := sched.Validate(); err != nil {
			return fmt.Errorf("%s: %w", where, err)
		}
	case LoadFluctuation:
		if l.HighEvPerSec <= 0 || l.LowEvPerSec <= 0 {
			return fmt.Errorf("%s: fluctuation load needs high_ev_per_sec and low_ev_per_sec > 0", where)
		}
	default:
		return fmt.Errorf("%s: unknown load kind %q (%s | %s | %s | %s)",
			where, l.Kind, LoadTableRates, LoadConstant, LoadSteps, LoadFluctuation)
	}
	if m.Kind == MeasureSustainable && l.Kind != "" {
		return fmt.Errorf("%s: the sustainable measure searches for its own rate; drop the load schedule (keys/disorder knobs may stay)", where)
	}
	if l.DisorderProb < 0 || l.DisorderProb > 1 {
		return fmt.Errorf("%s: disorder_prob must be in [0,1], got %v", where, l.DisorderProb)
	}
	if l.DisorderProb > 0 && l.DisorderMax <= 0 {
		return fmt.Errorf("%s: disorder needs a positive disorder_max", where)
	}
	if l.Keys != nil {
		if err := l.Keys.validate(where); err != nil {
			return err
		}
	}
	return nil
}

func (k Keys) validate(where string) error {
	switch k.Kind {
	case "normal", "uniform", "zipf":
		if k.N <= 0 {
			return fmt.Errorf("%s: %s keys need n > 0", where, k.Kind)
		}
		if k.N > tuple.KeyDomain {
			return fmt.Errorf("%s: %s keys need n <= %d (gemPackIDs lie in [0, %d)), got %d",
				where, k.Kind, tuple.KeyDomain, tuple.KeyDomain, k.N)
		}
		if k.Kind == "zipf" && k.S <= 1 {
			return fmt.Errorf("%s: zipf keys need exponent s > 1, got %v", where, k.S)
		}
	case "single":
		if k.Key < 0 || k.Key >= tuple.KeyDomain {
			return fmt.Errorf("%s: single key must be in [0, %d), got %d", where, tuple.KeyDomain, k.Key)
		}
	default:
		return fmt.Errorf("%s: unknown key distribution %q (normal | uniform | zipf | single)", where, k.Kind)
	}
	return nil
}

// build lowers the key spec onto a generator distribution.
func (k Keys) build() generator.KeyDist {
	switch k.Kind {
	case "normal":
		return generator.NormalKeys{N: k.N}
	case "uniform":
		return generator.UniformKeys{N: k.N}
	case "zipf":
		return &generator.ZipfKeys{N: k.N, S: k.S}
	case "single":
		return generator.SingleKey{K: k.Key}
	}
	return nil
}
