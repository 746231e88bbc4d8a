// Package driver implements the benchmark driver — the paper's central
// methodological contribution.  The driver is completely separate from the
// system under test: it owns the data generators, the queues between
// generators and SUT sources, and every measurement.  Throughput is
// measured at the queues (ingestion, not output); latency is measured at
// the SUT's sink against the generator's event-time stamps; nothing is
// read from SUT-internal statistics.
//
// The driver also implements the sustainable-throughput search of
// Definition 5: run at a rate, judge divergence of event-time latency and
// driver-queue depth, and bisect.
package driver

import (
	"context"
	"fmt"
	"math/bits"
	"time"

	"repro/internal/broker"
	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/generator"
	"repro/internal/metrics"
	"repro/internal/par"
	"repro/internal/queue"
	"repro/internal/sim"
	"repro/internal/tuple"
	"repro/internal/workload"
)

// Config fully describes one benchmark run.
type Config struct {
	// Seed makes the run reproducible.
	Seed uint64
	// Workers is the SUT cluster size (2, 4 or 8 in the paper).
	Workers int
	// GeneratorInstances is the number of parallel generator/queue pairs
	// (the paper used 16).
	GeneratorInstances int
	// EventsPerTuple is the simulation scale: one simulated tuple stands
	// for this many real events.  Rates and weights are always reported
	// in real events.
	EventsPerTuple int64
	// QueueCapPerInstance bounds each driver queue in real events
	// (0 = unbounded).  An overflow halts the run as a failure.
	QueueCapPerInstance int64
	// Rate is the offered-load schedule in real events/second.
	Rate generator.RateSchedule
	// Keys is the gemPackID distribution (normal in the paper's main
	// experiments, single-key in Experiment 4).
	Keys generator.KeyDist
	// Query is the benchmark query.
	Query workload.Query
	// RunFor is the total virtual duration, including warm-up.
	RunFor time.Duration
	// WarmupFraction of RunFor is excluded from the latency histograms
	// and the sustainability judgement (the paper uses 25% of the input
	// as warm-up).
	WarmupFraction float64
	// SampleEvery is the series sampling interval.
	SampleEvery time.Duration
	// EngineTick overrides the engine scheduling quantum.
	EngineTick time.Duration
	// Sustainability overrides the divergence tolerances.
	Sustainability *metrics.SustainabilityConfig
	// WatermarkSlack holds the engines' windows open for out-of-order
	// input (future-work ablation; 0 reproduces the paper).
	WatermarkSlack time.Duration
	// DisorderProb/DisorderMax inject bounded out-of-order event times
	// at the generator (future-work ablation; 0 reproduces the paper).
	DisorderProb float64
	DisorderMax  time.Duration
	// Faults, when non-nil, is the run's deterministic fault schedule
	// (kill worker i at virtual time t, transient ingestion stalls); the
	// engine runtime scales its source pulls by the schedule's capacity
	// factor.  nil reproduces the paper's fault-free runs exactly.
	Faults *fault.Schedule
	// Rescale, when non-nil, is the run's elastic-rescaling plan: the
	// worker set becomes a function of virtual time, with Workers as the
	// count before the first step.  The cluster is provisioned for the
	// plan's maximum so scale-out never reallocates; each step pays the
	// engine's modeled transition cost.  nil reproduces the static runs
	// exactly.
	Rescale *fault.RescalePlan
	// Broker, when non-nil, interposes a Kafka-style message broker
	// between the generators and the SUT sources instead of the paper's
	// direct driver queues — the Section III-A design-decision ablation.
	Broker *broker.Config
	// EventTap, when non-nil, observes every generated event (used by
	// correctness tests to build the oracle's ground-truth log).  The
	// pointee lives in a recycled generator batch and is valid only for
	// the duration of the call — taps that keep events must copy the
	// value out (`log = append(log, *e)`).
	EventTap func(*tuple.Event)
	// OutputTap, when non-nil, observes every SUT output tuple after the
	// driver has measured it (correctness tests compare these against
	// the oracle).  The pointee lives in the engine runtime's reusable
	// emission scratch and is valid only for the duration of the call —
	// taps that keep outputs must copy the value out.
	OutputTap func(*tuple.Output)
}

// WithDefaults fills unset fields with the evaluation's defaults.
func (c Config) WithDefaults() Config {
	if c.Workers == 0 {
		c.Workers = 2
	}
	if c.GeneratorInstances == 0 {
		c.GeneratorInstances = 16
	}
	if c.EventsPerTuple == 0 {
		// One simulated tuple stands for 20 real events: small enough
		// that per-key event gaps (which Definition 3 exposes as
		// latency) stay close to the real system's, large enough that
		// full-rate runs stay fast.
		c.EventsPerTuple = 20
	}
	if c.Keys == nil {
		// Key cardinality is scaled with the event scale so that the
		// per-key event rate — what the windowed outputs' event-time
		// gaps depend on — matches the paper's 1000-key workload at
		// full rate.
		c.Keys = generator.NormalKeys{N: 100}
	}
	if c.RunFor == 0 {
		c.RunFor = 4 * time.Minute
	}
	if c.WarmupFraction == 0 {
		c.WarmupFraction = 0.25
	}
	if c.SampleEvery == 0 {
		c.SampleEvery = time.Second
	}
	return c
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Rate == nil {
		return fmt.Errorf("driver: rate schedule is required")
	}
	if c.Workers <= 0 {
		return fmt.Errorf("driver: workers must be positive, got %d", c.Workers)
	}
	if c.WarmupFraction < 0 || c.WarmupFraction >= 1 {
		return fmt.Errorf("driver: warmup fraction must be in [0,1), got %v", c.WarmupFraction)
	}
	if err := c.Rescale.Validate(); err != nil {
		return fmt.Errorf("driver: %w", err)
	}
	// Fault targets are bounded by the largest worker set the run ever
	// has: a worker that only exists after a scale-out step is a valid
	// target (its factor is simply unused while it is inactive).
	if err := c.Faults.Validate(c.Rescale.MaxWorkers(c.Workers)); err != nil {
		return fmt.Errorf("driver: %w", err)
	}
	return c.Query.Validate()
}

// Result is everything one run measured.
type Result struct {
	Engine  string
	Workers int
	Config  Config

	// EventLatency and ProcLatency are the post-warm-up latency
	// histograms per Definitions 1 and 2 (Tables II and IV).
	EventLatency *metrics.Histogram
	ProcLatency  *metrics.Histogram

	// EventLatencySeries/ProcLatencySeries are mean latency per sample
	// interval over the whole run (Figures 4, 5, 6, 7, 8).
	EventLatencySeries *metrics.Series
	ProcLatencySeries  *metrics.Series
	// EventLatencyMaxSeries is the per-interval maximum (the spikes in
	// the figures).
	EventLatencyMaxSeries *metrics.Series

	// ThroughputSeries is the SUT's ingestion (pull) rate measured at
	// the queues (Figure 9).
	ThroughputSeries *metrics.Series
	// QueueDepthSeries is the total driver-queue depth in real events.
	QueueDepthSeries *metrics.Series

	// CPU and Net are per-node resource usage series (Figure 10).
	CPU []*metrics.Series
	Net []*metrics.Series

	// Extra carries engine-specific series (Spark's scheduler delay for
	// Figure 11).
	Extra map[string]*metrics.Series

	// Outputs is the number of sink tuples observed (all run).
	Outputs int64
	// OutputWeight is their total real-event weight.
	OutputWeight int64
	// Generated is the total real-event weight offered.
	Generated int64
	// Ingested is the total real-event weight the SUT pulled.
	Ingested int64

	// LateDropped is the number of simulated events the SUT dropped for
	// arriving after their windows had fired (non-zero only with
	// out-of-order input and insufficient watermark slack).
	LateDropped int64

	Failed     bool
	FailReason string

	// Verdict is the Definition 5 judgement at this offered rate.
	Verdict metrics.SustainabilityVerdict
}

// runEndHook, when non-nil, is called once per run after the simulation
// has stopped, with the run's generator, its generator-side queues, the
// broker (nil without one) and the queues the SUT drains (the generator
// queues themselves without a broker).  Only tests set it, to check
// weight conservation; it never touches a Result.
var runEndHook func(gen *generator.Generator, queues *queue.Group, brk *broker.Broker, sources *queue.Group)

// Run executes one benchmark run of the query on the engine.
func Run(eng engine.Engine, cfg Config) (*Result, error) {
	return RunContext(context.Background(), eng, cfg)
}

// RunContext is Run with cancellation: when ctx is cancelled the simulation
// halts at the next sample tick and ctx.Err() is returned instead of a
// result.  Cancellation never yields a partial Result, so it cannot
// perturb determinism of completed runs.  The run draws its components
// from a new Probe that nothing else uses, so the Result stays valid.
func RunContext(ctx context.Context, eng engine.Engine, cfg Config) (*Result, error) {
	return NewProbe().Run(ctx, eng, cfg)
}

// Run executes one benchmark run like RunContext, drawing the kernel,
// cluster, queues, generator, engine arena and metrics storage from the
// probe's arena (see Probe).
func (p *Probe) Run(ctx context.Context, eng engine.Engine, cfg Config) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	cfg = cfg.WithDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := p.components(cfg); err != nil {
		return nil, err
	}
	k, cl, queues := p.k, p.cl, p.queues

	genCfg := generator.Config{
		Instances:      cfg.GeneratorInstances,
		Tick:           10 * time.Millisecond,
		EventsPerTuple: cfg.EventsPerTuple,
		Rate:           cfg.Rate,
		Keys:           cfg.Keys,
		Users:          100_000,
		MaxPrice:       100,
		DisorderProb:   cfg.DisorderProb,
		DisorderMax:    cfg.DisorderMax,
		Tap:            cfg.EventTap,
	}
	if cfg.Query.Type == workload.Join {
		genCfg.AdsShare = 0.3
		genCfg.MatchProb = cfg.Query.Selectivity
	}
	gen, err := p.generatorFor(k, genCfg, queues)
	if err != nil {
		return nil, err
	}

	// Optionally interpose a message broker: the generators then publish
	// into the broker, and the SUT's sources consume the broker's output
	// queues.  Throughput is still measured where the SUT ingests.
	sources := queues
	var brk *broker.Broker
	if cfg.Broker != nil {
		sources = queue.NewGroup("broker-out", cfg.GeneratorInstances, cfg.QueueCapPerInstance)
		brk, err = broker.New(k, *cfg.Broker, queues, sources)
		if err != nil {
			return nil, err
		}
	}

	res := &Result{
		Engine:  eng.Name(),
		Workers: cfg.Workers,
		Config:  cfg,
	}
	p.metricsInto(res)

	warmupEnd := time.Duration(float64(cfg.RunFor) * cfg.WarmupFraction)

	// Per-interval latency accumulators for the series.
	var (
		sumEv, sumProc float64
		maxEv          float64
		nOut           int64
	)
	sink := func(out *tuple.Output) {
		evLat := out.EventTimeLatency()
		procLat := out.ProcTimeLatency()
		res.Outputs++
		res.OutputWeight += out.Weight
		sumEv += evLat.Seconds()
		sumProc += procLat.Seconds()
		if evLat.Seconds() > maxEv {
			maxEv = evLat.Seconds()
		}
		nOut++
		// Histograms exclude warm-up, keyed on emission time.
		if out.EmitTime >= warmupEnd {
			res.EventLatency.Record(evLat)
			res.ProcLatency.Record(procLat)
		}
		if cfg.OutputTap != nil {
			cfg.OutputTap(out)
		}
	}

	job, err := eng.Deploy(k, engine.Config{
		Cluster:        cl,
		Query:          cfg.Query,
		Sources:        sources,
		Sink:           sink,
		Tick:           cfg.EngineTick,
		EventWeight:    cfg.EventsPerTuple,
		WatermarkSlack: cfg.WatermarkSlack,
		Mem:            p.mem,
		Faults:         cfg.Faults,
		Rescale:        cfg.Rescale,
	})
	if err != nil {
		return nil, err
	}

	// Samplers.
	var lastOut int64
	k.Every(cfg.SampleEvery, func(now sim.Time) {
		if nOut > 0 {
			res.EventLatencySeries.Add(now, sumEv/float64(nOut))
			res.ProcLatencySeries.Add(now, sumProc/float64(nOut))
			res.EventLatencyMaxSeries.Add(now, maxEv)
			sumEv, sumProc, maxEv, nOut = 0, 0, 0, 0
		}
		out := sources.TotalOut()
		res.ThroughputSeries.Add(now, float64(out-lastOut)/cfg.SampleEvery.Seconds())
		lastOut = out
		depth := queues.Weight()
		if brk != nil {
			depth += brk.Backlog() + sources.Weight()
		}
		res.QueueDepthSeries.Add(now, float64(depth))
		// A queue overflow means a generator could no longer buffer:
		// halt immediately, as the paper's driver does.
		if queues.Overflowed() || (brk != nil && sources.Overflowed()) {
			k.Halt()
		}
		if failed, _ := job.Failed(); failed {
			k.Halt()
		}
		// Cancellation: virtual sample ticks pass every few wall-clock
		// microseconds, so this bounds the abort latency tightly without
		// touching the per-event hot path.
		if ctx.Err() != nil {
			k.Halt()
		}
	})
	cl.StartRecorder(k, cfg.SampleEvery)

	gen.Start()
	if brk != nil {
		brk.Start()
	}
	job.Start()
	k.Run(cfg.RunFor)
	job.Stop()
	if brk != nil {
		brk.Stop()
	}
	gen.Stop()
	if runEndHook != nil {
		runEndHook(gen, queues, brk, sources)
	}

	if err := ctx.Err(); err != nil {
		return nil, err
	}

	res.Generated = gen.TotalWeight()
	res.Ingested = sources.TotalOut()
	res.LateDropped = job.LateDropped()
	res.CPU = cl.CPUSeries()
	res.Net = cl.NetSeries()
	res.Extra = job.ExtraSeries()

	if failed, reason := job.Failed(); failed {
		res.Failed, res.FailReason = true, reason
	}
	if queues.Overflowed() || (brk != nil && sources.Overflowed()) {
		res.Failed = true
		if res.FailReason == "" {
			res.FailReason = "driver queue overflow: SUT could not keep a connection drained"
		}
	}
	// A SUT that emitted nothing over the whole run, warm-up included, is
	// stalled even if it never reported failure.
	if res.Outputs == 0 {
		res.Failed = true
		if res.FailReason == "" {
			res.FailReason = "SUT emitted no output tuples"
		}
	}

	scfg := metrics.DefaultSustainabilityConfig()
	if cfg.Sustainability != nil {
		scfg = *cfg.Sustainability
	}
	res.Verdict = metrics.JudgeSustainability(
		scfg,
		res.EventLatencySeries.Tail(warmupEnd),
		res.QueueDepthSeries.Tail(warmupEnd),
		res.Generated,
		res.Failed,
		res.FailReason,
	)
	return res, nil
}

// SearchConfig tunes FindSustainableContext.
type SearchConfig struct {
	// Lo and Hi bracket the search in events/second.  Hi should exceed
	// any plausible capacity ("we run each of the systems with a very
	// high generation rate and decrease it").
	Lo, Hi float64
	// Resolution stops the bisection when hi/lo converges below it
	// (e.g. 0.02 = 2%).
	Resolution float64
	// ProbeRunFor shortens probe runs relative to Config.RunFor
	// (0 = use Config.RunFor).
	ProbeRunFor time.Duration
	// ProbeEventsPerTuple coarsens the probes' simulation scale (queue
	// divergence does not need fine-grained latency fidelity); 0 means
	// 200 real events per simulated tuple.
	ProbeEventsPerTuple int64
	// Speculate caps the number of probe simulations launched
	// concurrently per speculative round (see DESIGN-PERF.md §6).  The
	// converged rate and Result are bit-identical for every value: the
	// search always consumes probes in the sequential bisection order and
	// discards mispredicted branches.  0 = adapt to the spare worker
	// capacity (and to GOMAXPROCS); 1 = strictly sequential.
	Speculate int
	// WarmLo/WarmHi, when 0 < WarmLo < WarmHi, seed the bracket from a
	// prior search of the same deployment (widened by the resolution
	// margin and clipped to [Lo, Hi]).  If the prior bracket no longer
	// brackets the answer — its floor probe is unsustainable, or every
	// probe up to its ceiling is sustainable (the true rate may sit
	// above it) — the search falls back to the cold [Lo, Hi] bracket and
	// returns exactly the cold result.  Warm-started searches probe a
	// much narrower bracket, so they are faster but not bit-identical to
	// a cold search — leave both zero where byte-reproducibility matters.
	WarmLo, WarmHi float64
	// Stats, when non-nil, receives the search accounting.
	Stats *SearchStats
}

// SearchStats reports what a sustainable-throughput search did.
type SearchStats struct {
	// Probes is the number of probe verdicts consumed by the bracket
	// walk — identical to the probe count of a sequential bisection.
	Probes int
	// Speculative is the number of probe simulations launched, including
	// mispredicted branches that were discarded.
	Speculative int
	// Rounds is the number of speculative rounds (bracket updates happen
	// Probes times; rounds batch them).
	Rounds int
	// WarmStart reports whether a prior bracket seeded the search (false
	// when the warm floor probe failed and the search fell back cold).
	WarmStart bool
	// FinalLo and FinalHi are the converged bracket: FinalLo is the
	// highest rate judged sustainable, FinalHi the lowest judged not.
	// They are what a warm start feeds back into WarmLo/WarmHi.
	FinalLo, FinalHi float64
}

// WithDefaults fills unset fields.
func (s SearchConfig) WithDefaults() SearchConfig {
	if s.Lo <= 0 {
		s.Lo = 0.02e6
	}
	if s.Hi <= s.Lo {
		s.Hi = 2e6
	}
	if s.Resolution <= 0 {
		s.Resolution = 0.02
	}
	if s.ProbeRunFor > 0 && s.ProbeRunFor < 75*time.Second {
		s.ProbeRunFor = 75 * time.Second
	}
	if s.ProbeEventsPerTuple == 0 {
		s.ProbeEventsPerTuple = 200
	}
	return s
}

// FindSustainableContext bisects for the maximum sustainable throughput
// (Definition 5) of the deployment described by base.  base.Rate is
// ignored; each probe runs at a constant candidate rate.  It returns the
// highest rate judged sustainable and that rate's full Result.  A
// cancelled ctx aborts the bisection mid-probe.
//
// The bisection is speculative (DESIGN-PERF.md §6): each round launches the
// probes of the next few bracket-update steps — the midpoint plus both
// midpoints each verdict could lead to, and so on — concurrently on the
// process worker budget (internal/par), then replays the sequential
// bracket-update rule over the completed verdicts, discarding the branches
// not taken.  Probe seeds depend only on the probe's position in the
// sequential order, so the converged rate and the returned Result are
// bit-identical to a strictly sequential search at any parallelism
// (including GOMAXPROCS=1, where the search degenerates to exactly the
// sequential probe-per-round loop).
func FindSustainableContext(ctx context.Context, eng engine.Engine, base Config, scfg SearchConfig) (float64, *Result, error) {
	if !base.Rescale.Empty() {
		return 0, nil, fmt.Errorf("driver: the sustainable-throughput search assumes a steady worker set; rescale plans are not supported")
	}
	scfg = scfg.WithDefaults()
	base = base.WithDefaults()
	if scfg.ProbeRunFor > 0 {
		base.RunFor = scfg.ProbeRunFor
	}
	base.EventsPerTuple = scfg.ProbeEventsPerTuple
	// A probe must observe several complete windows after warm-up, or a
	// large-window query would be judged "no output" at any rate.
	minRun := time.Duration(float64(base.Query.WindowSize+4*base.Query.WindowSlide) / (1 - base.WarmupFraction))
	if base.RunFor < minRun {
		base.RunFor = minRun
	}

	s := &searcher{ctx: ctx, eng: eng, base: base, scfg: scfg}
	if scfg.Stats != nil {
		defer func() { *scfg.Stats = s.stats }()
	}

	// Warm start: search the (widened, clipped) prior bracket first.  The
	// warm result is only trusted if the bracket still brackets the
	// answer on both sides: the floor probe must be sustainable (the rate
	// did not drift below the bracket) and some probe must have been
	// judged unsustainable (FinalHi moved below the warm ceiling — the
	// rate did not drift above it; a ceiling at the global Hi has nothing
	// above it to miss).  Otherwise fall back to the cold search — probe
	// numbering restarts at zero, making the fallback bit-identical to a
	// search that never warm-started.
	if wlo, whi, ok := warmBracket(scfg); ok {
		rate, res, resProbe, floorOK, err := s.bisect(wlo, whi)
		if err != nil {
			return 0, nil, err
		}
		if floorOK && (s.stats.FinalHi < whi || whi >= scfg.Hi) {
			s.stats.WarmStart = true
			return rate, res, nil
		}
		// The warm result is discarded; its probe arena is free for the
		// cold search to recycle.
		s.pool.release(resProbe)
		s.probeN = 0
	}

	rate, res, _, floorOK, err := s.bisect(scfg.Lo, scfg.Hi)
	if err != nil {
		return 0, nil, err
	}
	if !floorOK {
		// Even the floor rate is unsustainable: report failure via the
		// floor probe's result.
		return 0, res, nil
	}
	return rate, res, nil
}

// warmBracket widens a prior bracket by twice the resolution (the prior
// answer came from a possibly different seed or probe scale) and clips it
// into [Lo, Hi].
func warmBracket(scfg SearchConfig) (float64, float64, bool) {
	if scfg.WarmLo <= 0 || scfg.WarmHi <= scfg.WarmLo {
		return 0, 0, false
	}
	wlo := scfg.WarmLo * (1 - 2*scfg.Resolution)
	whi := scfg.WarmHi * (1 + 2*scfg.Resolution)
	if wlo < scfg.Lo {
		wlo = scfg.Lo
	}
	if whi > scfg.Hi {
		whi = scfg.Hi
	}
	if whi <= wlo {
		return 0, 0, false
	}
	return wlo, whi, true
}

// autoSpeculate is the per-round probe cap when SearchConfig.Speculate is
// 0: a 3-level speculation tree (7 probes resolving 3 bracket steps per
// round) when the worker budget allows it.
const autoSpeculate = 7

// maxSpecLevels bounds the speculation depth: each extra level doubles the
// probe cost of a round but adds only one bracket step of wall-clock win.
const maxSpecLevels = 5

// searcher carries one sustainable-throughput search: the probe context,
// the sequential probe numbering (which fixes each probe's RNG seed), the
// pool of reusable probe run instances, and the accounting.
type searcher struct {
	ctx    context.Context
	eng    engine.Engine
	base   Config
	scfg   SearchConfig
	probeN uint64
	stats  SearchStats
	pool   probePool
}

// probeAt runs one probe simulation at the given rate with the seed of
// sequential probe number n, on a recycled Probe arena from the pool.
// Each probe number gets its own seed so the transient-episode schedule
// is sampled independently; otherwise every probe would dodge (or hit)
// the exact same episodes.  The returned Result lives in the returned
// Probe's arena; the caller owns both until it releases the Probe.
func (s *searcher) probeAt(rate float64, n uint64) (*Result, *Probe, error) {
	cfg := s.base
	cfg.Rate = generator.ConstantRate(rate)
	cfg.Seed = s.base.Seed + n*1_000_003
	p := s.pool.acquire()
	res, err := p.Run(s.ctx, s.eng, cfg)
	if err != nil {
		s.pool.release(p)
		return nil, nil, err
	}
	return res, p, nil
}

// specNode is one node of a round's speculation tree: the bracket the
// sequential search would hold if the path of verdicts leading here were
// taken, and the probe outcome at that bracket's midpoint.  Children: index
// 2i+1 is the "unsustainable" branch (hi=mid), 2i+2 the "sustainable"
// branch (lo=mid).
type specNode struct {
	lo, hi   float64
	live     bool
	consumed bool
	res      *Result
	probe    *Probe
	err      error
}

// roundLevels returns how many bracket steps the next round speculates
// across, sized so the full tree (2^levels - 1 probes) fits the per-round
// cap and the currently spare worker capacity.
func (s *searcher) roundLevels() int {
	budget := s.scfg.Speculate
	if budget <= 0 {
		budget = autoSpeculate
	}
	if spare := par.Spare() + 1; budget > spare {
		budget = spare
	}
	levels := bits.Len(uint(budget+1)) - 1
	if levels < 1 {
		levels = 1
	}
	if levels > maxSpecLevels {
		levels = maxSpecLevels
	}
	return levels
}

// converged is the bisection's termination predicate on a bracket.
func (s *searcher) converged(lo, hi float64) bool {
	return hi-lo <= s.scfg.Resolution*hi
}

// bisect runs the (speculative) bisection over [lo, hi].  It returns the
// converged rate, its Result and the Probe arena holding that Result,
// with floorOK=false when the floor probe at lo was judged unsustainable
// (res then is the floor probe's Result).  Probes whose results are
// discarded along the way — mispredicted speculation branches, consumed
// unsustainable verdicts, replaced bests — are released back to the pool
// for the next round to recycle.
func (s *searcher) bisect(lo, hi float64) (float64, *Result, *Probe, bool, error) {
	loRes, loProbe, err := s.probeAt(lo, s.probeN)
	s.stats.Speculative++
	if err != nil {
		return 0, nil, nil, false, err
	}
	s.probeN++
	s.stats.Probes++
	if !loRes.Verdict.Sustainable {
		s.stats.FinalLo, s.stats.FinalHi = 0, lo
		return 0, loRes, loProbe, false, nil
	}
	best, bestRes, bestProbe := lo, loRes, loProbe

	for !s.converged(lo, hi) {
		s.stats.Rounds++
		nodes := s.buildTree(lo, hi, s.roundLevels())
		s.launch(nodes)

		// Replay the sequential bracket-update rule over the verdicts.
		idx := 0
		for idx < len(nodes) && nodes[idx].live && !s.converged(lo, hi) {
			nd := &nodes[idx]
			if nd.err != nil {
				return 0, nil, nil, false, nd.err
			}
			nd.consumed = true
			s.probeN++
			s.stats.Probes++
			mid := (lo + hi) / 2
			if nd.res.Verdict.Sustainable {
				s.pool.release(bestProbe)
				lo, best, bestRes, bestProbe = mid, mid, nd.res, nd.probe
				idx = 2*idx + 2
			} else {
				s.pool.release(nd.probe)
				hi = mid
				idx = 2*idx + 1
			}
		}
		// Mispredicted (launched but never consumed) branches are dead:
		// recycle their arenas.
		for i := range nodes {
			if !nodes[i].consumed {
				s.pool.release(nodes[i].probe)
			}
		}
	}
	s.stats.FinalLo, s.stats.FinalHi = best, hi
	return best, bestRes, bestProbe, true, nil
}

// buildTree lays out the round's speculation tree in heap order.  A node is
// live when the sequential search could actually reach it: its bracket is
// not yet converged (a converged bracket ends the walk, so its subtree can
// never be consumed and is pruned from launching).
func (s *searcher) buildTree(lo, hi float64, levels int) []specNode {
	nodes := make([]specNode, 1<<levels-1)
	nodes[0] = specNode{lo: lo, hi: hi, live: true}
	for i := range nodes {
		if !nodes[i].live || 2*i+2 >= len(nodes) {
			continue
		}
		mid := (nodes[i].lo + nodes[i].hi) / 2
		if !s.converged(nodes[i].lo, mid) {
			nodes[2*i+1] = specNode{lo: nodes[i].lo, hi: mid, live: true}
		}
		if !s.converged(mid, nodes[i].hi) {
			nodes[2*i+2] = specNode{lo: mid, hi: nodes[i].hi, live: true}
		}
	}
	return nodes
}

// launch probes every live tree node concurrently on the worker budget.  A
// node at tree depth d holds the probe the sequential search would run d
// steps from now, so it uses sequential probe number probeN+d — siblings
// share the number (only one of them will be consumed).
func (s *searcher) launch(nodes []specNode) {
	idxs := make([]int, 0, len(nodes))
	for i := range nodes {
		if nodes[i].live {
			idxs = append(idxs, i)
		}
	}
	s.stats.Speculative += len(idxs)
	base := s.probeN
	par.Run(s.ctx, len(idxs), func(j int) {
		i := idxs[j]
		depth := uint64(bits.Len(uint(i+1)) - 1)
		rate := (nodes[i].lo + nodes[i].hi) / 2
		nodes[i].res, nodes[i].probe, nodes[i].err = s.probeAt(rate, base+depth)
	})
	// A cancelled ctx leaves unclaimed nodes without a result; surface
	// the cancellation where the walk consumes them.
	if err := s.ctx.Err(); err != nil {
		for _, i := range idxs {
			if nodes[i].res == nil && nodes[i].err == nil {
				nodes[i].err = err
			}
		}
	}
}
