// Package generator implements the paper's distributed data generator
// (Section III-A): events are created on the fly — never read from a
// message broker — by parallel instances, each co-located with its driver
// queue, stamping every event with its event-time at the moment of
// creation and producing at a configured, constant (or scheduled) rate.
//
// "Before each experiment we benchmarked and distributed our data generator
// such that the data generation rate is faster than the data ingestion rate
// of the fastest system" — in the simulation this holds by construction:
// generation is a rate schedule, never CPU-bound.  The simulator goes one
// step further: the drawn columns of each stream are made once per process
// on a shared draw tape (tape.go) and replayed by every run on that
// stream, byte for byte what drawing them per run would yield.
package generator

import (
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/queue"
	"repro/internal/sim"
	"repro/internal/tuple"
)

// RateSchedule yields the aggregate generation rate (real events/second)
// at a point in virtual time.  Constant for most experiments; stepped for
// the fluctuating-workload experiment (Experiment 5).
type RateSchedule interface {
	RateAt(t time.Duration) float64
}

// ConstantRate is a fixed events/second schedule.
type ConstantRate float64

// RateAt implements RateSchedule.
func (c ConstantRate) RateAt(time.Duration) float64 { return float64(c) }

// Step is one segment of a stepped schedule.
type Step struct {
	From time.Duration
	Rate float64
}

// StepSchedule changes rate at fixed points: the paper's Experiment 5
// "start[s] the benchmark with a workload of 0.84M/s then decrease[s] it to
// 0.28M/s and increase[s] again after a while".  Steps must be ordered by
// strictly increasing From; Validate enforces this and is called when the
// schedule enters a generator config.
type StepSchedule []Step

// Validate checks that the steps are strictly ordered by From, which is
// what RateAt's binary search relies on.
func (s StepSchedule) Validate() error {
	for i := 1; i < len(s); i++ {
		if s[i].From <= s[i-1].From {
			return fmt.Errorf("generator: step schedule not strictly ordered: step %d at %v after step %d at %v",
				i, s[i].From, i-1, s[i-1].From)
		}
	}
	return nil
}

// RateAt returns the rate of the last step at or before t, or 0 before the
// first step.  It is called once per generated tick, so it binary-searches
// the (ordered) steps instead of scanning them.
func (s StepSchedule) RateAt(t time.Duration) float64 {
	// First step strictly after t; the one before it governs.
	i := sort.Search(len(s), func(i int) bool { return s[i].From > t })
	if i == 0 {
		return 0
	}
	return s[i-1].Rate
}

// PaperFluctuation is the Experiment 5 schedule scaled over a run of the
// given duration: high for the first third, low for the middle, high again
// for the rest.
func PaperFluctuation(runFor time.Duration, high, low float64) StepSchedule {
	return StepSchedule{
		{From: 0, Rate: high},
		{From: runFor / 3, Rate: low},
		{From: 2 * runFor / 3, Rate: high},
	}
}

// KeyDist draws gemPackID values, which lie in [0, tuple.KeyDomain):
// Config.Validate rejects a distribution this package defines whose range
// passes the bound, and the draw tape panics on any other distribution's
// first key outside it.
type KeyDist interface {
	Next(r *sim.RNG) int64
	// Cardinality returns the number of distinct keys the distribution
	// can produce.
	Cardinality() int
}

// NormalKeys approximates the paper's "events with normal distribution on
// key field": keys are drawn from N(n/2, n/6) clamped to [0, n).
type NormalKeys struct{ N int }

// Next implements KeyDist.
func (d NormalKeys) Next(r *sim.RNG) int64 {
	v := int64(r.Normal(float64(d.N)/2, float64(d.N)/6))
	if v < 0 {
		v = 0
	}
	if v >= int64(d.N) {
		v = int64(d.N) - 1
	}
	return v
}

// Cardinality implements KeyDist.
func (d NormalKeys) Cardinality() int { return d.N }

// UniformKeys draws keys uniformly from [0, n).
type UniformKeys struct{ N int }

// Next implements KeyDist.
func (d UniformKeys) Next(r *sim.RNG) int64 { return int64(r.Intn(d.N)) }

// Cardinality implements KeyDist.
func (d UniformKeys) Cardinality() int { return d.N }

// ZipfKeys draws keys Zipf-distributed with exponent S over [0, n).
//
// A ZipfKeys literal in a config may be shared by concurrently executing
// runs; the generator therefore never samples through the shared instance.
// Each draw tape calls bound() to get its own sampler, initialized
// explicitly at construction (the sampler itself is a pure function of
// (N, S) plus the RNG passed per draw, so nothing run-specific leaks
// between runs).  Tapes key a Zipf by (N, S), so literals that agree
// share one stream.
type ZipfKeys struct {
	N int
	S float64
	z *sim.Zipf
}

// bound returns a per-run copy with its sampler constants precomputed.
func (d *ZipfKeys) bound() KeyDist {
	return &ZipfKeys{N: d.N, S: d.S, z: sim.NewZipf(d.N, d.S)}
}

// Next implements KeyDist.  Direct (non-generator) callers on a fresh
// literal hit the lazy branch, which only derives pure constants — the
// random stream always comes from r.
func (d *ZipfKeys) Next(r *sim.RNG) int64 {
	if d.z == nil {
		d.z = sim.NewZipf(d.N, d.S)
	}
	return int64(d.z.Next(r))
}

// Cardinality implements KeyDist.
func (d *ZipfKeys) Cardinality() int { return d.N }

// boundKeyDist is the optional KeyDist extension implemented by
// distributions that carry sampler state.  Each draw tape rebinds any such
// distribution, so a config shared by concurrently executing runs never
// shares sampler state; a new stateful KeyDist only has to implement
// bound() to get the same protection.
type boundKeyDist interface {
	bound() KeyDist
}

// SingleKey produces only key K: the "extreme skew, namely ... data of a
// single key" of Experiment 4.
type SingleKey struct{ K int64 }

// Next implements KeyDist.
func (d SingleKey) Next(*sim.RNG) int64 { return d.K }

// Cardinality implements KeyDist.
func (d SingleKey) Cardinality() int { return 1 }

// Config parameterises a generator fleet.
type Config struct {
	// Instances is the number of parallel generator instances (16 in the
	// paper), one per driver queue.
	Instances int
	// Tick is how often each instance flushes newly generated events into
	// its queue.  Event times are spread uniformly inside the tick, so
	// the generation process is effectively continuous.
	Tick time.Duration
	// EventsPerTuple is the real-event weight of one simulated event.
	EventsPerTuple int64
	// Rate is the aggregate generation schedule (real events/second
	// across all instances).
	Rate RateSchedule
	// Keys draws the gemPackID field.
	Keys KeyDist
	// Users is the userID cardinality.
	Users int
	// AdsShare is the fraction of generated events that belong to the
	// ADS stream (0 for aggregation-only workloads).
	AdsShare float64
	// MatchProb is the probability that a generated ad copies the
	// (userID, gemPackID) of a recent purchase, which is what makes it
	// joinable within the window — the join selectivity knob.
	MatchProb float64
	// MaxPrice bounds the purchase price field: prices are drawn from
	// [1, MaxPrice], and 0 means 100.
	MaxPrice int64
	// DisorderProb is the probability that an event is emitted with its
	// event time shifted into the past (out-of-order input, the paper's
	// future-work "out-of-order and late arriving data management").
	DisorderProb float64
	// DisorderMax bounds the backward shift.
	DisorderMax time.Duration
	// Tap, when non-nil, observes every generated event just before it
	// is enqueued.  Tests use it to capture the ground-truth event log
	// for the oracle.  The pointee is only valid for the duration of the
	// call: events are staged in a recycled batch, so observers that keep
	// events must copy the value out.
	Tap func(*tuple.Event)
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Instances <= 0 {
		return fmt.Errorf("generator: need at least one instance, got %d", c.Instances)
	}
	if c.Tick <= 0 {
		return fmt.Errorf("generator: tick must be positive, got %v", c.Tick)
	}
	if c.EventsPerTuple <= 0 {
		return fmt.Errorf("generator: events-per-tuple must be positive, got %d", c.EventsPerTuple)
	}
	if c.Rate == nil {
		return fmt.Errorf("generator: rate schedule is required")
	}
	if v, ok := c.Rate.(interface{ Validate() error }); ok {
		if err := v.Validate(); err != nil {
			return err
		}
	}
	if c.Keys == nil {
		return fmt.Errorf("generator: key distribution is required")
	}
	// Keys lie in [0, tuple.KeyDomain).  A distribution this package does
	// not define is checked as its keys are drawn (checkedKeys).
	switch d := c.Keys.(type) {
	case SingleKey:
		if d.K < 0 || d.K >= tuple.KeyDomain {
			return fmt.Errorf("generator: single key must be in [0, %d), got %d", tuple.KeyDomain, d.K)
		}
	case NormalKeys, UniformKeys, *ZipfKeys:
		if n := d.Cardinality(); n > tuple.KeyDomain {
			return fmt.Errorf("generator: key distribution may draw at most %d keys, got n=%d", tuple.KeyDomain, n)
		}
	}
	// The draw tape stores users in 32 bits and prices in 16.
	if c.Users <= 0 || c.Users > math.MaxInt32 {
		return fmt.Errorf("generator: users must be in [1, %d], got %d", math.MaxInt32, c.Users)
	}
	if c.MaxPrice > math.MaxUint16 {
		return fmt.Errorf("generator: max price must be at most %d, got %d", math.MaxUint16, c.MaxPrice)
	}
	if c.AdsShare < 0 || c.AdsShare >= 1 {
		return fmt.Errorf("generator: ads share must be in [0,1), got %v", c.AdsShare)
	}
	if c.MatchProb < 0 || c.MatchProb > 1 {
		return fmt.Errorf("generator: match probability must be in [0,1], got %v", c.MatchProb)
	}
	if c.DisorderProb < 0 || c.DisorderProb > 1 {
		return fmt.Errorf("generator: disorder probability must be in [0,1], got %v", c.DisorderProb)
	}
	if c.DisorderProb > 0 && c.DisorderMax <= 0 {
		return fmt.Errorf("generator: disorder needs a positive max shift")
	}
	return nil
}

// Generator drives a fleet of instances on a simulation kernel.  Its
// drawn columns come from the process's draw tape of its stream (tape.go);
// the generator itself keeps only its read position there.
type Generator struct {
	cfg    Config
	k      *sim.Kernel
	queues *queue.Group
	cur    cursor

	// carry accumulates the fractional tuple budget between ticks so the
	// long-run rate is exact even when rate·tick/weight is not integral.
	carry float64

	// pool recycles the per-tick staging batch; staging lets the Tap see
	// the whole tick's events with stable addresses before they are
	// scattered into the per-instance queues.
	pool *tuple.BatchPool

	totalWeight int64
	ticker      *sim.Ticker
	stopped     bool
}

// New wires a generator fleet to its driver queues.  One instance feeds one
// queue; cfg.Instances must equal queues.Size().
func New(k *sim.Kernel, cfg Config, queues *queue.Group) (*Generator, error) {
	g := &Generator{}
	if err := g.Rebind(k, cfg, queues); err != nil {
		return nil, err
	}
	return g, nil
}

// Rebind resets a generator fleet for a fresh run on a (reset) kernel; it
// is the one reset path, and New is an empty Generator plus Rebind.  A
// rebound generator keeps its batch-pool slabs and private draw buffers
// and behaves bit-identically to a new one: it reads its stream's tape,
// keyed by the kernel's seed, from row 0, and the fractional-rate carry
// restarts at zero.  Probe arenas (driver.Probe) use this between
// bisection probes.
func (g *Generator) Rebind(k *sim.Kernel, cfg Config, queues *queue.Group) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	if queues.Size() != cfg.Instances {
		return fmt.Errorf("generator: %d instances need %d queues, got %d",
			cfg.Instances, cfg.Instances, queues.Size())
	}
	if g.pool == nil {
		g.pool = tuple.NewBatchPool(1024)
	}
	g.cfg, g.k, g.queues = cfg, k, queues
	g.cur.reset(tapes.tapeFor(k.Seed(), cfg))
	g.carry, g.totalWeight, g.ticker, g.stopped = 0, 0, nil, false
	return nil
}

// Start begins generation.  Events generated in (t-tick, t] are flushed at
// t with event times spread across the interval.
func (g *Generator) Start() {
	g.ticker = g.k.Every(g.cfg.Tick, g.tick)
}

// Stop ceases generation.
func (g *Generator) Stop() {
	g.stopped = true
	if g.ticker != nil {
		g.ticker.Stop()
	}
}

// TotalWeight returns the cumulative real-event weight generated.
func (g *Generator) TotalWeight() int64 { return g.totalWeight }

// tick generates this interval's events and distributes them round-robin
// over the instance queues.
//
// The tick fills the staging batch column by column: the draw-free columns
// (event time, weight, ingest time) are bulk-filled with tight vector
// loops, and the RNG-derived columns are copied from the stream's draw
// tape, which drew them in strict row order — the per-event draw sequence
// is part of the artifacts' bit identity (goldens, distributed smoke).
// TestGeneratorDrawOrder pins this.
func (g *Generator) tick(now sim.Time) {
	if g.stopped {
		return
	}
	intervalStart := now - g.cfg.Tick
	rate := g.cfg.Rate.RateAt(intervalStart)
	if rate <= 0 {
		return
	}
	budget := rate*g.cfg.Tick.Seconds()/float64(g.cfg.EventsPerTuple) + g.carry
	n := int(budget)
	g.carry = budget - float64(n)
	if n == 0 {
		return
	}
	// Stage the tick's events in a recycled batch, then scatter them
	// round-robin over the instance queues.  The batch is the only event
	// storage the generator ever allocates; Scatter copies column
	// segments into the queue rings.
	batch := g.pool.Get()
	cols := batch.Extend(n)
	// Event times increase within the tick (per-instance streams are in
	// order, which keeps watermarks simple, matching the paper's in-order
	// generation).  The float expression is kept identical to the
	// historical per-row computation so event times stay bit-equal.
	span := float64(g.cfg.Tick)
	nf := float64(n)
	for i := range cols.EventTime {
		cols.EventTime[i] = intervalStart + time.Duration((float64(i)+0.5)/nf*span)
	}
	w := g.cfg.EventsPerTuple
	for i := range cols.Weight {
		cols.Weight[i] = w
	}
	// Ingest time is stamped by the SUT at pull; events leave the
	// generator with a zero column (Extend exposes stale slab content).
	for i := range cols.IngestTime {
		cols.IngestTime[i] = 0
	}
	g.cur.read(cols)
	if g.cfg.Tap != nil {
		for i := 0; i < n; i++ {
			e := cols.Row(i)
			g.cfg.Tap(&e)
		}
	}
	g.queues.Scatter(batch) // overflow is detected by the driver via Overflowed()
	g.totalWeight += int64(n) * w
	g.pool.Put(batch)
}
