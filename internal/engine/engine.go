// Package engine defines the SPI every simulated stream processing engine
// implements, plus the one deployment scaffold (Runtime, built by
// NewRuntime) every engine model embeds: a tick-driven ingestion loop over
// the driver queues, the engine's cost models and the query's window
// state, watermark tracking, capacity laws calibrated against the paper's
// measurements, hot-key tracking for the skew experiment, and output
// emission helpers that apply the paper's Definitions 3/4 provenance.
//
// The engine models (subpackages storm, spark, flink) are behavioural
// simulations, not reimplementations of the JVM systems: each one
// reproduces the architectural mechanisms the paper identifies as the cause
// of its measured behaviour — micro-batch scheduling and blocking stages in
// Spark, immature bang-bang backpressure and fully-buffered windows in
// Storm, operator chaining, incremental aggregation and credit-based flow
// control in Flink.  The substitution rests on two things: those
// mechanisms, and capacity laws fitted to the paper's measured sustainable
// throughputs (Tables I and III; see each model's calibration constants).
package engine

import (
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/fault"
	"repro/internal/metrics"
	"repro/internal/queue"
	"repro/internal/sim"
	"repro/internal/tuple"
	"repro/internal/window"
	"repro/internal/workload"
)

// Sink receives every output tuple the SUT emits.  The driver installs a
// sink that measures latency per Definitions 1 and 2; nothing is measured
// inside the engine itself.  The pointee lives in the runtime's reusable
// emission scratch and is valid only for the duration of the call: sinks
// that keep outputs must copy the value out.
type Sink func(out *tuple.Output)

// Config is what a deployment needs besides the engine itself.
type Config struct {
	// Cluster is the hardware model the job runs on.
	Cluster *cluster.Cluster
	// Query is the benchmark query to run.
	Query workload.Query
	// Sources are the driver-side queues the job's source operators pull
	// from.
	Sources *queue.Group
	// Sink receives output tuples.
	Sink Sink
	// Tick is the engine scheduling quantum; 10ms by default.
	Tick time.Duration
	// EventWeight is the real-event weight of one simulated tuple
	// (driver.Config.EventsPerTuple); capacity budgets divide by it.
	EventWeight int64
	// WatermarkSlack holds windows open for out-of-order input: the
	// firing watermark trails the maximum observed event time by this
	// much.  Zero reproduces the paper's in-order deployments; non-zero
	// is the "out-of-order and late arriving data management" knob of
	// the paper's future-work section, exercised by the disorder and
	// broker ablations.
	WatermarkSlack time.Duration
	// Mem is the deployment's recycled-state arena: the engine draws its
	// runtime, window state and scratch queues from it.  A driver.Probe
	// passes the same Mem to every Deploy it runs, so those survive
	// between its runs with their grown capacity; WithDefaults fills a
	// nil Mem with a new, empty arena.
	Mem *Mem
	// Faults, when non-nil, is the run's deterministic fault schedule:
	// the runtime scales every source pull by the schedule's capacity
	// factor at the current virtual time, so a killed worker or a
	// transient stall throttles ingestion without any engine model
	// knowing faults exist.  nil is the fault-free run.
	Faults *fault.Schedule
	// Rescale, when non-nil, is the run's elastic-rescaling plan: the
	// runtime switches the cluster's active worker count at each step's
	// virtual time and pays the engine's modeled transition cost
	// (Engine.Rescale) by stalling ingestion for the transition window.
	// nil is the static, rescale-free run; the cluster must be
	// provisioned for the plan's maximum worker count.
	Rescale *fault.RescalePlan
}

// Mem is the per-probe arena of engine state that survives between runs:
// the Runtime (with its pull batch, hot-key counts and fault vector), the
// window operator pool, and named scratch queues.  A Mem must only ever be used
// by one run at a time; driver.Probe enforces that by construction.
type Mem struct {
	rt      *Runtime
	windows window.Pool
	queues  map[string]*queue.Queue
}

// NewMem returns an empty arena.
func NewMem() *Mem { return &Mem{queues: make(map[string]*queue.Queue)} }

// ScratchQueue returns an empty unbounded queue for engine-internal
// buffering (e.g. Storm's spout in-flight buffer), recycled from the
// arena so its grown log survives across runs.
func (c Config) ScratchQueue(name string) *queue.Queue {
	q, ok := c.Mem.queues[name]
	if !ok {
		q = queue.New(name, 0)
		c.Mem.queues[name] = q
	} else {
		q.Reset()
	}
	return q
}

// WithDefaults fills unset fields.
func (c Config) WithDefaults() Config {
	if c.Tick <= 0 {
		c.Tick = 10 * time.Millisecond
	}
	if c.EventWeight <= 0 {
		c.EventWeight = 1
	}
	if c.Mem == nil {
		c.Mem = NewMem()
	}
	return c
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Cluster == nil {
		return fmt.Errorf("engine: cluster is required")
	}
	if c.Sources == nil || c.Sources.Size() == 0 {
		return fmt.Errorf("engine: at least one source queue is required")
	}
	if c.Sink == nil {
		return fmt.Errorf("engine: sink is required")
	}
	return c.Query.Validate()
}

// Engine deploys jobs.
type Engine interface {
	// Name is the engine's display name ("storm", "spark", "flink").
	Name() string
	// Deploy builds and wires a job on the kernel.  The job does not
	// start pulling until Start is called.  Every model builds its job
	// on NewRuntime, which binds the two cost models below.
	Deploy(k *sim.Kernel, cfg Config) (Job, error)
	// Recovery is the engine's state-recovery cost model.  NewRuntime
	// binds it to every deployment, and the scenario layer derives the
	// per-engine restore metrics of the recovery-series measure from it
	// without deploying anything, so the derived metrics and the
	// injected restore tails always agree.
	Recovery() fault.Recovery
	// Rescale is the engine's elastic-rescaling cost model, bound and
	// derived the same way: the transition metrics of the
	// recovery-series measure and the injected transition stalls come
	// from the one model.
	Rescale() fault.Rescale
}

// Job is one running benchmark query on one engine.  The Runtime every
// model embeds implements all of it but Start.
type Job interface {
	// Start begins ingestion and processing.
	Start()
	// Stop halts the job.
	Stop()
	// Failed reports whether the SUT failed (topology stall, memory
	// exhaustion, dropped generator connections) and why.  The paper
	// treats any of these as "cannot sustain the given throughput".
	Failed() (bool, string)
	// ExtraSeries exposes engine-internal time series that specific
	// figures need (e.g. Spark's scheduler delay for Figure 11).  Keys
	// are series names; may be empty, never nil entries.
	ExtraSeries() map[string]*metrics.Series
	// LateDropped returns the number of simulated (event, window)
	// contributions dropped because they arrived after every window
	// containing them had fired.
	LateDropped() int64
}

// CapacityLaw models an engine's CPU-side sustainable processing rate as a
// function of worker count:
//
//	cap(n) = A·n / (1 + B·(n-1) + C·(n-1)²)   [real events/second]
//
// A is per-node base capacity; B and C capture coordination overhead that
// grows with the cluster (acker traffic in Storm, driver-centric scheduling
// in Spark, shuffle fan-in in both).  The constants of each engine model
// are fitted so the law passes through the paper's three measured points
// (Tables I and III); the law then also extrapolates to unmeasured sizes.
type CapacityLaw struct {
	A, B, C float64
}

// Cap evaluates the law at n workers.
func (l CapacityLaw) Cap(n int) float64 {
	if n <= 0 {
		return 0
	}
	x := float64(n - 1)
	return l.A * float64(n) / (1 + l.B*x + l.C*x*x)
}

// FitThroughPoints fits the law exactly through measurements at n=2, 4, 8
// (the paper's cluster sizes).  It solves the 3×3 linear system for A, B, C
// given cap(2)=c2, cap(4)=c4, cap(8)=c8.
func FitThroughPoints(c2, c4, c8 float64) CapacityLaw {
	// From cap(2)=c2: 2A = c2(1 + B + C)        → A = c2(1+B+C)/2
	// Substituting into the n=4 and n=8 equations yields two linear
	// equations in B and C:
	//   (2c2 - 3c4)B + (2c2 - 9c4)C = c4 - 2c2     … wait, derive cleanly:
	//   4A = c4(1 + 3B + 9C)  → 2c2(1+B+C) = c4(1+3B+9C)
	//     → (2c2-3c4)B + (2c2-9c4)C = c4 - 2c2
	//   8A = c8(1 + 7B + 49C) → 4c2(1+B+C) = c8(1+7B+49C)
	//     → (4c2-7c8)B + (4c2-49c8)C = c8 - 4c2
	a1, b1, r1 := 2*c2-3*c4, 2*c2-9*c4, c4-2*c2
	a2, b2, r2 := 4*c2-7*c8, 4*c2-49*c8, c8-4*c2
	det := a1*b2 - a2*b1
	var B, C float64
	if det != 0 {
		B = (r1*b2 - r2*b1) / det
		C = (a1*r2 - a2*r1) / det
	}
	A := c2 * (1 + B + C) / 2
	return CapacityLaw{A: A, B: B, C: C}
}

// HotKeyTracker estimates, from the events an engine actually ingests, the
// load share of the hottest grouping key.  Engines use it to model the
// keyed-exchange constraint of Experiment 4: in Storm and Flink "the
// performance of the system is bounded by the performance of a single slot"
// because one key maps to one operator instance.  Counts decay
// periodically (Runtime.Pull halves them every 1,000 pulled tuples) so the
// estimate follows the workload.
//
// Keys lie in [0, tuple.KeyDomain), so the counts live in a slice indexed
// by key, next to the list of keys holding a count: Observe is one slice
// update, and Decay and Reset touch only the held keys.  The steady state
// allocates nothing.
type HotKeyTracker struct {
	counts []int64 // by key; zero for every key not in held
	held   []int32 // keys with a non-zero count
	total  int64
	hot    int64
}

// NewHotKeyTracker returns an empty tracker.
func NewHotKeyTracker() *HotKeyTracker {
	return &HotKeyTracker{}
}

// Reset empties the tracker, keeping grown capacity.
func (t *HotKeyTracker) Reset() {
	for _, k := range t.held {
		t.counts[k] = 0
	}
	t.held = t.held[:0]
	t.total, t.hot = 0, 0
}

// Observe folds one ingested event's key in; weight must not be negative.
func (t *HotKeyTracker) Observe(key int64, weight int64) {
	if uint64(key) >= uint64(len(t.counts)) {
		t.counts = tuple.GrowToKey(t.counts, key)
	}
	c := &t.counts[key]
	if *c == 0 && weight != 0 {
		t.held = append(t.held, int32(key))
	}
	*c += weight
	t.total += weight
	if *c > t.hot {
		t.hot = *c
	}
}

// HotShare returns the hottest key's fraction of observed load, in [0,1].
// Returns 0 before any observation.
func (t *HotKeyTracker) HotShare() float64 {
	if t.total == 0 {
		return 0
	}
	return float64(t.hot) / float64(t.total)
}

// Decay halves all counts, dropping keys whose count reaches zero, so the
// estimate tracks workload changes.  Called periodically by the engines.
func (t *HotKeyTracker) Decay() {
	t.total = 0
	t.hot = 0
	held := t.held[:0]
	for _, k := range t.held {
		c := t.counts[k] / 2
		t.counts[k] = c
		if c == 0 {
			continue
		}
		held = append(held, k)
		t.total += c
		t.hot = max(t.hot, c)
	}
	t.held = held
}

// SlotConstraint returns the effective capacity of a keyed operator given
// the engine's whole-cluster capacity, one slot's capacity, and the hot
// key's load share: the hot key's slot must absorb hotShare of the total
// rate, so rate ≤ slotCap/hotShare.  With a balanced key distribution
// (hotShare→0) the constraint vanishes.
func SlotConstraint(clusterCap, slotCap, hotShare float64) float64 {
	if hotShare <= 0 {
		return clusterCap
	}
	bound := slotCap / hotShare
	if bound < clusterCap {
		return bound
	}
	return clusterCap
}
