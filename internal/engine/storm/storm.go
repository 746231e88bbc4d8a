// Package storm models Apache Storm 1.0.2 as characterised by the paper:
// a tuple-at-a-time engine with spouts and bolts, per-tuple ack overhead,
// fully-buffered (non-incremental) window state inside UDFs with no
// spill-to-disk, an immature backpressure implementation whose bang-bang
// throttling produces a strongly fluctuating pull rate (Figure 9a), and —
// without backpressure — dropped connections to the generator queues under
// overload, which the paper counts as failure.
//
// The buffered UDF window is a cost, not a data structure: the window's
// sums come from the same pane partials every engine folds into
// (window.PaneAggregator), while re-scanning the raw window at trigger
// time is charged as fire debt (fireCostShare of the window's weight) and
// the raw events' heap as a counter (window.BufferedEventBytes per event
// and unfired window), checked against the worker heap.
//
// Behavioural anchors reproduced here, with their source in the paper:
//
//   - Sustainable aggregation throughput 0.40/0.69/0.99M ev/s, ~8% above
//     Spark (Table I): capacity law fitted through those points.
//   - avg/max latency grows with cluster size while Flink's does not
//     (Table II): the throttle oscillation amplitude scales with workers.
//   - No built-in windowed join; the naive nested-loop join sustains only
//     0.14M ev/s on 2 nodes with ~2.3s average latency, and hits "memory
//     issues and topology stalls on larger clusters" (Experiment 2).
//   - Large windows OOM unless the user brings spillable state
//     (Experiment 3): buffered window bytes are checked against the worker
//     heap.
//   - Under single-key skew throughput pins at one executor's capacity,
//     0.2M ev/s, regardless of scale (Experiment 4).
package storm

import (
	"fmt"
	"time"

	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/queue"
	"repro/internal/sim"
	"repro/internal/tuple"
	"repro/internal/window"
)

// Options tune the engine model; zero values mean the paper's settings.
type Options struct {
	// DisableBackpressure reverts to Storm's classic behaviour: spouts
	// never throttle, and overload eventually drops generator
	// connections ("Storm drops some connections to the data queue when
	// tested with high workloads with backpressure disabled").
	DisableBackpressure bool
	// DisableAcking turns off the at-least-once acker path, trading
	// delivery guarantees for ~22% more throughput — the
	// guarantees-vs-performance knob of the paper's future-work section.
	DisableAcking bool
	// SpillableState marks the UDF window state as backed by
	// user-provided spillable data structures ("Storm ... can handle the
	// large window operations if the user has advanced data structures
	// that can spill to disk").
	SpillableState bool
	// WorkerHeapBytes is the per-worker JVM heap available to window
	// state; Storm 1.0's default worker heap is 768 MB.
	WorkerHeapBytes int64
	// GCPauseEvery is the mean interval between JVM GC pauses.
	GCPauseEvery time.Duration
}

func (o Options) withDefaults() Options {
	if o.WorkerHeapBytes <= 0 {
		o.WorkerHeapBytes = 768 << 20
	}
	if o.GCPauseEvery <= 0 {
		o.GCPauseEvery = 35 * time.Second
	}
	return o
}

// Engine implements engine.Engine.
type Engine struct{ opts Options }

// New builds a Storm model.
func New(opts Options) *Engine { return &Engine{opts: opts.withDefaults()} }

// Name implements engine.Engine.
func (e *Engine) Name() string { return "storm" }

// replayRate is the multiple of the normal ingest rate at which un-acked
// records replay after a Storm worker restart: the spout re-emits from the
// source queues with no state to rebuild, bounded only by the acker
// pipeline's headroom over steady state.
const replayRate = 1.5

// Recovery implements engine.Engine: Storm replays the records
// that went un-acked during the outage at replayRate × the normal rate —
// no state snapshot, no lineage, just at-least-once redelivery (the
// paper's §5 record-replay recovery).
func (e *Engine) Recovery() fault.Recovery {
	return fault.Recovery{Kind: fault.RecoveryReplay, ReplayRate: replayRate}
}

// Rescale implements engine.Engine: Storm redistributes executors
// with a topology rebalance — the spouts are paused while tasks move
// (ingestion dark, Stall 0), but with no state snapshot to write the
// pause is far shorter than Flink's savepoint cycle.
func (e *Engine) Rescale() fault.Rescale {
	return fault.Rescale{
		Kind:      fault.RescaleRebalance,
		Base:      time.Second,
		PerWorker: 250 * time.Millisecond,
		Stall:     0,
	}
}

// Calibration constants: each comment names the paper measurement its
// value is fitted to.
var (
	// aggSustainLaw is fitted exactly through Table I: 0.40/0.69/0.99M.
	aggSustainLaw = engine.FitThroughPoints(0.40e6, 0.69e6, 0.99e6)
	// naiveJoinLaw anchors the naive join at 0.14M ev/s on 2 nodes.
	naiveJoinLaw = engine.CapacityLaw{A: 0.077e6, B: 0.1}
	// slotCap is one executor's capacity (Experiment 4: 0.2M ev/s flat).
	slotCap = 0.2e6
	// cpuPerMEvent yields ~80-90% CPU at the sustainable rate on 4 nodes
	// (Figure 10: ~50% more cycles than Flink in total).
	cpuPerMEvent = 76.0
	// fireCostShare is the extra processing debt of evaluating a whole
	// buffered window at trigger time, as a fraction of the window's
	// event weight.
	fireCostShare = 0.12
	// joinFireCostShare is the same for the naive nested-loop join; the
	// quadratic scan makes trigger evaluation far more expensive, which
	// is what put the naive join's average latency at 2.3s on 2 nodes.
	joinFireCostShare = 0.3
	// naiveJoinStallAfter: with ≥4 workers the naive join's pending-tuple
	// and state replication outgrows the heap and the topology stalls
	// (Experiment 2).
	naiveJoinStallAfter = 45 * time.Second
	// dropBacklogSeconds: with backpressure disabled, once the spout's
	// in-flight backlog exceeds this many seconds of processing, workers
	// start timing out and the SUT drops generator connections.
	dropBacklogSeconds = 8.0
)

type job struct {
	*engine.Runtime
	opts Options
	rng  *sim.RNG

	// heap is the modelled heap of the aggregation's buffered UDF
	// windows: window.BufferedEventBytes per event weight and unfired
	// window holding it, released when the window fires.
	heap int64

	sustainLaw engine.CapacityLaw
	// capComp compensates the capacity law for the model's internal
	// overheads (window-fire debt, GC duty cycle) so that the *net*
	// sustainable rate matches the law, which is fitted to the paper's
	// tables.  Computed at deploy from the query's window geometry.
	capComp float64

	// inflight is the spout-to-bolt buffer: pulled-but-unprocessed tuples
	// in arrival order.  It reuses the driver-side queue (unbounded, a
	// one-member group), whose weight accounting is what the bang-bang
	// throttle switches on.
	inflight *queue.Queue
	// processedWM is the event-time frontier of *processed* tuples; the
	// trigger fires on it, not on the ingested watermark.
	processedWM time.Duration
	// debt is outstanding trigger-evaluation work in seconds of cluster
	// capacity, paid off before new tuples are processed.
	debt float64
	// throttled tracks the bang-bang state for hysteresis.
	throttled bool

	transients *engine.Transients
	// margin compensates expected transient loss (see
	// engine.TransientModel) on top of capComp.
	margin float64
}

// Deploy implements engine.Engine.
func (e *Engine) Deploy(k *sim.Kernel, cfg engine.Config) (engine.Job, error) {
	rt, err := engine.NewRuntime(k, cfg, e)
	if err != nil {
		return nil, err
	}
	j := &job{
		Runtime:    rt,
		opts:       e.opts,
		rng:        k.RNG("storm"),
		sustainLaw: aggSustainLaw,
		inflight:   rt.Cfg.ScratchQueue("spout-inflight"),
	}
	j.CPUPerMEvent = cpuPerMEvent
	// Every ingested event is re-scanned at trigger time in each of the
	// size/slide windows holding it (fire debt); that work is paid out of
	// the raw capacity, so the law is scaled up to keep the net rate on
	// the paper's anchors.
	share := fireCostShare
	if j.Join != nil {
		j.sustainLaw = naiveJoinLaw
		share = joinFireCostShare
		if j.Cfg.Cluster.Workers() >= 4 {
			// Experiment 2: "we faced memory issues and topology
			// stalls on larger clusters" with the naive join.
			k.After(naiveJoinStallAfter, func() {
				j.Fail("topology stall: naive windowed-join state and pending tuples exceeded worker memory")
			})
		}
	}
	j.capComp = 1 + share*float64(j.Cfg.Query.Assigner().WindowsPerEvent())
	model := transientsFor(j.Cfg.Cluster.Workers(), e.opts)
	j.transients = engine.NewTransients(model, j.rng, k.Now())
	// Expectation-compensation alone leaves Storm supercritical after a
	// long episode: the bang-bang throttle wastes part of the headroom
	// and the queue drains too slowly.  Extra variance margin keeps the
	// net sustainable rate on the law.
	j.margin = 1 / (1 - 1.1*model.ExpectedLoss())
	return j, nil
}

// Start implements engine.Job.
func (j *job) Start() { j.Runtime.Start(j.tick) }

// transientsFor builds Storm's episode model for an n-worker deployment:
// frequent GC, and executor-imbalance slowdowns whose duration *grows*
// with the cluster — the source of Table II's max latencies growing with
// size (5.7s on 2 nodes to 17.7s on 8).
func transientsFor(n int, opts Options) engine.TransientModel {
	return engine.TransientModel{
		GCMeanInterval: opts.GCPauseEvery,
		GCMinInterval:  3 * time.Second,
		GCPauseMin:     400 * time.Millisecond,
		GCPauseMax:     1200 * time.Millisecond,

		SlowMeanInterval: 26 * time.Second,
		SlowMinInterval:  4 * time.Second,
		SlowBase:         500 * time.Millisecond,
		SlowSpan:         time.Duration((0.5 + 0.3*float64(n)) * float64(time.Second)),
		SlowMajorProb:    0.12,
		SlowMajorFactor:  2 + 0.5*float64(n),
		SlowCapFactor:    0.3,
	}
}

// processingCap returns the bolts' drain rate in events/s this tick.
func (j *job) processingCap(now sim.Time) float64 {
	n := j.Cfg.Cluster.Workers()
	// The fabric bounds the *net* ingest rate; the fire-debt and
	// transient-margin compensation inflate only the internal processing
	// rate, so they apply after the network clamp.
	cap := j.sustainLaw.Cap(n)
	if cap > j.NetCap {
		cap = j.NetCap
	}
	cap = engine.SlotConstraint(cap, slotCap, j.HotKeys.HotShare())
	cap *= j.capComp * j.margin
	if j.opts.DisableAcking {
		// At-most-once: no acker bolts, no per-tuple ack traffic.
		cap *= 1.22
	}
	cap *= j.transients.Factor(now)
	// Processing jitter grows with the cluster: more workers, more acker
	// traffic and executor imbalance.
	jitter := 0.05 + 0.012*float64(n)
	return j.rng.Perturb(cap, jitter)
}

func (j *job) tick(now sim.Time) {
	cap := j.processingCap(now)
	dt := j.Cfg.Tick.Seconds()

	// Pay trigger-evaluation debt first: while the window is being
	// evaluated in bulk the bolts process fewer fresh tuples.
	avail := dt
	if j.debt > 0 {
		pay := j.debt
		if pay > avail*0.7 {
			pay = avail * 0.7
		}
		j.debt -= pay
		avail -= pay
	}

	// Spout pull: bang-bang throttle with hysteresis.  The high/low
	// watermarks are sized in seconds-of-processing; their width is what
	// produces Figure 9a's oscillation.
	hi := int64(cap * 1.6)
	lo := int64(cap * 0.2)
	if hi < 1 {
		hi = 1
	}
	if j.opts.DisableBackpressure {
		j.pull(now, cap*1.25*dt)
		if float64(j.inflight.Weight()) > dropBacklogSeconds*cap && cap > 0 {
			j.Fail("dropped connection to generator queue (overload with backpressure disabled)")
			return
		}
	} else {
		switch {
		case j.throttled && j.inflight.Weight() <= lo:
			j.throttled = false
		case !j.throttled && j.inflight.Weight() >= hi:
			j.throttled = true
		}
		if !j.throttled {
			// Burst: spouts overshoot while unthrottled.
			j.pull(now, cap*1.35*dt)
		}
	}

	// Bolt processing: drain the in-flight buffer at capacity.
	budget := int64(cap * avail)
	var processed int64
	for processed < budget {
		e, ok := j.inflight.Pop()
		if !ok {
			break
		}
		processed += e.Weight
		j.process(&e, now)
	}

	// Trigger: fire windows whose end passed the processed frontier
	// (minus the configured out-of-order slack).
	j.fire(now, cap)
}

// pull ingests up to evBudget real events from the driver queues into the
// spout buffer (copying them out of the runtime's reused pull batch).
func (j *job) pull(now sim.Time, evBudget float64) {
	n := j.TupleBudget(evBudget/j.Cfg.Tick.Seconds(), j.Cfg.EventWeight)
	batch, _ := j.Pull(n, now)
	j.inflight.PushFromBatch(batch)
}

// process routes one tuple into window state and advances the processed
// frontier.
func (j *job) process(e *tuple.Event, now sim.Time) {
	if e.EventTime > j.processedWM {
		j.processedWM = e.EventTime
	}
	if j.Agg != nil {
		j.heap += j.Agg.Add(e) * window.BufferedEventBytes * e.Weight
	} else {
		j.Join.Add(e)
	}
	j.checkMemory(now)
}

// checkMemory enforces the per-worker heap on buffered window state
// (Experiment 3's OOM and Experiment 2's join memory issues).
func (j *job) checkMemory(now sim.Time) {
	if j.opts.SpillableState {
		return
	}
	var state int64
	if j.Agg != nil {
		state = j.heap
	} else {
		state = j.Join.StateBytes()
	}
	perWorker := state / int64(j.Cfg.Cluster.Workers())
	if perWorker > j.opts.WorkerHeapBytes {
		j.Fail(fmt.Sprintf(
			"memory exception: buffered window state %d MB/worker exceeds %d MB worker heap (no spill inside UDFs)",
			perWorker>>20, j.opts.WorkerHeapBytes>>20))
	}
}

// fire evaluates complete windows in bulk, charging the evaluation as
// processing debt so emission is delayed by the work it costs.
func (j *job) fire(now sim.Time, cap float64) {
	wm := j.processedWM - j.Cfg.WatermarkSlack
	if wm < 0 {
		wm = 0
	}
	if j.Agg != nil {
		// Results arrive ordered by window: each window's debt is its
		// summed weight, and its results leave once that debt is paid.
		res := j.Agg.Fire(wm)
		for len(res) > 0 {
			n, weight := 0, int64(0)
			for ; n < len(res) && res[n].Window == res[0].Window; n++ {
				weight += res[n].Agg.Weight
			}
			j.heap -= window.BufferedEventBytes * weight
			if cap > 0 {
				j.debt += fireCostShare * float64(weight) / cap
			}
			emit := now + time.Duration(j.debt*float64(time.Second))
			for _, r := range res[:n] {
				j.EmitAgg(r, emit)
			}
			res = res[n:]
		}
		return
	}
	for _, fw := range j.Join.Fire(wm) {
		// The naive nested-loop evaluation; results are identical to a
		// hash join, only the cost differs, and that cost is charged as
		// fire debt below (joinFireCostShare of the window weight).
		results, _ := window.NestedLoopJoinWindow(fw.Window, fw.Purchases, fw.Ads)
		if cap > 0 {
			j.debt += joinFireCostShare * float64(fw.Weight) / cap
		}
		emit := now + time.Duration(j.debt*float64(time.Second))
		for _, r := range results {
			j.EmitJoin(r, emit)
		}
		j.Join.Recycle(fw)
	}
}

var (
	_ engine.Engine = (*Engine)(nil)
	_ engine.Job    = (*job)(nil)
)
