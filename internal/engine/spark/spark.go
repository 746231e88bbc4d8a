// Package spark models Spark Streaming 2.0.1 as characterised by the
// paper: a micro-batch engine whose DStream is a sequence of RDDs, with a
// receiver that writes incoming events into blocks (block interval →
// partition count), a centralised DAG scheduler that turns every batch
// into a job of blocking stages, and a rate controller whose reaction time
// is "in the order of job stage execution time" rather than per tuple.
//
// Behavioural anchors reproduced here, with their source in the paper:
//
//   - Sustainable throughput ~8% below Storm and well below Flink
//     (Table I: 0.38/0.64/0.91M ev/s agg; Table III: 0.36/0.63/0.94M join):
//     capacity laws fitted through those points; the engine sustains a rate
//     only while each batch's job finishes within the batch interval.
//   - Latency quantised by the 4s batch: higher average than Storm/Flink
//     but the narrowest min–max band (Table II), because every tuple in a
//     batch shares the job's fate.
//   - Scheduler delay couples to throughput (Figure 11): every job pays a
//     scheduling cost that grows with backlog; the recorded series is
//     exposed for the figure.
//   - Under skew Spark degrades only mildly (0.53M ev/s on 4 nodes,
//     Experiment 4) thanks to tree-aggregate partial combining, and
//     overtakes Flink/Storm on ≥4 nodes.
//   - Large windows (Experiment 3): with the default cached window results
//     the per-batch cost grows with window/batch and memory pressure;
//     disabling the cache recomputes the window every batch; the
//     inverse-reduce implementation restores near-flat cost.
package spark

import (
	"fmt"
	"time"

	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/window"
	"repro/internal/workload"
)

// Options tune the engine model; zero values mean the paper's settings.
type Options struct {
	// Debug prints per-batch scheduling internals to stdout.
	Debug bool

	// BatchInterval is the micro-batch duration ("We use a four second
	// batch-size for Spark, as it can sustain the maximum throughput
	// with this configuration").
	BatchInterval time.Duration
	// BlockInterval controls partitioning: partitions per batch =
	// BatchInterval / BlockInterval ("the number of RDD partitions [in]
	// a single mini-batch is bounded by batchInterval/blockInterval").
	BlockInterval time.Duration
}

func (o Options) withDefaults() Options {
	if o.BatchInterval <= 0 {
		o.BatchInterval = 4 * time.Second
	}
	if o.BlockInterval <= 0 {
		o.BlockInterval = 200 * time.Millisecond
	}
	return o
}

// Engine implements engine.Engine.
type Engine struct{ opts Options }

// New builds a Spark Streaming model.
func New(opts Options) *Engine { return &Engine{opts: opts.withDefaults()} }

// Name implements engine.Engine.
func (e *Engine) Name() string { return "spark" }

// lineageRecomputeFactor is the seconds of lineage recomputation a
// restarted Spark worker pays per second of outage: lost RDD partitions
// recompute from their narrow-dependency ancestors, which is faster than
// the original processing because shuffle inputs of completed stages are
// still materialised.
const lineageRecomputeFactor = 0.6

// Recovery implements engine.RecoveryModeler: Spark recomputes lost
// partitions from lineage, so restore time is proportional to the progress
// lost while the worker was down (the paper's §5 contrast with Flink's
// checkpoint restore — cheap for short outages, expensive for long ones).
func (e *Engine) Recovery() fault.Recovery {
	return fault.Recovery{Kind: fault.RecoveryLineage, RecomputeFactor: lineageRecomputeFactor}
}

// Rescale implements engine.RescaleModeler: Spark adds or removes
// executors through dynamic allocation while the job keeps running —
// lineage makes fresh executors immediately useful, so the transition
// never stalls ingestion (Stall 1); the cost is only how long the
// executor-request round trips take.
func (e *Engine) Rescale() fault.Rescale {
	return fault.Rescale{
		Kind:      fault.RescaleDynamicAlloc,
		Base:      500 * time.Millisecond,
		PerWorker: 100 * time.Millisecond,
		Stall:     1,
	}
}

// Calibration constants: each comment names the paper measurement its
// value is fitted to.
var (
	// Sustainable-throughput laws fitted exactly through Tables I/III.
	aggSustainLaw  = engine.FitThroughPoints(0.38e6, 0.64e6, 0.91e6)
	joinSustainLaw = engine.FitThroughPoints(0.36e6, 0.63e6, 0.94e6)
	// procHeadroom is the fraction of the batch interval the job's
	// processing may use at the sustainable rate; the rest absorbs
	// scheduler delay and jitter.  "To have a stable and efficient
	// configuration in Spark, the mini-batch processing time should be
	// less than the batch interval."
	procHeadroom = 0.80
	// baseSchedDelay is the per-job DAG-scheduler cost at zero backlog.
	baseSchedDelay = 350 * time.Millisecond
	// skewPenalty: capacity multiplier is (1 - skewPenalty·hotShare);
	// with full skew on 4 nodes 0.64M → 0.53M (Experiment 4).
	skewPenalty = 0.17
	// joinSkewPenalty models "Spark ... exhibits very high latencies" on
	// the skewed join: a much deeper capacity cut than for aggregation.
	joinSkewPenalty = 0.75
	// cpuPerMEvent yields ~85% CPU load at the sustainable rate — the
	// "50% more cycles than Flink" of Figure 10 (per-event cost is
	// ~2.6× Flink's; Flink also processes ~1.9× the events).
	cpuPerMEvent = 77.0
	// cacheLargeWindowFactor is the per-batch slowdown per unit of
	// window/batch ratio under the default cached-window strategy once
	// the ratio is large ("the cache operation consumes the memory
	// aggressively"; throughput halved at window=60s, batch=4s).
	cacheLargeWindowFactor = 0.085
	// recomputeFactor is the per-batch slowdown per overlapping window
	// recomputed from scratch when caching is disabled.
	recomputeFactor = 0.12
)

// pendingOutput is a result computed for a batch, awaiting its job's
// completion before emission.
type pendingOutput struct {
	agg  []window.Result
	join []window.JoinResult
}

// sparkJob is one micro-batch job in the DAG scheduler's queue.
type sparkJob struct {
	batchEnd  sim.Time
	weight    int64
	schedUsed time.Duration
	out       pendingOutput
}

type job struct {
	rt   *engine.Runtime
	opts Options
	rng  *sim.RNG

	agg     *window.PaneAggregator
	joinBuf *window.TwoStreamBuffer

	sustainLaw engine.CapacityLaw
	netCap     float64

	// receiverRate is the rate controller's current permitted ingest
	// rate (events/s); it reacts at job granularity, not per tuple.
	receiverRate float64

	// batchWeight accumulates the current batch's ingested weight.
	batchWeight int64

	// jobs is the FIFO DAG-scheduler queue; busyUntil is when the
	// currently running job finishes.
	jobs      []*sparkJob
	busyUntil sim.Time

	schedDelaySeries *metrics.Series

	lastBatch sim.Time
}

// Deploy implements engine.Engine.
func (e *Engine) Deploy(k *sim.Kernel, cfg engine.Config) (engine.Job, error) {
	cfg = cfg.WithDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	j := &job{
		rt:               engine.NewRuntime(k, cfg),
		opts:             e.opts,
		rng:              k.RNG("spark"),
		schedDelaySeries: metrics.NewSeries("spark.scheduler_delay_s"),
	}
	j.rt.CPUPerMEvent = cpuPerMEvent
	j.rt.Recovery = e.Recovery()
	j.rt.Rescale = e.Rescale()
	asg := cfg.Query.Assigner()
	switch cfg.Query.Type {
	case workload.Join:
		j.joinBuf = cfg.Pool().TwoStream(asg)
		j.sustainLaw = joinSustainLaw
		j.netCap = cfg.Cluster.NetworkEventCap(1 + 0.17*cfg.Query.Selectivity)
	default:
		j.agg = cfg.Pool().Pane(asg)
		j.sustainLaw = aggSustainLaw
		j.netCap = cfg.Cluster.NetworkEventCap(1)
	}
	j.receiverRate = j.capacity()
	return j, nil
}

// Start implements engine.Job.
func (j *job) Start() {
	j.lastBatch = j.rt.K.Now()
	j.rt.Start(j.tick)
}

// Stop implements engine.Job.
func (j *job) Stop() { j.rt.Stop() }

// Failed implements engine.Job.
func (j *job) Failed() (bool, string) { return j.rt.Failed() }

// ExtraSeries implements engine.Job.
func (j *job) ExtraSeries() map[string]*metrics.Series {
	return map[string]*metrics.Series{"scheduler_delay": j.schedDelaySeries}
}

// LateDropped returns events dropped as late; Spark's arrival-time window
// assignment slides late data into current windows instead, so this is
// zero in practice.
func (j *job) LateDropped() int64 {
	if j.agg != nil {
		return j.agg.LateDropped()
	}
	return j.joinBuf.LateDropped()
}

// capacity is the engine's sustainable ingest rate for the current
// deployment and key distribution, before batching dynamics.
func (j *job) capacity() float64 {
	cap := j.sustainLaw.Cap(j.rt.Cfg.Cluster.Workers())
	if cap > j.netCap {
		cap = j.netCap
	}
	// Tree aggregate / tree reduce: partial combining spreads a hot key
	// over all partitions, so skew costs a factor, not a collapse
	// (Experiment 4) — except for the skewed join, where the cogroup's
	// hot key cannot be combined map-side and latencies explode.
	hot := j.rt.HotKeys.HotShare()
	penalty := skewPenalty
	if j.joinBuf != nil {
		penalty = joinSkewPenalty
	}
	return cap * (1 - penalty*hot)
}

// procRate is the raw batch-processing speed: sized so that at exactly the
// sustainable rate a batch's processing takes procHeadroom of the batch
// interval.  The join's cogroup jobs vary more (stragglers hit three
// blocking stages), so they get extra headroom.
func (j *job) procRate() float64 {
	h := procHeadroom
	if j.joinBuf != nil {
		h = 0.75
	}
	return j.capacity() / h
}

func (j *job) tick(now sim.Time) {
	// Receiver: the block manager ingests bursts early in each batch
	// interval, then competes with the running job for cycles — so the
	// pull rate oscillates within every batch (the fluctuating pull
	// rate of Figure 9b) and tuples spend a visible share of their
	// latency waiting in the driver queues (Figure 8's Spark panel).
	phase := float64(now-j.lastBatch) / float64(j.opts.BatchInterval)
	burst := 0.78
	if phase < 0.5 {
		burst = 1.22
	}
	budget := j.rt.TupleBudget(j.rng.Perturb(j.receiverRate*burst, 0.05), j.rt.Cfg.EventWeight)
	batch, w := j.rt.Pull(budget, now)
	j.batchWeight += w
	// DStream semantics: events are bucketed by the block/batch they
	// arrive in, not by their event time — the receiver writes blocks as
	// data comes.  Provenance keeps the true event times.
	at := time.Duration(now)
	if j.agg != nil {
		j.agg.AddBatchAt(batch, at)
	} else {
		j.joinBuf.AddBatchAt(batch, at)
	}

	// Batch boundary: close the batch into a job.
	if now-j.lastBatch >= j.opts.BatchInterval {
		j.submitBatch(now)
		j.lastBatch = now
	}
}

// submitBatch turns the accumulated batch into a scheduled job, computes
// its results (cost is paid through the job's modelled duration), and
// updates the rate controller.
func (j *job) submitBatch(now sim.Time) {
	sj := &sparkJob{batchEnd: now, weight: j.batchWeight}
	j.batchWeight = 0

	// The windowed results this batch completes.  Spark's DStream windows
	// are processing-time batches: every window whose end has been
	// reached on the wall clock is computed from whatever data has
	// arrived, and late-arriving events slide into the next window.
	// Under backpressure this is what makes the emitted windows' content
	// old (their max event-time lags) — the Figure 7 effect.
	deadline := time.Duration(now)
	if j.agg != nil {
		// The job holds its results past the next Fire, which reuses
		// the aggregator's result slab: copy them out.
		sj.out.agg = append(sj.out.agg, j.agg.Fire(deadline)...)
	} else {
		for _, fw := range j.joinBuf.Fire(deadline) {
			sj.out.join = append(sj.out.join, j.joinBuf.HashJoin(fw)...)
			j.joinBuf.Recycle(fw)
		}
	}

	// DAG scheduler: jobs run serially; scheduler delay grows with the
	// number of *waiting* jobs (Figure 11's coupling).
	queued := len(j.jobs) - 1
	if queued < 0 {
		queued = 0
	}
	schedDelay := time.Duration(j.rng.Perturb(float64(baseSchedDelay)*(1+0.35*float64(queued)), 0.25))
	sj.schedUsed = schedDelay
	j.schedDelaySeries.Add(now, schedDelay.Seconds())

	procTime := j.jobProcTime(sj.weight)

	start := now
	if j.busyUntil > start {
		start = j.busyUntil
	}
	start += schedDelay
	end := start + procTime
	j.busyUntil = end
	j.jobs = append(j.jobs, sj)
	if j.opts.Debug {
		fmt.Printf("batch@%-6v w=%-9d rate=%.3fM sched=%v proc=%v lag=%v backlog=%d outs=%d\n",
			now, sj.weight, j.receiverRate/1e6, schedDelay.Round(time.Millisecond),
			procTime.Round(time.Millisecond), (end - now).Round(time.Millisecond), queued, len(sj.out.agg))
	}

	// Emit this job's outputs spread over the execution of its final
	// stages: reduceByKey results stream out as partitions complete.
	j.rt.K.At(end, func() { j.completeJob(sj, start, end) })

	// Rate controller (PID-like, reacting at job granularity — the paper
	// notes Spark's backpressure information travels "in the order of job
	// stage execution time", not per tuple).  A transiently slow job is
	// absorbed by the scheduler queue; only a scheduler falling behind by
	// more than two batch intervals triggers a back-off, and recovery is
	// quick.  The episodic back-off/recovery cycle is the fluctuating
	// pull rate of Figure 9b.
	lag := end - now
	switch {
	case lag > 2*j.opts.BatchInterval:
		j.receiverRate *= 0.85
		minRate := 0.1 * j.capacity()
		if j.receiverRate < minRate {
			j.receiverRate = minRate
		}
	case lag < j.opts.BatchInterval+j.opts.BatchInterval/5:
		j.receiverRate *= 1.2
		if maxRate := j.capacity(); j.receiverRate > maxRate {
			j.receiverRate = maxRate
		}
	}
}

// jobProcTime models one batch job's processing duration.
func (j *job) jobProcTime(weight int64) time.Duration {
	rate := j.procRate()
	if rate <= 0 {
		rate = 1
	}
	secs := float64(weight) / rate
	// Stage structure: the aggregation splits into ShuffledRDD +
	// MapPartitionsRDD (2 stages); the join into CoGroupedRDD +
	// MappedValuesRDD + FlatMappedValuesRDD (3 stages), each a blocking
	// barrier with fixed overhead.
	stages := 2
	if j.joinBuf != nil {
		stages = 3
	}
	secs += 0.05 * float64(stages)
	// Experiment 3: sliding-window aggregate sharing strategy.
	ratio := float64(j.rt.Cfg.Query.WindowSize) / float64(j.opts.BatchInterval)
	if ratio > 2 {
		switch j.rt.Cfg.Query.Strategy {
		case workload.StrategyInverseReduce:
			secs *= 1.05 // near-flat: add new pane, subtract expired one
		case workload.StrategyRecompute:
			secs *= 1 + recomputeFactor*ratio
		default: // cached window results, aggressive memory use + spill
			secs *= 1 + cacheLargeWindowFactor*ratio
		}
	}
	// Straggler jobs: occasionally a partition lands on a slow or
	// GC-bound executor and the whole blocking stage waits for it —
	// the source of Table II's max latencies for Spark.
	// Smaller clusters feel stragglers harder: fewer partitions, so one
	// slow executor holds a larger share of the blocking stage.
	if j.rng.Bool(0.04) {
		n := float64(j.rt.Cfg.Cluster.Workers())
		secs *= 1.25 + (0.5+1.5/n)*j.rng.Float64()
	}
	return time.Duration(j.rng.Perturb(secs, 0.06) * float64(time.Second))
}

// completeJob emits the job's outputs with emission times spread across the
// final stage's execution.
func (j *job) completeJob(sj *sparkJob, start, end sim.Time) {
	// Remove from queue head (jobs complete in FIFO order).
	if len(j.jobs) > 0 && j.jobs[0] == sj {
		j.jobs = j.jobs[1:]
	} else {
		for i, q := range j.jobs {
			if q == sj {
				j.jobs = append(j.jobs[:i], j.jobs[i+1:]...)
				break
			}
		}
	}
	span := float64(end - start)
	emitAt := func() time.Duration {
		// Results leave during the last 45% of the job's execution.
		return start + time.Duration(span*(0.55+0.45*j.rng.Float64()))
	}
	for _, r := range sj.out.agg {
		j.rt.EmitAgg(r, emitAt())
	}
	if len(sj.out.join) > 0 {
		// Join results additionally pay the cogroup materialisation and
		// sink pressure: "the latency values for Spark are higher than
		// the mini-batch duration ... the additional latency is due to
		// tuples' waiting in the queue" (Experiment 2).  The extra wait
		// scales with the windows' fill level.
		loadFactor := float64(sj.weight) / (j.capacity() * j.opts.BatchInterval.Seconds())
		if loadFactor > 1.5 {
			loadFactor = 1.5
		}
		winSpan := float64(j.rt.Cfg.Query.WindowSize)
		for _, r := range sj.out.join {
			extra := time.Duration(0.75 * j.rng.Float64() * winSpan * loadFactor)
			j.rt.EmitJoin(r, emitAt()+extra)
		}
	}
}

var (
	_ engine.Engine = (*Engine)(nil)
	_ engine.Job    = (*job)(nil)
)
