package engine

import (
	"time"

	"repro/internal/fault"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/tuple"
	"repro/internal/window"
	"repro/internal/workload"
)

// Runtime is the one deployment scaffold every engine model builds on: the
// tick loop, source pulling with ingestion stamping, watermark tracking,
// hot-key observation, CPU/network accounting, the engine's cost models,
// the query's window state and fabric bound, and sink emission with
// Definition 3/4 provenance.  It implements every Job method but Start:
// an engine model's job embeds *Runtime, adds only its own state, and
// supplies the per-tick behaviour and capacity that make it itself.
type Runtime struct {
	K   *sim.Kernel
	Cfg Config

	// Watermark is the maximum event time ingested so far.  The
	// generator's per-queue streams are in order, so this is the exact
	// completeness frontier: every window with End <= Watermark has seen
	// all its input.
	Watermark time.Duration

	// HotKeys tracks the hottest grouping key's load share (Experiment 4).
	HotKeys *HotKeyTracker

	// CPUPerMEvent is the engine's CPU cost in core-seconds per million
	// real events processed, used only for the Figure 10 usage plots
	// (the capacity laws, not this, decide throughput).
	CPUPerMEvent float64
	// NetBytesPerEvent is wire bytes charged per real event moved
	// through the engine (ingest + shuffle).
	NetBytesPerEvent float64

	// Recovery is the engine's state-recovery cost model
	// (Engine.Recovery).  It only matters to checkpoint-restore fault
	// events: a restarted worker stays at zero capacity for
	// Recovery.Restore(outage) after its restart.
	Recovery fault.Recovery

	// Rescale is the engine's elastic-rescaling cost model
	// (Engine.Rescale).  It only matters when Cfg.Rescale carries a plan:
	// each step stalls ingestion by the model's Stall factor for the
	// modeled transition time.
	Rescale fault.Rescale

	// Agg is the aggregation query's window state and Join the join
	// query's; exactly one is non-nil.  Both come from the arena's pool.
	Agg  *window.PaneAggregator
	Join *window.TwoStreamBuffer
	// NetCap is the fabric bound on the ingest rate in real events/s:
	// the join's outputs cross the wire too, which lowers its bound
	// (Table III).
	NetCap float64

	ticker     *sim.Ticker
	failed     bool
	failReason string
	stopped    bool

	// carry holds the fractional tuple budget across ticks.
	carry float64

	// pullBatch is the reusable slab Pull drains the sources into; its
	// events are valid until the next Pull.
	pullBatch *tuple.Batch

	// faultBuf is the reusable per-worker capacity vector that
	// fault.Schedule.Scale fills on every faulted pull.
	faultBuf []float64

	// rescaleBase is the worker count before the plan's first step,
	// captured at Start; rescaleFactor is the transition stall factor in
	// effect for the current tick (1 outside transition windows, and
	// always 1 for rescale-free runs, which skip the whole path).
	rescaleBase   int
	rescaleFactor float64

	decayEvery int
	sinceDecay int

	// out is the reusable emission scratch: EmitAgg/EmitJoin build the
	// Output here and hand the sink a pointer.  Sinks must not retain
	// the pointee (they never have — the driver measures and copies),
	// which is what makes emission allocation-free.
	out tuple.Output
}

// NewRuntime applies cfg's defaults, validates it and deploys eng's
// scaffold for one run: the runtime recycled from cfg.Mem's arena (only
// its pull batch, hot-key counts and fault vector carry over from the
// arena's previous run), eng's cost models, and the query's window state
// and fabric bound.  Models read the defaulted config back as rt.Cfg.
func NewRuntime(k *sim.Kernel, cfg Config, eng Engine) (*Runtime, error) {
	cfg = cfg.WithDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rt := cfg.Mem.rt
	if rt == nil {
		rt = &Runtime{HotKeys: NewHotKeyTracker(), pullBatch: tuple.NewBatch(1024)}
		cfg.Mem.rt = rt
	}
	rt.HotKeys.Reset()
	rt.pullBatch.Reset()
	*rt = Runtime{
		K:                k,
		Cfg:              cfg,
		HotKeys:          rt.HotKeys,
		CPUPerMEvent:     30,
		NetBytesPerEvent: float64(tuple.WireSizeBytes),
		Recovery:         eng.Recovery(),
		Rescale:          eng.Rescale(),
		pullBatch:        rt.pullBatch,
		faultBuf:         rt.faultBuf,
		rescaleFactor:    1,
		decayEvery:       1000,
	}
	asg := cfg.Query.Assigner()
	switch cfg.Query.Type {
	case workload.Join:
		rt.Join = cfg.Mem.windows.TwoStream(asg)
		// Join results cross the fabric too: the wire amplification
		// grows with the query's selectivity.
		rt.NetCap = cfg.Cluster.NetworkEventCap(1 + 0.17*cfg.Query.Selectivity)
	default:
		rt.Agg = cfg.Mem.windows.Pane(asg)
		rt.NetCap = cfg.Cluster.NetworkEventCap(1)
	}
	return rt, nil
}

// Start runs fn every cfg.Tick until Stop or failure.  When the config
// carries a rescale plan, every tick first moves the cluster's active
// worker count to the plan's value for the current virtual time — engines
// read capacity through Cluster.Workers() per tick, so the time-varying
// worker set reaches every capacity law without the models knowing
// rescaling exists — and records the transition stall factor Pull applies
// to the tick's budget.
func (rt *Runtime) Start(fn func(now sim.Time)) {
	if p := rt.Cfg.Rescale; !p.Empty() {
		rt.rescaleBase = rt.Cfg.Cluster.Workers()
	}
	rt.ticker = rt.K.Every(rt.Cfg.Tick, func(now sim.Time) {
		if rt.stopped || rt.failed {
			return
		}
		if p := rt.Cfg.Rescale; !p.Empty() {
			w, f := p.ActiveAt(now, rt.rescaleBase, rt.Rescale)
			rt.Cfg.Cluster.SetActive(w)
			rt.rescaleFactor = f
		}
		fn(now)
	})
}

// Stop implements engine.Job: it halts the tick loop.
func (rt *Runtime) Stop() {
	rt.stopped = true
	if rt.ticker != nil {
		rt.ticker.Stop()
	}
}

// Fail marks the job failed; the tick loop stops on the next tick and the
// driver reads the reason.
func (rt *Runtime) Fail(reason string) {
	if !rt.failed {
		rt.failed = true
		rt.failReason = reason
	}
}

// Failed implements engine.Job.
func (rt *Runtime) Failed() (bool, string) { return rt.failed, rt.failReason }

// LateDropped implements engine.Job from the query's window state.
func (rt *Runtime) LateDropped() int64 {
	if rt.Agg != nil {
		return rt.Agg.LateDropped()
	}
	return rt.Join.LateDropped()
}

// ExtraSeries implements engine.Job: no engine-internal series.  A model
// that records one (Spark's scheduler delay) overrides it.
func (rt *Runtime) ExtraSeries() map[string]*metrics.Series { return nil }

// TupleBudget converts a capacity in real events/second into a whole number
// of simulated tuples for one tick, carrying the fraction so long-run rates
// are exact.
func (rt *Runtime) TupleBudget(capEvPerSec float64, weight int64) int {
	if capEvPerSec <= 0 {
		return 0
	}
	b := capEvPerSec*rt.Cfg.Tick.Seconds()/float64(weight) + rt.carry
	n := int(b)
	rt.carry = b - float64(n)
	return n
}

// Pull pops up to n tuples from the sources into the runtime's reusable
// batch, stamps their ingestion time, advances the watermark, feeds the
// hot-key tracker, and charges network bytes for moving them into the
// cluster.  Returns the pulled batch and its total real-event weight.
//
// The post-pull bookkeeping streams over individual columns: the ingest
// stamp writes one column, the watermark scan reads only event times, and
// the hot-key feed reads only keys and weights — none of it strides whole
// Event records.
//
// The returned batch is the runtime's reusable pull batch and is valid
// only until the next Pull: engines that keep events across ticks (Storm's
// spout buffer, the window operators' buffered state) must copy the values
// out, which pushing into a queue or adding to window state does.
func (rt *Runtime) Pull(n int, now sim.Time) (*tuple.Batch, int64) {
	// Fault injection happens here and only here: every engine model's
	// ingestion funnels through Pull, so scaling the budget by the
	// schedule's capacity factor models every fault kind uniformly across
	// engines (see internal/fault).  Every schedule evaluates one way:
	// the per-worker capacity vector over the workers in service, under
	// this deployment's engine recovery model, scales the budget by its
	// mean.
	if s := rt.Cfg.Faults; !s.Empty() {
		n, rt.faultBuf = s.Scale(n, now, rt.Cfg.Cluster.Workers(), rt.Recovery, rt.faultBuf)
	}
	// Mid-transition rescale stall: composes multiplicatively with the
	// fault factor above.  rescaleFactor is pinned to 1 outside transition
	// windows and for rescale-free runs, so the branch is dead on every
	// pre-rescale code path.
	if f := rt.rescaleFactor; f < 1 && n > 0 {
		n = int(float64(n) * f)
	}
	rt.pullBatch.Reset()
	rt.Cfg.Sources.PopBatch(rt.pullBatch, n)
	c := rt.pullBatch.Columns()
	for i := range c.IngestTime {
		c.IngestTime[i] = now
	}
	wm := rt.Watermark
	for _, et := range c.EventTime {
		if et > wm {
			wm = et
		}
	}
	rt.Watermark = wm
	var weight int64
	for i := range c.GemPackID {
		rt.HotKeys.Observe(c.GemPackID[i], c.Weight[i])
		weight += c.Weight[i]
	}
	if weight > 0 {
		rt.Cfg.Cluster.SpreadNetwork(int64(rt.NetBytesPerEvent * float64(weight)))
		rt.Cfg.Cluster.SpreadCPU(rt.CPUPerMEvent * float64(weight) / 1e6)
	}
	rt.sinceDecay += rt.pullBatch.Len()
	if rt.sinceDecay >= rt.decayEvery {
		rt.HotKeys.Decay()
		rt.sinceDecay = 0
	}
	return rt.pullBatch, weight
}

// EmitAgg sends one windowed-aggregation result to the sink with
// Definition 3/4 provenance.  The sink receives a pointer into the
// runtime's emission scratch, valid only for the duration of the call.
func (rt *Runtime) EmitAgg(r window.Result, emit time.Duration) {
	rt.out = tuple.Output{
		Key:       r.Key,
		Value:     r.Agg.Sum,
		Count:     r.Agg.Count,
		Weight:    r.Agg.Weight,
		EventTime: r.Agg.Prov.MaxEventTime,
		ProcTime:  r.Agg.Prov.MaxProcTime,
		EmitTime:  emit,
		WindowEnd: r.Window.End,
	}
	rt.Cfg.Sink(&rt.out)
}

// EmitJoin sends one windowed-join result to the sink.  Join outputs also
// cross the network (the effect that lowers the join network cap in
// Table III), so bytes are charged here.  Like EmitAgg, the pointee is
// valid only for the duration of the sink call.
func (rt *Runtime) EmitJoin(r window.JoinResult, emit time.Duration) {
	rt.Cfg.Cluster.SpreadNetwork(int64(tuple.WireSizeBytes) * r.Weight)
	rt.out = tuple.Output{
		Key:       r.GemPackID,
		Value:     r.Price,
		Count:     1,
		Weight:    r.Weight,
		EventTime: r.Prov.MaxEventTime,
		ProcTime:  r.Prov.MaxProcTime,
		EmitTime:  emit,
		WindowEnd: r.Window.End,
	}
	rt.Cfg.Sink(&rt.out)
}

// FireWatermark returns the watermark used for firing windows: the
// maximum ingested event time minus the configured slack, so windows stay
// open long enough for bounded-disorder input to arrive.
func (rt *Runtime) FireWatermark() time.Duration {
	w := rt.Watermark - rt.Cfg.WatermarkSlack
	if w < 0 {
		return 0
	}
	return w
}

// QueueBacklog returns the real-event weight currently waiting in the
// driver queues — what an engine's flow controller can indirectly sense as
// upstream pressure.
func (rt *Runtime) QueueBacklog() int64 { return rt.Cfg.Sources.Weight() }
