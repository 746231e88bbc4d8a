// Package ideal implements a reference engine with no modelled overheads:
// perfect per-tuple backpressure, pane-partial window state, zero
// coordination cost, no GC and no transients — its throughput is bounded
// only by the cluster fabric.  It exists as (i) the upper-bound baseline
// the three real-system models can be compared against, and (ii) the
// worked example of the paper's future-work "generic interface that users
// can plug into any stream data processing system": a complete engine is
// ~150 lines against the engine SPI.
package ideal

import (
	"time"

	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/window"
	"repro/internal/workload"
)

// Engine implements engine.Engine.
type Engine struct{}

// New builds the ideal engine.
func New() *Engine { return &Engine{} }

// Name implements engine.Engine.
func (e *Engine) Name() string { return "ideal" }

// Recovery implements engine.RecoveryModeler: the ideal engine restores
// state for free — the zero recovery model — so its recovery curve is the
// lower bound the real engine models are compared against.
func (e *Engine) Recovery() fault.Recovery { return fault.Recovery{} }

// Rescale implements engine.RescaleModeler: the ideal engine rescales
// instantly and for free — the zero model — the lower bound the real
// mechanisms (savepoint, rebalance, dynamic allocation) are compared
// against.
func (e *Engine) Rescale() fault.Rescale { return fault.Rescale{} }

type job struct {
	rt      *engine.Runtime
	agg     *window.PaneAggregator
	joinBuf *window.TwoStreamBuffer
	netCap  float64
}

// Deploy implements engine.Engine.
func (e *Engine) Deploy(k *sim.Kernel, cfg engine.Config) (engine.Job, error) {
	cfg = cfg.WithDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	j := &job{rt: engine.NewRuntime(k, cfg)}
	// An ideal engine still cannot beat physics: the fabric bound that
	// capped Flink in Table I caps it too.
	asg := cfg.Query.Assigner()
	switch cfg.Query.Type {
	case workload.Join:
		j.joinBuf = cfg.Pool().TwoStream(asg)
		j.netCap = cfg.Cluster.NetworkEventCap(1 + 0.17*cfg.Query.Selectivity)
	default:
		j.agg = cfg.Pool().Pane(asg)
		j.netCap = cfg.Cluster.NetworkEventCap(1)
	}
	// Idealised cost: a fraction of Flink's (perfect pipelining).
	j.rt.CPUPerMEvent = 15
	return j, nil
}

// Start implements engine.Job.
func (j *job) Start() { j.rt.Start(j.tick) }

// Stop implements engine.Job.
func (j *job) Stop() { j.rt.Stop() }

// Failed implements engine.Job.
func (j *job) Failed() (bool, string) { return j.rt.Failed() }

// ExtraSeries implements engine.Job.
func (j *job) ExtraSeries() map[string]*metrics.Series { return nil }

// LateDropped reports lost late contributions (only possible with
// out-of-order input and zero slack).
func (j *job) LateDropped() int64 {
	if j.agg != nil {
		return j.agg.LateDropped()
	}
	return j.joinBuf.LateDropped()
}

func (j *job) tick(now sim.Time) {
	budget := j.rt.TupleBudget(j.netCap, j.rt.Cfg.EventWeight)
	batch, _ := j.rt.Pull(budget, now)
	wm := j.rt.FireWatermark()
	if j.agg != nil {
		j.agg.AddBatch(batch)
		for _, r := range j.agg.Fire(wm) {
			j.rt.EmitAgg(r, time.Duration(now))
		}
		return
	}
	j.joinBuf.AddBatch(batch)
	for _, fw := range j.joinBuf.Fire(wm) {
		for _, r := range j.joinBuf.HashJoin(fw) {
			j.rt.EmitJoin(r, time.Duration(now))
		}
		j.joinBuf.Recycle(fw)
	}
}

var (
	_ engine.Engine = (*Engine)(nil)
	_ engine.Job    = (*job)(nil)
)
