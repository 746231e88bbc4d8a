// Package ideal implements a reference engine with no modelled overheads:
// perfect per-tuple backpressure, pane-partial window state, zero
// coordination cost, no GC and no transients — its throughput is bounded
// only by the cluster fabric.  It exists as (i) the upper-bound baseline
// the three real-system models can be compared against, and (ii) the
// worked example of the paper's future-work "generic interface that users
// can plug into any stream data processing system": on the engine SPI's
// deployment scaffold (engine.NewRuntime) a complete engine is a cost
// model pair, a Deploy and a tick.
package ideal

import (
	"time"

	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/sim"
)

// Engine implements engine.Engine.
type Engine struct{}

// New builds the ideal engine.
func New() *Engine { return &Engine{} }

// Name implements engine.Engine.
func (e *Engine) Name() string { return "ideal" }

// Recovery implements engine.Engine: the ideal engine restores state
// for free, so its recovery curve is the lower bound the real engine
// models are compared against.
func (e *Engine) Recovery() fault.Recovery { return fault.Recovery{Kind: fault.RecoveryInstant} }

// Rescale implements engine.Engine: the ideal engine rescales instantly
// and for free, the lower bound the real mechanisms (savepoint,
// rebalance, dynamic allocation) are compared against.
func (e *Engine) Rescale() fault.Rescale { return fault.Rescale{Kind: fault.RescaleInstant} }

// job pulls at the fabric bound (NetCap): an ideal engine still cannot
// beat physics, and the bound that capped Flink in Table I caps it too.
type job struct{ *engine.Runtime }

// Deploy implements engine.Engine.
func (e *Engine) Deploy(k *sim.Kernel, cfg engine.Config) (engine.Job, error) {
	rt, err := engine.NewRuntime(k, cfg, e)
	if err != nil {
		return nil, err
	}
	// Idealised cost: a fraction of Flink's (perfect pipelining).
	rt.CPUPerMEvent = 15
	return &job{rt}, nil
}

// Start implements engine.Job.
func (j *job) Start() { j.Runtime.Start(j.tick) }

func (j *job) tick(now sim.Time) {
	budget := j.TupleBudget(j.NetCap, j.Cfg.EventWeight)
	batch, _ := j.Pull(budget, now)
	wm := j.FireWatermark()
	if j.Agg != nil {
		j.Agg.AddBatch(batch)
		for _, r := range j.Agg.Fire(wm) {
			j.EmitAgg(r, time.Duration(now))
		}
		return
	}
	j.Join.AddBatch(batch)
	for _, fw := range j.Join.Fire(wm) {
		for _, r := range j.Join.HashJoin(fw) {
			j.EmitJoin(r, time.Duration(now))
		}
		j.Join.Recycle(fw)
	}
}

var (
	_ engine.Engine = (*Engine)(nil)
	_ engine.Job    = (*job)(nil)
)
