// Elastic rescaling: the worker set as a function of virtual time.  A
// RescalePlan is a validated list of scale-out/scale-in steps — "at virtual
// time t the cluster runs w workers" — evaluated, like fault schedules, as a
// pure function of virtual time: no goroutines, no wall clock, no RNG, so a
// rescaling run is exactly as reproducible as a static one.
//
// Each step costs what the deployed engine's rescaling mechanism costs.  The
// engine exports a Rescale cost model (engine.Engine.Rescale, bound like the
// Recovery models): Flink stops on a savepoint and restores at the new
// parallelism, Storm rebalances with the spouts paused, Spark adds executors
// through dynamic allocation without interrupting lineage, the ideal engine
// rescales for free.  During the modeled transition window the cluster's
// ingestion capacity is multiplied by the model's Stall factor, composing
// multiplicatively with whatever the fault schedule is doing at the same
// instant.
package fault

import (
	"fmt"
	"time"
)

// Rescale model kinds: the mechanism an engine uses to change parallelism.
const (
	// RescaleInstant changes the worker set for free (the ideal engine,
	// and the zero value of Rescale).
	RescaleInstant = "instant"
	// RescaleSavepoint stops the job on a savepoint and restores it at the
	// new parallelism (Flink-style): the whole pipeline pauses for the
	// savepoint + redistribute + restore time.
	RescaleSavepoint = "savepoint"
	// RescaleRebalance redistributes executors with the spouts paused
	// (Storm-style rebalance): shorter than a savepoint cycle, but
	// ingestion still stops.
	RescaleRebalance = "rebalance"
	// RescaleDynamicAlloc adds or removes executors while the job keeps
	// running (Spark dynamic allocation): lineage makes the added
	// executors immediately useful, so capacity never drops — the cost is
	// only how long the new topology takes to be in full effect.
	RescaleDynamicAlloc = "dynamic-alloc"
)

// Rescale is an engine's rescaling cost model, bound to every deployment by
// engine.NewRuntime.  The zero value rescales instantly.
type Rescale struct {
	// Kind selects the mechanism (Rescale* constants).
	Kind string
	// Base is the fixed per-transition cost (savepoint write, rebalance
	// coordination, executor-request round trip).
	Base time.Duration
	// PerWorker is the additional cost per worker added or removed
	// (state redistribution scales with the delta).
	PerWorker time.Duration
	// Stall is the cluster capacity multiplier during the transition
	// window, in [0, 1]: 0 for stop-the-world mechanisms (savepoint,
	// rebalance), 1 for mechanisms that rescale without interrupting the
	// job (dynamic allocation).
	Stall float64
}

// Transition returns the modeled duration of a rescale from `from` to `to`
// workers: Base + PerWorker×|to−from|, and 0 for a no-op step or an instant
// mechanism.
func (r Rescale) Transition(from, to int) time.Duration {
	if from == to {
		return 0
	}
	delta := to - from
	if delta < 0 {
		delta = -delta
	}
	switch r.Kind {
	case RescaleSavepoint, RescaleRebalance, RescaleDynamicAlloc:
		return r.Base + time.Duration(delta)*r.PerWorker
	}
	return 0
}

// RescaleStep is one step of a rescale plan: from virtual time At the
// cluster runs Workers workers (the step applies at At; the engine's
// transition cost is paid starting there).
type RescaleStep struct {
	At      time.Duration `json:"at"`
	Workers int           `json:"workers"`
}

// MaxPlanWorkers bounds a step's worker target; generous compared to any
// swept cluster, small enough that provisioning the maximum up front stays
// cheap.
const MaxPlanWorkers = 1024

// RescalePlan is a deterministic elastic-rescaling schedule: the worker
// count as a step function of virtual time.  The zero value (and a nil
// pointer) is the static, rescale-free plan.
type RescalePlan struct {
	Steps []RescaleStep `json:"steps"`
}

// Empty reports whether the plan never changes the worker set.
func (p *RescalePlan) Empty() bool { return p == nil || len(p.Steps) == 0 }

// Validate checks the plan: step times strictly increasing and positive
// (the initial worker count belongs to the cell, not the plan), worker
// targets in [1, MaxPlanWorkers].  Errors name the offending step's index
// and target so a multi-step plan rejects with a locator.
func (p *RescalePlan) Validate() error {
	if p == nil {
		return nil
	}
	prev := time.Duration(-1)
	for i, st := range p.Steps {
		where := fmt.Sprintf("rescale step %d (workers=%d)", i, st.Workers)
		if st.At <= 0 {
			return fmt.Errorf("%s: at must be > 0 (the starting worker count comes from the cell), got %v", where, st.At)
		}
		if st.At <= prev {
			return fmt.Errorf("%s: at %v must be after the previous step's %v", where, st.At, prev)
		}
		if st.Workers < 1 {
			return fmt.Errorf("%s: workers must be >= 1", where)
		}
		if st.Workers > MaxPlanWorkers {
			return fmt.Errorf("%s: workers must be <= %d", where, MaxPlanWorkers)
		}
		prev = st.At
	}
	return nil
}

// MaxWorkers returns the largest worker count the plan ever requests, with
// base as the pre-plan count — the size the cluster must provision up
// front so scale-out never reallocates mid-run.
func (p *RescalePlan) MaxWorkers(base int) int {
	max := base
	if p != nil {
		for _, st := range p.Steps {
			if st.Workers > max {
				max = st.Workers
			}
		}
	}
	return max
}

// WorkersAt returns the plan's worker count at instant now, with base as
// the count before the first step.  Steps apply at their At.
func (p *RescalePlan) WorkersAt(now time.Duration, base int) int {
	w := base
	if p != nil {
		for _, st := range p.Steps {
			if now < st.At {
				break
			}
			w = st.Workers
		}
	}
	return w
}

// ActiveAt returns the active worker count and the transition capacity
// factor at instant now under the given cost model.  The worker count
// switches at each step's At; during the step's transition window
// [At, At+Transition), clamped by the next step's At, capacity is
// multiplied by the model's Stall factor.  Outside every window the factor
// is 1.
func (p *RescalePlan) ActiveAt(now time.Duration, base int, model Rescale) (workers int, factor float64) {
	workers, factor = base, 1
	if p == nil {
		return workers, factor
	}
	prev := base
	for i, st := range p.Steps {
		if now < st.At {
			break
		}
		workers = st.Workers
		end := st.At + model.Transition(prev, st.Workers)
		if i+1 < len(p.Steps) && p.Steps[i+1].At < end {
			end = p.Steps[i+1].At
		}
		if now < end {
			factor = model.Stall
		} else {
			factor = 1
		}
		prev = st.Workers
	}
	return workers, factor
}

// Window returns the transition window [start, end) of step i under the
// given cost model, with base as the pre-plan worker count: the window
// opens at the step's At and closes Transition later, clamped by the next
// step's At.  It panics if i is out of range.
func (p *RescalePlan) Window(i, base int, model Rescale) (start, end time.Duration) {
	prev := base
	for j := 0; j < i; j++ {
		prev = p.Steps[j].Workers
	}
	st := p.Steps[i]
	start = st.At
	end = st.At + model.Transition(prev, st.Workers)
	if i+1 < len(p.Steps) && p.Steps[i+1].At < end {
		end = p.Steps[i+1].At
	}
	return start, end
}
