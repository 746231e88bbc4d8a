package ctl

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync/atomic"
	"time"

	"repro/internal/core"
)

// defaultMaxBackoff caps the agent's coordinator-error backoff.
const defaultMaxBackoff = 5 * time.Second

// Agent executes leased cells.  The same loop serves both deployments:
// in-process (API = *Coordinator, used by sdpsd's built-in workers and by
// tests) and remote (API = *Client over HTTP+JSON).
type Agent struct {
	// Name is advisory, for status displays ("local-0", hostname, ...).
	Name string
	// API is the coordinator surface.
	API AgentAPI
	// Poll is the longest an idle agent waits inside one Lease call
	// (default 50ms); the coordinator answers the moment a cell is
	// queued, and the agent leases again at once after an empty answer.
	// It also paces heartbeats.  Coordinator errors instead back off
	// exponentially with jitter, from Poll up to MaxBackoff.
	Poll time.Duration
	// MaxBackoff caps the error backoff (default 5s).  Once the agent
	// has seen a lease TTL, backoff is further capped to a third of it,
	// so a recovering agent always reports back with lease headroom to
	// spare.
	MaxBackoff time.Duration
	// Resolve maps experiment IDs to experiments (default core.Lookup).
	Resolve func(id string) (core.Experiment, error)
	// Cache, when non-nil, reuses finished cell results across runs keyed
	// by cell content hash (see ResultCache); typically shared by every
	// agent worker in a process.
	Cache *ResultCache
	// WarmStart, when set (and Cache is non-nil), lets sustainable-search
	// cells seed their bisection bracket from prior searches of the same
	// deployment recorded in the cache (core.WarmStarts).  Off by
	// default: warm-started searches are faster but not byte-identical
	// to cold ones, so enabling it trades the coordinator's
	// distributed-vs-direct byte-identity guarantee for speed.
	WarmStart bool

	// last is the most recently leased run's cell enumeration, reused by
	// every later lease of that run.
	last atomic.Pointer[runCells]
}

// runCells is one run's resolved cell enumeration.
type runCells struct {
	runID string
	spec  RunSpec
	o     core.Options
	cells []core.Cell
}

// Run registers the agent and processes leases until ctx is done.  A
// cancelled ctx models agent death: the in-flight cell is abandoned
// without a Fail call, exactly like a crashed process, and the
// coordinator's lease TTL re-queues it.
//
// The loop survives coordinator outages: registration retries forever
// under jittered exponential backoff, lease errors back off the same way,
// and an ErrNotFound on Lease (a restarted coordinator that lost the
// journal no longer knows the agent) triggers re-registration under a
// fresh ID.  Only ctx cancellation ends the loop.
func (a *Agent) Run(ctx context.Context) error {
	poll := a.Poll
	if poll <= 0 {
		poll = 50 * time.Millisecond
	}
	maxBO := a.MaxBackoff
	if maxBO <= 0 {
		maxBO = defaultMaxBackoff
	}
	bo := newBackoff(poll, maxBO)
	var id string
	var ttl time.Duration // last seen lease TTL; bounds the backoff
	for {
		if ctx.Err() != nil {
			return nil
		}
		if id == "" {
			rid, err := a.API.Register(a.Name)
			if err != nil {
				if !sleepCtx(ctx, boundedBackoff(bo, ttl)) {
					return nil
				}
				continue
			}
			id = rid
			bo.Reset()
		}
		task, err := a.API.Lease(ctx, id, poll)
		switch {
		case err != nil:
			if errors.Is(err, ErrNotFound) {
				id = "" // the coordinator forgot us: re-register
			}
			if !sleepCtx(ctx, boundedBackoff(bo, ttl)) {
				return nil
			}
		case task == nil:
			// Nothing was queued within the wait: lease again, which
			// blocks until work arrives.
			bo.Reset()
		default:
			bo.Reset()
			if task.TTL > 0 {
				ttl = task.TTL
			}
			a.execute(ctx, id, task, ttl)
		}
	}
}

// boundedBackoff draws the next error delay, honouring lease TTL headroom:
// an agent that may hold leases must resurface well inside one TTL or the
// coordinator re-queues its cells under it.
func boundedBackoff(bo *expBackoff, ttl time.Duration) time.Duration {
	d := bo.Next()
	if ttl > 0 && d > ttl/3 {
		d = ttl / 3
	}
	return d
}

// sleepCtx sleeps for d, returning false when ctx ended the sleep.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	select {
	case <-ctx.Done():
		return false
	case <-time.After(d):
		return true
	}
}

// execute runs one leased cell, heartbeating while it computes.
func (a *Agent) execute(ctx context.Context, agentID string, task *LeaseTask, ttl time.Duration) {
	// Heartbeat at the poll cadence — capped to a third of the lease TTL
	// — so the lease outlives cells that take many TTLs, and stop the
	// moment the cell finishes.
	hb := maxDuration(a.Poll, 50*time.Millisecond)
	if ttl > 0 && hb > ttl/3 {
		hb = ttl / 3
	}
	hbCtx, stopHB := context.WithCancel(ctx)
	defer stopHB()
	go func() {
		t := time.NewTicker(hb)
		defer t.Stop()
		for {
			select {
			case <-hbCtx.Done():
				return
			case <-t.C:
				_ = a.API.Heartbeat(agentID)
			}
		}
	}()

	result, err := a.executeCached(ctx, task)
	if err != nil {
		if ctx.Err() != nil {
			// Killed mid-cell: vanish like a dead process and let the
			// lease expire, instead of reporting a spurious failure.
			return
		}
		_ = a.API.Fail(task.LeaseID, err.Error())
		return
	}
	_ = a.API.Complete(task.LeaseID, result)
}

// executeCached runs one leased cell, serving it from the result cache
// when an earlier run — possibly of a different but overlapping scenario —
// already computed a cell with the same content identity.  A run's cells
// are enumerated on its first lease only.  The memo is keyed on the spec
// as well as the run ID, because a coordinator over a wiped store reuses
// run IDs for other specs.
func (a *Agent) executeCached(ctx context.Context, task *LeaseTask) ([]byte, error) {
	rc := a.last.Load()
	if rc == nil || rc.runID != task.RunID || !reflect.DeepEqual(rc.spec, task.Spec) {
		var err error
		if rc, err = resolveRun(a.Resolve, task); err != nil {
			return nil, err
		}
		a.last.Store(rc)
	}
	cell, err := rc.cell(task)
	if err != nil {
		return nil, err
	}
	key := cellCacheKey(task, cell)
	if result, ok := a.Cache.Get(key); ok {
		return result, nil
	}
	if a.WarmStart && a.Cache != nil {
		ctx = core.WithWarmStarts(ctx, a.Cache)
	}
	v, err := cell.Run(ctx, rc.o)
	if err != nil {
		return nil, err
	}
	result, err := core.EncodeCellResult(v)
	if err != nil {
		return nil, err
	}
	if a.Cache != nil {
		a.Cache.Put(key, result)
	}
	return result, nil
}

// resolveRun resolves a lease task's spec and enumerates its run's cells.
func resolveRun(resolve func(string) (core.Experiment, error), task *LeaseTask) (*runCells, error) {
	if resolve == nil {
		resolve = core.Lookup
	}
	exp, o, err := validateSpec(resolve, task.Spec)
	if err != nil {
		return nil, err
	}
	return &runCells{runID: task.RunID, spec: task.Spec, o: o, cells: exp.Cells(o)}, nil
}

// cell picks a lease task's cell, checking the enumeration agrees with the
// coordinator's.
func (rc *runCells) cell(task *LeaseTask) (core.Cell, error) {
	if task.CellIndex < 0 || task.CellIndex >= len(rc.cells) {
		return core.Cell{}, fmt.Errorf("ctl: %s has no cell %d (%d cells)", task.Spec.Experiment, task.CellIndex, len(rc.cells))
	}
	cell := rc.cells[task.CellIndex]
	if task.CellID != "" && cell.ID != task.CellID {
		return core.Cell{}, fmt.Errorf("ctl: cell %d of %s is %q here, coordinator says %q (version skew?)",
			task.CellIndex, task.Spec.Experiment, cell.ID, task.CellID)
	}
	return cell, nil
}

// ExecuteCell resolves and runs one cell of a lease task, returning the
// canonical result encoding the coordinator folds into the artifact.
func ExecuteCell(ctx context.Context, resolve func(string) (core.Experiment, error), task *LeaseTask) ([]byte, error) {
	rc, err := resolveRun(resolve, task)
	if err != nil {
		return nil, err
	}
	cell, err := rc.cell(task)
	if err != nil {
		return nil, err
	}
	v, err := cell.Run(ctx, rc.o)
	if err != nil {
		return nil, err
	}
	return core.EncodeCellResult(v)
}

func maxDuration(a, b time.Duration) time.Duration {
	if a > b {
		return a
	}
	return b
}
