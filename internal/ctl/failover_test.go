package ctl

import (
	"bytes"
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
)

// killAfterLeases wraps an AgentAPI and triggers kill the moment the agent
// acquires its nth lease — so the agent dies holding work, the worst case
// for the coordinator.
type killAfterLeases struct {
	AgentAPI
	n     atomic.Int32
	after int32
	kill  func()
}

func (k *killAfterLeases) Lease(ctx context.Context, agentID string, wait time.Duration) (*LeaseTask, error) {
	task, err := k.AgentAPI.Lease(ctx, agentID, wait)
	if task != nil && k.n.Add(1) == k.after {
		k.kill()
	}
	return task, err
}

// TestFailoverTable1ByteIdentical is the acceptance test of the control
// plane: schedule the real Table I experiment (9 bisection cells) across
// two agents, kill one mid-run, and require the final artifact to be
// byte-identical to a direct `sdpsbench -exp table1 -scale quick -seed 42`
// invocation.
func TestFailoverTable1ByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("integration experiment")
	}
	c, _ := newTestCoordinator(t, CoordinatorOptions{
		LeaseTTL: 250 * time.Millisecond, // real clock: expire fast
	})
	spec := RunSpec{Experiment: "table1", Seed: 42, Scale: "quick"}
	info, err := c.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}

	// The victim dies as soon as it acquires its second lease: one cell
	// completed (at most), one abandoned mid-simulation.
	victimCtx, kill := context.WithCancel(context.Background())
	defer kill()
	victim := &Agent{
		Name: "victim",
		API:  &killAfterLeases{AgentAPI: c, after: 2, kill: kill},
		Poll: 5 * time.Millisecond,
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	survivor := &Agent{Name: "survivor", API: c, Poll: 5 * time.Millisecond}

	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); victim.Run(victimCtx) }()
	go func() { defer wg.Done(); survivor.Run(ctx) }()

	final := waitTerminal(t, c, info.ID)
	cancel()
	kill()
	wg.Wait()
	if final.Status != RunDone {
		t.Fatalf("run did not survive the agent kill: %+v", final)
	}

	got, err := c.Artifact(info.ID)
	if err != nil {
		t.Fatal(err)
	}
	exp, err := core.Lookup("table1")
	if err != nil {
		t.Fatal(err)
	}
	want := directArtifact(t, exp, spec)
	if !bytes.Equal(got, want) {
		t.Fatalf("distributed artifact differs from direct sdpsbench run\n--- distributed (%d bytes) ---\n%.600s\n--- direct (%d bytes) ---\n%.600s",
			len(got), got, len(want), want)
	}
}

// TestDistributedFig8ByteIdentical distributes a figure experiment (whose
// cells carry full time series) and pins the same byte-identity guarantee
// without any failure injected.
func TestDistributedFig8ByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("integration experiment")
	}
	c, _ := newTestCoordinator(t, CoordinatorOptions{})
	spec := RunSpec{Experiment: "fig8", Seed: 42, Scale: "quick"}
	info, err := c.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	wg := runAgents(ctx, c, 2, nil)
	final := waitTerminal(t, c, info.ID)
	cancel()
	wg.Wait()
	if final.Status != RunDone {
		t.Fatalf("run failed: %+v", final)
	}
	got, err := c.Artifact(info.ID)
	if err != nil {
		t.Fatal(err)
	}
	exp, err := core.Lookup("fig8")
	if err != nil {
		t.Fatal(err)
	}
	if want := directArtifact(t, exp, spec); !bytes.Equal(got, want) {
		t.Fatal("distributed fig8 artifact differs from direct run")
	}
}
