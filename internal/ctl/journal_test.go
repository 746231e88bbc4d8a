package ctl

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// reopenCoordinator models a coordinator restart: a second coordinator is
// built over the same store, so manifests and journal are all it has.
func reopenCoordinator(t *testing.T, store *Store, opt CoordinatorOptions) *Coordinator {
	t.Helper()
	c, err := NewCoordinator(store, opt)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// runManifest fetches a run's persisted manifest straight from the store.
func runManifest(t *testing.T, store *Store, id string) *RunManifest {
	t.Helper()
	ms, err := store.LoadRuns()
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range ms {
		if m.ID == id {
			return m
		}
	}
	t.Fatalf("run %s not in store", id)
	return nil
}

// TestLeaseExpiryRacesAssembly pins the race between a dying agent's last
// lease and artifact assembly: the expired lease's late Complete must be
// refused, the replacement's must land, and the artifact must still be
// byte-identical to a direct run.
func TestLeaseExpiryRacesAssembly(t *testing.T) {
	exp := testExperiment("synth", 2, nil)
	clk := newFakeClock()
	c, _ := newTestCoordinator(t, CoordinatorOptions{
		Resolve:  resolverFor(exp),
		Clock:    clk.Now,
		LeaseTTL: 10 * time.Second,
	})
	spec := RunSpec{Experiment: "synth", Seed: 7}
	info, err := c.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}

	// Agent a completes cell 0, leases cell 1 and goes silent.
	a, _ := c.Register("a")
	task0, err := c.Lease(context.Background(), a, 0)
	if err != nil || task0 == nil {
		t.Fatalf("lease 0: %+v, %v", task0, err)
	}
	res0, err := ExecuteCell(context.Background(), resolverFor(exp), task0)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Complete(task0.LeaseID, res0); err != nil {
		t.Fatal(err)
	}
	task1, err := c.Lease(context.Background(), a, 0)
	if err != nil || task1 == nil {
		t.Fatalf("lease 1: %+v, %v", task1, err)
	}

	// Past the TTL agent b picks the cell up and finishes the run.
	clk.Advance(11 * time.Second)
	b, _ := c.Register("b")
	task1b, err := c.Lease(context.Background(), b, 0)
	if err != nil || task1b == nil {
		t.Fatalf("expired cell not re-leased: %v", err)
	}
	if task1b.CellIndex != task1.CellIndex {
		t.Fatalf("wrong cell re-leased: %+v", task1b)
	}
	res1, err := ExecuteCell(context.Background(), resolverFor(exp), task1b)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Complete(task1b.LeaseID, res1); err != nil {
		t.Fatal(err)
	}
	ri := waitTerminal(t, c, info.ID)
	if ri.Status != RunDone {
		t.Fatalf("run should be done: %+v", ri)
	}

	// Agent a comes back from the dead after assembly: its Complete for
	// the old lease must be refused, not corrupt the finished artifact.
	if err := c.Complete(task1.LeaseID, res1); !errors.Is(err, ErrStaleLease) {
		t.Fatalf("late complete after assembly: want stale lease, got %v", err)
	}
	if ri.Cells[task1.CellIndex].Attempts != 1 {
		t.Fatalf("expiry must count as an attempt: %+v", ri.Cells)
	}
	got, err := c.Artifact(info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if want := directArtifact(t, exp, spec); !bytes.Equal(got, want) {
		t.Fatalf("artifact diverged after lease race:\n got: %s\nwant: %s", got, want)
	}
}

// TestJournalReplaysFailBeforeRequeue simulates a coordinator crash in the
// window between journaling a cell failure and saving the manifest: the
// journal entry alone must carry the attempt count across the restart.
func TestJournalReplaysFailBeforeRequeue(t *testing.T) {
	t.Run("requeued", func(t *testing.T) {
		exp := testExperiment("synth", 3, nil)
		opt := CoordinatorOptions{Resolve: resolverFor(exp), MaxAttempts: 3}
		c1, store := newTestCoordinator(t, opt)
		spec := RunSpec{Experiment: "synth", Seed: 3}
		info, err := c1.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		a, _ := c1.Register("a")
		task, err := c1.Lease(context.Background(), a, 0)
		if err != nil || task == nil {
			t.Fatalf("lease: %+v, %v", task, err)
		}
		// The crash: the Fail's journal entry is on disk but Fail itself
		// (requeue + manifest save) never ran.
		if err := store.AppendJournal(JournalEntry{
			Op: opFail, Run: info.ID, Cell: task.CellIndex, Attempts: 1, Reason: "injected crash",
		}); err != nil {
			t.Fatal(err)
		}

		c2 := reopenCoordinator(t, store, opt)
		ri, err := c2.Run(info.ID)
		if err != nil {
			t.Fatal(err)
		}
		if ri.Cells[task.CellIndex].Attempts != 1 {
			t.Fatalf("journaled attempt lost across restart: %+v", ri.Cells)
		}
		if ri.Cells[task.CellIndex].Status != CellPending {
			t.Fatalf("failed cell should be pending again: %+v", ri.Cells)
		}
		// The journaled attempt must now be durable in the manifest too.
		if m := runManifest(t, store, info.ID); m.Cells[task.CellIndex].Attempts != 1 {
			t.Fatalf("replayed attempt not saved: %+v", m.Cells)
		}

		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		wg := runAgents(ctx, c2, 2, resolverFor(exp))
		if ri := waitTerminal(t, c2, info.ID); ri.Status != RunDone {
			t.Fatalf("run should finish after replay: %+v", ri)
		}
		cancel()
		wg.Wait()
		got, err := c2.Artifact(info.ID)
		if err != nil {
			t.Fatal(err)
		}
		if want := directArtifact(t, exp, spec); !bytes.Equal(got, want) {
			t.Fatalf("artifact diverged after fail replay")
		}
	})

	t.Run("exhausted", func(t *testing.T) {
		exp := testExperiment("synth", 3, nil)
		opt := CoordinatorOptions{Resolve: resolverFor(exp), MaxAttempts: 2}
		c1, store := newTestCoordinator(t, opt)
		info, err := c1.Submit(RunSpec{Experiment: "synth"})
		if err != nil {
			t.Fatal(err)
		}
		a, _ := c1.Register("a")
		task, err := c1.Lease(context.Background(), a, 0)
		if err != nil || task == nil {
			t.Fatalf("lease: %+v, %v", task, err)
		}
		if err := store.AppendJournal(JournalEntry{
			Op: opFail, Run: info.ID, Cell: task.CellIndex, Attempts: 2, Reason: "injected crash",
		}); err != nil {
			t.Fatal(err)
		}

		c2 := reopenCoordinator(t, store, opt)
		ri, err := c2.Run(info.ID)
		if err != nil {
			t.Fatal(err)
		}
		if ri.Status != RunFailed {
			t.Fatalf("exhausted cell should fail the run on replay: %+v", ri)
		}
		if ri.Error == "" {
			t.Fatalf("failed run should carry the reason: %+v", ri)
		}
	})
}

// TestJournalCrashRecoveryProperty is a small randomized property test: for
// several seeds, a run is driven partway (random completes, possibly a
// dangling lease), the coordinator is dropped cold, and a fresh one over
// the same store must (a) never re-execute a completed cell and (b) still
// produce the byte-identical artifact.
func TestJournalCrashRecoveryProperty(t *testing.T) {
	const cells = 6
	for seed := int64(1); seed <= 5; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			var (
				mu        sync.Mutex
				completed = map[string]bool{}
				recovered atomic.Bool
			)
			gate := func(ctx context.Context, cell string) error {
				if recovered.Load() {
					mu.Lock()
					was := completed[cell]
					mu.Unlock()
					if was {
						t.Errorf("completed cell %s re-executed after recovery", cell)
					}
				}
				return nil
			}
			exp := testExperiment("prop", cells, gate)
			clk := newFakeClock()
			opt := CoordinatorOptions{
				Resolve:  resolverFor(exp),
				Clock:    clk.Now,
				LeaseTTL: 10 * time.Second,
			}
			c1, store := newTestCoordinator(t, opt)
			spec := RunSpec{Experiment: "prop", Seed: uint64(seed)}
			// The byte-identity reference, computed before the recovery
			// flag arms the gate (a direct run executes every cell too).
			want := directArtifact(t, exp, spec)
			info, err := c1.Submit(spec)
			if err != nil {
				t.Fatal(err)
			}

			// Drive the run partway with direct API calls: every leased
			// cell is either completed or left dangling at random.
			a, _ := c1.Register("crash-victim")
			steps := 1 + rng.Intn(cells)
			for i := 0; i < steps; i++ {
				task, err := c1.Lease(context.Background(), a, 0)
				if err != nil || task == nil {
					break
				}
				if rng.Intn(2) == 0 {
					continue // dangling lease: the crash strands it
				}
				res, err := ExecuteCell(context.Background(), resolverFor(exp), task)
				if err != nil {
					t.Fatal(err)
				}
				if err := c1.Complete(task.LeaseID, res); err != nil {
					t.Fatal(err)
				}
				mu.Lock()
				completed[task.CellID] = true
				mu.Unlock()
			}

			// The crash: c1 is dropped with no shutdown; c2 gets only the
			// store (manifests + journal).
			recovered.Store(true)
			c2 := reopenCoordinator(t, store, opt)
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			wg := runAgents(ctx, c2, 2, resolverFor(exp))
			ri := waitTerminal(t, c2, info.ID)
			cancel()
			wg.Wait()
			if ri.Status != RunDone {
				t.Fatalf("run should finish after crash recovery: %+v", ri)
			}
			got, err := c2.Artifact(info.ID)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("artifact diverged across crash recovery")
			}
		})
	}
}

// TestResumeQuarantinesCorruptResult corrupts a completed cell's stored
// result on disk: the restarted coordinator must quarantine the bad object
// and recompute only that cell, not fail the run or re-run healthy cells.
func TestResumeQuarantinesCorruptResult(t *testing.T) {
	var (
		mu        sync.Mutex
		execs     = map[string]int{}
		completed = map[string]bool{}
		recovered atomic.Bool
	)
	gate := func(ctx context.Context, cell string) error {
		mu.Lock()
		defer mu.Unlock()
		if recovered.Load() {
			execs[cell]++
		}
		return nil
	}
	exp := testExperiment("synth", 4, gate)
	opt := CoordinatorOptions{Resolve: resolverFor(exp)}
	c1, store := newTestCoordinator(t, opt)
	spec := RunSpec{Experiment: "synth", Seed: 11}
	// Reference bytes first: the direct run executes every cell, and the
	// gate must not count those as post-recovery executions.
	want := directArtifact(t, exp, spec)
	info, err := c1.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}

	// Complete the first two cells, then crash.
	a, _ := c1.Register("a")
	for i := 0; i < 2; i++ {
		task, err := c1.Lease(context.Background(), a, 0)
		if err != nil || task == nil {
			t.Fatalf("lease %d: %+v, %v", i, task, err)
		}
		res, err := ExecuteCell(context.Background(), resolverFor(exp), task)
		if err != nil {
			t.Fatal(err)
		}
		if err := c1.Complete(task.LeaseID, res); err != nil {
			t.Fatal(err)
		}
		mu.Lock()
		completed[task.CellID] = true
		mu.Unlock()
	}

	// Corrupt the first completed cell's object on disk.
	m := runManifest(t, store, info.ID)
	sha := m.Cells[0].ResultSHA
	if sha == "" {
		t.Fatalf("cell 0 should be done: %+v", m.Cells)
	}
	objPath := filepath.Join(store.Dir(), "objects", sha[:2], sha[2:])
	if err := os.WriteFile(objPath, []byte("garbage, not the result"), 0o644); err != nil {
		t.Fatal(err)
	}

	recovered.Store(true)
	c2 := reopenCoordinator(t, store, opt)

	// The bad object is quarantined, not deleted: the evidence survives.
	if _, err := os.Stat(filepath.Join(store.Dir(), "quarantine", sha)); err != nil {
		t.Fatalf("corrupt object not quarantined: %v", err)
	}
	if m := runManifest(t, store, info.ID); m.Cells[0].ResultSHA != "" {
		t.Fatalf("corrupt cell's ResultSHA should be cleared: %+v", m.Cells[0])
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	wg := runAgents(ctx, c2, 2, resolverFor(exp))
	ri := waitTerminal(t, c2, info.ID)
	cancel()
	wg.Wait()
	if ri.Status != RunDone {
		t.Fatalf("run should finish after quarantine: %+v", ri)
	}

	mu.Lock()
	c00, c01 := execs["c00"], execs["c01"]
	mu.Unlock()
	if c00 == 0 {
		t.Fatal("corrupt cell c00 was never recomputed")
	}
	if c01 != 0 {
		t.Fatalf("healthy cell c01 re-executed %d times after recovery", c01)
	}
	got, err := c2.Artifact(info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("artifact diverged after quarantine recovery")
	}
}

// flakyAPI wraps an AgentAPI and fails every call while down, modelling a
// coordinator outage as seen from an agent's side of the wire.
type flakyAPI struct {
	inner     AgentAPI
	down      atomic.Bool
	registers atomic.Int64
	failed    atomic.Int64
}

func (f *flakyAPI) err() error {
	f.failed.Add(1)
	return errors.New("dial tcp: connection refused")
}

func (f *flakyAPI) Register(name string) (string, error) {
	if f.down.Load() {
		return "", f.err()
	}
	f.registers.Add(1)
	return f.inner.Register(name)
}

func (f *flakyAPI) Heartbeat(agentID string) error {
	if f.down.Load() {
		return f.err()
	}
	return f.inner.Heartbeat(agentID)
}

func (f *flakyAPI) Lease(ctx context.Context, agentID string, wait time.Duration) (*LeaseTask, error) {
	if f.down.Load() {
		return nil, f.err()
	}
	return f.inner.Lease(ctx, agentID, wait)
}

func (f *flakyAPI) Complete(leaseID string, result []byte) error {
	if f.down.Load() {
		return f.err()
	}
	return f.inner.Complete(leaseID, result)
}

func (f *flakyAPI) Fail(leaseID string, reason string) error {
	if f.down.Load() {
		return f.err()
	}
	return f.inner.Fail(leaseID, reason)
}

// TestAgentSurvivesCoordinatorOutage starts an agent against a dead
// coordinator, brings the coordinator up mid-backoff, and expects the run
// to finish without the agent ever having given up.
func TestAgentSurvivesCoordinatorOutage(t *testing.T) {
	exp := testExperiment("synth", 3, nil)
	c, _ := newTestCoordinator(t, CoordinatorOptions{Resolve: resolverFor(exp)})
	spec := RunSpec{Experiment: "synth", Seed: 5}
	info, err := c.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}

	flaky := &flakyAPI{inner: c}
	flaky.down.Store(true) // coordinator is down before the agent starts
	agent := &Agent{
		Name:       "survivor",
		API:        flaky,
		Poll:       time.Millisecond,
		MaxBackoff: 5 * time.Millisecond,
		Resolve:    resolverFor(exp),
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan struct{})
	go func() {
		defer close(done)
		agent.Run(ctx)
	}()

	// Let the agent accumulate some failed attempts, then recover.
	deadline := time.Now().Add(5 * time.Second)
	for flaky.failed.Load() < 3 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if flaky.failed.Load() < 3 {
		t.Fatal("agent stopped retrying against a dead coordinator")
	}
	flaky.down.Store(false)

	ri := waitTerminal(t, c, info.ID)
	if ri.Status != RunDone {
		t.Fatalf("run should finish once the coordinator recovers: %+v", ri)
	}
	if flaky.registers.Load() == 0 {
		t.Fatal("agent never registered after the outage")
	}
	got, err := c.Artifact(info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if want := directArtifact(t, exp, spec); !bytes.Equal(got, want) {
		t.Fatalf("artifact diverged after agent outage")
	}
	cancel()
	<-done
}

// TestAgentReregistersAfterCoordinatorRestart: a restarted coordinator that
// lost its journal answers Lease with ErrNotFound; the agent must come back
// under a fresh registration instead of spinning on a dead ID.
func TestAgentReregistersAfterCoordinatorRestart(t *testing.T) {
	exp := testExperiment("synth", 2, nil)
	c, _ := newTestCoordinator(t, CoordinatorOptions{Resolve: resolverFor(exp)})
	info, err := c.Submit(RunSpec{Experiment: "synth", Seed: 9})
	if err != nil {
		t.Fatal(err)
	}

	// forgetful answers the first Lease with ErrNotFound regardless of
	// registration, like a coordinator that restarted without its journal.
	forgotten := &atomic.Bool{}
	flaky := &flakyAPI{inner: c}
	api := &forgetfulAPI{flakyAPI: flaky, forgotten: forgotten}
	agent := &Agent{
		Name:       "amnesia-client",
		API:        api,
		Poll:       time.Millisecond,
		MaxBackoff: 5 * time.Millisecond,
		Resolve:    resolverFor(exp),
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan struct{})
	go func() {
		defer close(done)
		agent.Run(ctx)
	}()

	ri := waitTerminal(t, c, info.ID)
	if ri.Status != RunDone {
		t.Fatalf("run should finish after re-registration: %+v", ri)
	}
	if n := flaky.registers.Load(); n < 2 {
		t.Fatalf("agent should have re-registered after ErrNotFound, got %d registrations", n)
	}
	cancel()
	<-done
}

// forgetfulAPI rejects the first Lease with ErrNotFound.
type forgetfulAPI struct {
	*flakyAPI
	forgotten *atomic.Bool
}

func (f *forgetfulAPI) Lease(ctx context.Context, agentID string, wait time.Duration) (*LeaseTask, error) {
	if f.forgotten.CompareAndSwap(false, true) {
		return nil, fmt.Errorf("%w: agent %s", ErrNotFound, agentID)
	}
	return f.flakyAPI.Lease(ctx, agentID, wait)
}

// TestJournalTornTailIsIgnored: a crash mid-append leaves a torn final
// line; replay must stop there instead of erroring out.
func TestJournalTornTailIsIgnored(t *testing.T) {
	exp := testExperiment("synth", 2, nil)
	opt := CoordinatorOptions{Resolve: resolverFor(exp)}
	c1, store := newTestCoordinator(t, opt)
	info, err := c1.Submit(RunSpec{Experiment: "synth"})
	if err != nil {
		t.Fatal(err)
	}
	a, _ := c1.Register("a")
	if task, err := c1.Lease(context.Background(), a, 0); err != nil || task == nil {
		t.Fatalf("lease: %+v, %v", task, err)
	}
	// The torn tail: half a JSON object with no newline.
	f, err := os.OpenFile(filepath.Join(store.Dir(), "journal.jsonl"), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"op":"complete","lease":"lease-`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	c2 := reopenCoordinator(t, store, opt)
	ri, err := c2.Run(info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if ri.Status.Terminal() {
		t.Fatalf("run should still be live after torn-tail replay: %+v", ri)
	}
	// The compacted journal must be clean JSONL again.
	entries, err := store.LoadJournal()
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.Op != opAgent && e.Op != opLease {
			t.Fatalf("compacted journal holds folded entry: %+v", e)
		}
	}
}
