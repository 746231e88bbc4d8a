package ctl

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
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

	// Corrupt the first completed cell's object on disk.  Mid-run only the
	// journal and the in-memory manifest record the cell's SHA.
	m, err := c1.Manifest(info.ID)
	if err != nil {
		t.Fatal(err)
	}
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

// manifestBytes reads a run's manifest file as the store wrote it.
func manifestBytes(t *testing.T, store *Store, id string) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(store.Dir(), "runs", id+".json"))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// assertManifestOnDisk checks that the run's manifest on disk equals the
// coordinator's in-memory one.
func assertManifestOnDisk(t *testing.T, c *Coordinator, store *Store, id string) {
	t.Helper()
	mem, err := c.Manifest(id)
	if err != nil {
		t.Fatal(err)
	}
	if disk := runManifest(t, store, id); !reflect.DeepEqual(disk, mem) {
		t.Fatalf("%s on disk differs from memory:\ndisk: %+v\n mem: %+v", id, disk, mem)
	}
}

// TestJournalIsTheOnlyMidRunRecord pins the store's write contract: a
// live run's manifest is written at submit and not rewritten by completes
// or failures; a terminal status writes it in full; and a restart
// recovers every completed cell from the journal alone, re-executing none.
func TestJournalIsTheOnlyMidRunRecord(t *testing.T) {
	var (
		mu        sync.Mutex
		completed = map[string]bool{}
		recovered atomic.Bool
	)
	gate := func(ctx context.Context, cell string) error {
		mu.Lock()
		defer mu.Unlock()
		if recovered.Load() && completed[cell] {
			t.Errorf("completed cell %s re-executed after restart", cell)
		}
		return nil
	}
	exp := testExperiment("synth", 4, gate)
	opt := CoordinatorOptions{Resolve: resolverFor(exp), MaxAttempts: 3}
	c1, store := newTestCoordinator(t, opt)
	spec := RunSpec{Experiment: "synth", Seed: 13}
	want := directArtifact(t, exp, spec)
	info, err := c1.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	submitted := manifestBytes(t, store, info.ID)

	// Complete, fail, complete: none of them rewrites the manifest.
	a, _ := c1.Register("a")
	for i, fail := range []bool{false, true, false} {
		task, err := c1.Lease(context.Background(), a, 0)
		if err != nil || task == nil {
			t.Fatalf("lease %d: %+v, %v", i, task, err)
		}
		if fail {
			err = c1.Fail(task.LeaseID, "injected")
		} else {
			var res []byte
			if res, err = ExecuteCell(context.Background(), resolverFor(exp), task); err != nil {
				t.Fatal(err)
			}
			err = c1.Complete(task.LeaseID, res)
			mu.Lock()
			completed[task.CellID] = true
			mu.Unlock()
		}
		if err != nil {
			t.Fatal(err)
		}
		if got := manifestBytes(t, store, info.ID); !bytes.Equal(got, submitted) {
			t.Fatalf("step %d rewrote the live run's manifest:\n%s", i, got)
		}
	}

	// Restart: the journal alone carries the two completes and the attempt.
	recovered.Store(true)
	c2 := reopenCoordinator(t, store, opt)
	ri, err := c2.Run(info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if ri.CellsDone != 2 {
		t.Fatalf("restart recovered %d completed cells, want 2: %+v", ri.CellsDone, ri.Cells)
	}
	attempts := 0
	for _, cell := range ri.Cells {
		attempts += cell.Attempts
	}
	if attempts != 1 {
		t.Fatalf("restart recovered %d attempts, want 1: %+v", attempts, ri.Cells)
	}
	// Replay folded the journal into the manifest.
	assertManifestOnDisk(t, c2, store, info.ID)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	wg := runAgents(ctx, c2, 2, resolverFor(exp))
	if ri := waitTerminal(t, c2, info.ID); ri.Status != RunDone {
		t.Fatalf("run should finish after restart: %+v", ri)
	}
	cancel()
	wg.Wait()
	assertManifestOnDisk(t, c2, store, info.ID)
	got, err := c2.Artifact(info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("artifact diverged across the restart")
	}

	// A failed run's manifest is written in full too.
	info2, err := c2.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c2.Abort(info2.ID, "test"); err != nil {
		t.Fatal(err)
	}
	assertManifestOnDisk(t, c2, store, info2.ID)
}

// breakJournal makes every journal append fail until the returned func
// makes the journal writable again: writes to the closed handle fail, and
// a directory standing in for the journal file keeps it from reopening.
func breakJournal(t *testing.T, store *Store) (restore func()) {
	t.Helper()
	store.jmu.Lock()
	defer store.jmu.Unlock()
	if store.jf == nil {
		t.Fatal("journal not open yet")
	}
	store.jf.Close()
	path := store.journalPath()
	if err := os.Rename(path, path+".aside"); err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(path, 0o755); err != nil {
		t.Fatal(err)
	}
	return func() {
		store.jmu.Lock()
		defer store.jmu.Unlock()
		if err := os.Remove(path); err != nil {
			t.Fatal(err)
		}
		if err := os.Rename(path+".aside", path); err != nil {
			t.Fatal(err)
		}
		store.jf = nil // reopened on the next append
	}
}

// tearJournal makes the next journal append fail the way a write cut short
// by a full disk does: part of a line lands in the file, then the write
// errors.
func tearJournal(t *testing.T, store *Store) {
	t.Helper()
	store.jmu.Lock()
	defer store.jmu.Unlock()
	if store.jf == nil {
		t.Fatal("journal not open yet")
	}
	f, err := os.OpenFile(store.journalPath(), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"op":"complete","run":"`); err != nil {
		t.Fatal(err)
	}
	f.Close()
	ro, err := os.Open(store.journalPath()) // writes to it fail
	if err != nil {
		t.Fatal(err)
	}
	store.jf.Close()
	store.jf = ro
}

// TestJournalTornAppendIsCut: a Complete whose journal write fails partway
// returns the error, and the fragment is cut off, so the retried Complete
// and every later one survive a restart instead of being swallowed by an
// undecodable line.
func TestJournalTornAppendIsCut(t *testing.T) {
	exp := testExperiment("synth", 3, nil)
	opt := CoordinatorOptions{Resolve: resolverFor(exp)}
	c1, store := newTestCoordinator(t, opt)
	spec := RunSpec{Experiment: "synth", Seed: 19}
	info, err := c1.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := c1.Register("a")
	var tasks []*LeaseTask
	var results [][]byte
	for i := 0; i < 3; i++ {
		task, err := c1.Lease(context.Background(), a, 0)
		if err != nil || task == nil {
			t.Fatalf("lease %d: %+v, %v", i, task, err)
		}
		res, err := ExecuteCell(context.Background(), resolverFor(exp), task)
		if err != nil {
			t.Fatal(err)
		}
		tasks, results = append(tasks, task), append(results, res)
	}

	tearJournal(t, store)
	if err := c1.Complete(tasks[0].LeaseID, results[0]); err == nil {
		t.Fatal("Complete succeeded on a torn journal write")
	}
	for i := 0; i < 2; i++ {
		if err := c1.Complete(tasks[i].LeaseID, results[i]); err != nil {
			t.Fatalf("Complete %d after the torn write: %v", i, err)
		}
	}

	// The third cell is still leased, so the run is live and its
	// manifest on disk holds no completes: they come from the journal.
	c2 := reopenCoordinator(t, store, opt)
	ri, err := c2.Run(info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if ri.CellsDone != 2 || ri.Cells[0].Status != CellDone || ri.Cells[1].Status != CellDone {
		t.Fatalf("restart lost completes appended after the torn write: %+v", ri.Cells)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	wg := runAgents(ctx, c2, 1, resolverFor(exp))
	if ri := waitTerminal(t, c2, info.ID); ri.Status != RunDone {
		t.Fatalf("run should finish after restart: %+v", ri)
	}
	cancel()
	wg.Wait()
	got, err := c2.Artifact(info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if want := directArtifact(t, exp, spec); !bytes.Equal(got, want) {
		t.Fatal("artifact diverged across the torn write")
	}
}

// TestJournalAppendFailureKeepsLease: with the journal unwritable,
// Complete and Fail return the error and change nothing, an expired lease
// is kept rather than re-queued without a record, and each call succeeds
// once the journal is writable again.
func TestJournalAppendFailureKeepsLease(t *testing.T) {
	exp := testExperiment("synth", 3, nil)
	clk := newFakeClock()
	opt := CoordinatorOptions{Resolve: resolverFor(exp), Clock: clk.Now, LeaseTTL: 10 * time.Second}
	c, store := newTestCoordinator(t, opt)
	spec := RunSpec{Experiment: "synth", Seed: 17}
	info, err := c.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := c.Register("a")
	var tasks []*LeaseTask
	for i := 0; i < 3; i++ {
		task, err := c.Lease(context.Background(), a, 0)
		if err != nil || task == nil {
			t.Fatalf("lease %d: %+v, %v", i, task, err)
		}
		tasks = append(tasks, task)
	}
	res0, err := ExecuteCell(context.Background(), resolverFor(exp), tasks[0])
	if err != nil {
		t.Fatal(err)
	}

	restore := breakJournal(t, store)
	if err := c.Complete(tasks[0].LeaseID, res0); err == nil {
		t.Fatal("Complete succeeded without a journal record")
	}
	if err := c.Fail(tasks[1].LeaseID, "injected"); err == nil {
		t.Fatal("Fail succeeded without a journal record")
	}
	// Every lease expires; the sweep cannot record the attempts.
	clk.Advance(11 * time.Second)
	c.mu.Lock()
	c.sweepLocked(clk.Now())
	c.mu.Unlock()

	ri, err := c.Run(info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if ri.CellsDone != 0 {
		t.Fatalf("a failed Complete marked a cell done: %+v", ri)
	}
	for i, cell := range ri.Cells {
		if cell.Status != CellLeased || cell.Attempts != 0 {
			t.Fatalf("cell %d changed without a journal record: %+v", i, cell)
		}
	}
	c.mu.Lock()
	for _, task := range tasks {
		if _, ok := c.leases[task.LeaseID]; !ok {
			t.Errorf("lease %s dropped without a journal record", task.LeaseID)
		}
	}
	c.mu.Unlock()

	restore()
	if err := c.Complete(tasks[0].LeaseID, res0); err != nil {
		t.Fatalf("Complete retry: %v", err)
	}
	if err := c.Fail(tasks[1].LeaseID, "injected"); err != nil {
		t.Fatalf("Fail retry: %v", err)
	}
	c.mu.Lock()
	c.sweepLocked(clk.Now())
	c.mu.Unlock()
	ri, err = c.Run(info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if ri.CellsDone != 1 || ri.Cells[0].Status != CellDone {
		t.Fatalf("Complete retry did not land: %+v", ri)
	}
	for i := 1; i < 3; i++ {
		if ri.Cells[i].Status != CellPending || ri.Cells[i].Attempts != 1 {
			t.Fatalf("cell %d not re-queued with one attempt: %+v", i, ri.Cells[i])
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	wg := runAgents(ctx, c, 1, resolverFor(exp))
	if ri := waitTerminal(t, c, info.ID); ri.Status != RunDone {
		t.Fatalf("run should finish once the journal is back: %+v", ri)
	}
	cancel()
	wg.Wait()
	got, err := c.Artifact(info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if want := directArtifact(t, exp, spec); !bytes.Equal(got, want) {
		t.Fatal("artifact diverged after journal failures")
	}
}
