package ctl

import (
	"bytes"
	"context"
	"errors"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/scenario"
)

// --- run abort ---------------------------------------------------------

func TestAbortRun(t *testing.T) {
	exp := testExperiment("synth", 3, nil)
	c, store := newTestCoordinator(t, CoordinatorOptions{Resolve: resolverFor(exp)})
	info, err := c.Submit(RunSpec{Experiment: "synth", Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	// One cell is in flight when the abort lands.
	a, _ := c.Register("a")
	task, err := c.Lease(context.Background(), a, 0)
	if err != nil || task == nil {
		t.Fatal(err)
	}

	aborted, err := c.Abort(info.ID, "operator said so")
	if err != nil {
		t.Fatal(err)
	}
	if aborted.Status != RunFailed || aborted.Error != "aborted: operator said so" {
		t.Fatalf("abort state wrong: %+v", aborted)
	}
	// Nothing re-queues: the queue is empty and the attempt counters are
	// untouched.
	if task2, _ := c.Lease(context.Background(), a, 0); task2 != nil {
		t.Fatalf("aborted run still queued: %+v", task2)
	}
	for _, cell := range aborted.Cells {
		if cell.Attempts != 0 {
			t.Fatalf("abort must not count attempts: %+v", cell)
		}
	}
	// The in-flight cell's late result is refused.
	result, err := ExecuteCell(context.Background(), resolverFor(exp), task)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Complete(task.LeaseID, result); !errors.Is(err, ErrStaleLease) {
		t.Fatalf("late complete after abort: %v", err)
	}
	// Aborting again conflicts; unknown runs are not found.
	if _, err := c.Abort(info.ID, ""); !errors.Is(err, ErrConflict) {
		t.Fatalf("double abort: %v", err)
	}
	if _, err := c.Abort("run-9999", ""); !errors.Is(err, ErrNotFound) {
		t.Fatalf("abort unknown run: %v", err)
	}
	// The abort is durable: a coordinator restarted over the same store
	// sees the failed run and re-queues nothing.
	c2, err := NewCoordinator(store, CoordinatorOptions{Resolve: resolverFor(exp)})
	if err != nil {
		t.Fatal(err)
	}
	ri, err := c2.Run(info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if ri.Status != RunFailed || !strings.Contains(ri.Error, "aborted") {
		t.Fatalf("abort not persisted: %+v", ri)
	}
	a2, _ := c2.Register("a2")
	if task, _ := c2.Lease(context.Background(), a2, 0); task != nil {
		t.Fatalf("restart re-queued an aborted run: %+v", task)
	}
}

func TestAbortOverHTTP(t *testing.T) {
	exp := testExperiment("synth", 2, nil)
	c, _ := newTestCoordinator(t, CoordinatorOptions{Resolve: resolverFor(exp)})
	srv := httptest.NewServer(NewHandler(c))
	defer srv.Close()
	cl := NewClient(srv.URL)

	info, err := cl.Submit(RunSpec{Experiment: "synth"})
	if err != nil {
		t.Fatal(err)
	}
	aborted, err := cl.Abort(info.ID, "ctl test")
	if err != nil {
		t.Fatal(err)
	}
	if aborted.Status != RunFailed || !strings.Contains(aborted.Error, "ctl test") {
		t.Fatalf("abort over HTTP: %+v", aborted)
	}
	if _, err := cl.Abort(info.ID, ""); err == nil {
		t.Fatal("double abort over HTTP accepted")
	}
	if _, err := cl.Abort("run-9999", ""); !errors.Is(err, ErrNotFound) {
		t.Fatalf("abort unknown over HTTP: %v", err)
	}
}

// --- agent result cache ------------------------------------------------

func TestAgentCacheReusesFinishedCells(t *testing.T) {
	var executions atomic.Int32
	gate := func(ctx context.Context, cell string) error {
		executions.Add(1)
		return nil
	}
	exp := testExperiment("synth", 3, gate)
	c, _ := newTestCoordinator(t, CoordinatorOptions{Resolve: resolverFor(exp)})
	cache := NewResultCache(64)

	runOne := func() ([]byte, string) {
		info, err := c.Submit(RunSpec{Experiment: "synth", Seed: 4})
		if err != nil {
			t.Fatal(err)
		}
		a := &Agent{Name: "cached", API: c, Poll: time.Millisecond, Resolve: resolverFor(exp), Cache: cache}
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan struct{})
		go func() { a.Run(ctx); close(done) }()
		final := waitTerminal(t, c, info.ID)
		cancel()
		<-done
		if final.Status != RunDone {
			t.Fatalf("run failed: %+v", final)
		}
		art, err := c.Artifact(info.ID)
		if err != nil {
			t.Fatal(err)
		}
		return art, info.ID
	}

	art1, _ := runOne()
	if n := executions.Load(); n != 3 {
		t.Fatalf("first run executed %d cells, want 3", n)
	}
	// The resubmission is served entirely from the cache.
	art2, _ := runOne()
	if n := executions.Load(); n != 3 {
		t.Fatalf("resubmission re-simulated: %d executions, want 3", n)
	}
	if !bytes.Equal(art1, art2) {
		t.Fatal("cached artifact differs from computed one")
	}
	hits, _, size := cache.Stats()
	if hits < 3 || size != 3 {
		t.Fatalf("cache stats: hits=%d size=%d", hits, size)
	}
	// A different seed is different content: everything re-executes.
	info, err := c.Submit(RunSpec{Experiment: "synth", Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	a := &Agent{Name: "cached", API: c, Poll: time.Millisecond, Resolve: resolverFor(exp), Cache: cache}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { a.Run(ctx); close(done) }()
	waitTerminal(t, c, info.ID)
	cancel()
	<-done
	if n := executions.Load(); n != 6 {
		t.Fatalf("different seed must re-execute: %d executions, want 6", n)
	}
}

// TestAgentMemoizesRunCells counts Resolve calls: an agent enumerates a
// run's cells on its first lease only, re-resolves for the next run and
// for a reused run ID with a different spec, and still checks every
// lease's cell ID against its enumeration.
func TestAgentMemoizesRunCells(t *testing.T) {
	exp := testExperiment("synth", 4, nil)
	var resolves atomic.Int32
	counting := func(id string) (core.Experiment, error) {
		resolves.Add(1)
		return resolverFor(exp)(id)
	}
	a := &Agent{Name: "memo", Poll: time.Millisecond, Resolve: counting}
	runOne := func(c *Coordinator, spec RunSpec) string {
		t.Helper()
		info, err := c.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		a.API = c
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan struct{})
		go func() { a.Run(ctx); close(done) }()
		final := waitTerminal(t, c, info.ID)
		cancel()
		<-done
		if final.Status != RunDone {
			t.Fatalf("run failed: %+v", final)
		}
		art, err := c.Artifact(info.ID)
		if err != nil {
			t.Fatal(err)
		}
		if want := directArtifact(t, exp, spec); !bytes.Equal(art, want) {
			t.Fatalf("%s (seed %d): artifact differs from a direct run", info.ID, spec.Seed)
		}
		return info.ID
	}

	c1, _ := newTestCoordinator(t, CoordinatorOptions{Resolve: resolverFor(exp)})
	if id := runOne(c1, RunSpec{Experiment: "synth", Seed: 4}); id != "run-0001" {
		t.Fatalf("first run is %s", id)
	}
	if n := resolves.Load(); n != 1 {
		t.Fatalf("a 4-cell run resolved %d times, want 1", n)
	}
	// A wiped store reuses run-0001 for another spec: the memo must not
	// serve the first run's cells (their seed is baked into the results).
	c2, _ := newTestCoordinator(t, CoordinatorOptions{Resolve: resolverFor(exp)})
	if id := runOne(c2, RunSpec{Experiment: "synth", Seed: 5}); id != "run-0001" {
		t.Fatalf("run on the wiped store is %s", id)
	}
	if n := resolves.Load(); n != 2 {
		t.Fatalf("same run ID with another spec: %d resolves, want 2", n)
	}
	runOne(c2, RunSpec{Experiment: "synth", Seed: 5})
	if n := resolves.Load(); n != 3 {
		t.Fatalf("second run: %d resolves, want 3", n)
	}

	// The memoized enumeration still catches version skew.
	rc := a.last.Load()
	task := &LeaseTask{RunID: rc.runID, Spec: rc.spec, CellIndex: 1, CellID: "c07"}
	if _, err := a.executeCached(context.Background(), task); err == nil || !strings.Contains(err.Error(), "version skew") {
		t.Fatalf("cell ID mismatch: want a version-skew error, got %v", err)
	}
	task.CellIndex, task.CellID = 4, ""
	if _, err := a.executeCached(context.Background(), task); err == nil || !strings.Contains(err.Error(), "no cell 4") {
		t.Fatalf("cell index out of range: got %v", err)
	}
	if n := resolves.Load(); n != 3 {
		t.Fatalf("leases of a memoized run re-resolved: %d resolves, want 3", n)
	}
}

func TestResultCacheEviction(t *testing.T) {
	cache := NewResultCache(2)
	cache.Put("a", []byte("1"))
	cache.Put("b", []byte("2"))
	cache.Put("c", []byte("3")) // evicts "a"
	if _, ok := cache.Get("a"); ok {
		t.Fatal("oldest entry not evicted")
	}
	if v, ok := cache.Get("c"); !ok || string(v) != "3" {
		t.Fatal("newest entry lost")
	}
	var nilCache *ResultCache
	if _, ok := nilCache.Get("a"); ok {
		t.Fatal("nil cache hit")
	}
	nilCache.Put("a", nil) // must not panic
}

// TestResultCacheWarmBrackets pins the cache's core.WarmStarts face:
// brackets round-trip under the warm namespace, never collide with result
// entries, overwrite on re-record, and reject degenerate values.
func TestResultCacheWarmBrackets(t *testing.T) {
	var _ core.WarmStarts = (*ResultCache)(nil) // interface satisfaction

	cache := NewResultCache(8)
	if _, _, ok := cache.WarmBracket("k"); ok {
		t.Fatal("empty cache served a bracket")
	}
	cache.RecordBracket("k", 0.4e6, 0.5e6)
	lo, hi, ok := cache.WarmBracket("k")
	if !ok || lo != 0.4e6 || hi != 0.5e6 {
		t.Fatalf("bracket did not round-trip: %v %v %v", lo, hi, ok)
	}
	// Warm entries live in their own namespace: no result collision.
	if _, ok := cache.Get("k"); ok {
		t.Fatal("warm bracket leaked into result namespace")
	}
	cache.Put("k", []byte("result"))
	if lo, hi, ok := cache.WarmBracket("k"); !ok || lo != 0.4e6 || hi != 0.5e6 {
		t.Fatal("result entry clobbered the warm bracket")
	}
	// Re-record overwrites (a stale bracket forced a cold fallback).
	cache.RecordBracket("k", 0.6e6, 0.7e6)
	if lo, _, _ := cache.WarmBracket("k"); lo != 0.6e6 {
		t.Fatalf("re-record did not overwrite: lo=%v", lo)
	}
	// Degenerate brackets are dropped.
	cache.RecordBracket("bad", 0, 1)
	cache.RecordBracket("bad", 2, 1)
	if _, _, ok := cache.WarmBracket("bad"); ok {
		t.Fatal("degenerate bracket stored")
	}
	// Nil-safety mirrors Get/Put.
	var nilCache *ResultCache
	nilCache.RecordBracket("k", 1, 2)
	if _, _, ok := nilCache.WarmBracket("k"); ok {
		t.Fatal("nil cache served a bracket")
	}
}

// --- scenarios over the wire -------------------------------------------

func tinyScenario() scenario.Spec {
	return scenario.Spec{
		Name:    "tiny-ctl",
		Title:   "tiny ctl scenario",
		Heading: "tiny ctl scenario",
		Seeds:   1,
		Measure: scenario.Measure{Kind: scenario.MeasureThroughputSeries},
		Sweeps: []scenario.Sweep{{
			Engines: []string{"flink"},
			Workers: []int{2},
			Query:   scenario.Query{Kind: "aggregation"},
			Load:    scenario.Load{Kind: scenario.LoadConstant, RateEvPerSec: 0.4e6},
		}},
	}
}

func TestScenarioRunSpecNormalization(t *testing.T) {
	s := tinyScenario()
	norm, err := RunSpec{Scenario: &s, Seed: 7, Scale: "quick"}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if norm.Experiment != "tiny-ctl" {
		t.Fatalf("scenario name not adopted: %+v", norm)
	}
	bad := tinyScenario()
	bad.Seeds = 0
	if _, err := (RunSpec{Scenario: &bad}).Normalize(); err == nil {
		t.Fatal("invalid scenario accepted")
	}
	multi := tinyScenario()
	multi.Seeds = 3
	if _, err := (RunSpec{Scenario: &multi, Replicate: 2}).Normalize(); err == nil {
		t.Fatal("double replication accepted")
	}
	if _, err := (RunSpec{Experiment: "x", Replicate: -1}).Normalize(); err == nil {
		t.Fatal("negative replicate accepted")
	}
	if norm, err := (RunSpec{Experiment: "x", Replicate: 1}).Normalize(); err != nil || norm.Replicate != 0 {
		t.Fatalf("replicate=1 should normalize to 0: %+v %v", norm, err)
	}
}

// TestScenarioRunsDistributedByteIdentical submits an inline scenario spec
// through the coordinator (over HTTP, exercising the wire encoding) and
// requires the distributed artifact to be byte-identical to a direct local
// run of the same spec.
func TestScenarioRunsDistributedByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("integration experiment")
	}
	s := tinyScenario()
	c, _ := newTestCoordinator(t, CoordinatorOptions{})
	srv := httptest.NewServer(NewHandler(c))
	defer srv.Close()
	cl := NewClient(srv.URL)

	info, err := cl.Submit(RunSpec{Scenario: &s, Seed: 7, Scale: "quick"})
	if err != nil {
		t.Fatal(err)
	}
	if info.Spec.Experiment != "tiny-ctl" || info.CellsTotal != 1 {
		t.Fatalf("submit snapshot: %+v", info)
	}
	// The agent resolves the scenario from the wire spec, not a registry.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	a := &Agent{Name: "remote", API: cl, Poll: time.Millisecond}
	done := make(chan struct{})
	go func() { a.Run(ctx); close(done) }()
	final := waitTerminal(t, c, info.ID)
	cancel()
	<-done
	if final.Status != RunDone {
		t.Fatalf("scenario run failed: %+v", final)
	}
	got, err := cl.Artifact(info.ID)
	if err != nil {
		t.Fatal(err)
	}
	exp, err := scenario.Compile(s)
	if err != nil {
		t.Fatal(err)
	}
	want := directArtifact(t, exp, RunSpec{Experiment: s.Name, Seed: 7, Scale: "quick"})
	if !bytes.Equal(got, want) {
		t.Fatalf("distributed scenario artifact differs from direct run:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// --- cell-level replication scheduling ---------------------------------

func TestReplicateExpandsToPerSeedCells(t *testing.T) {
	exp := testExperiment("synth", 2, nil)
	c, _ := newTestCoordinator(t, CoordinatorOptions{Resolve: resolverFor(exp)})
	spec := RunSpec{Experiment: "synth", Seed: 10, Replicate: 3}
	info, err := c.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if info.CellsTotal != 6 {
		t.Fatalf("replicated run has %d cells, want 6 (3 seeds × 2 cells)", info.CellsTotal)
	}
	detail, _ := c.Run(info.ID)
	if detail.Cells[0].ID != "seed10/c00" || detail.Cells[2].ID != "seed7929/c00" {
		t.Fatalf("replica cell IDs wrong: %+v", detail.Cells)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	wg := runAgents(ctx, c, 2, resolverFor(exp))
	final := waitTerminal(t, c, info.ID)
	cancel()
	wg.Wait()
	if final.Status != RunDone {
		t.Fatalf("replicated run failed: %+v", final)
	}
	got, err := c.Artifact(info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if want := directArtifact(t, core.Replicated(exp, 3), spec); !bytes.Equal(got, want) {
		t.Fatal("distributed replication differs from direct run")
	}
	art, err := core.DecodeArtifact(got)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(art.Text, "synth over 3 seeds [10 7929 15848]") {
		t.Fatalf("replication artefact text wrong: %q", art.Text)
	}
}
