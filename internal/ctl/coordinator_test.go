package ctl

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
)

// testExperiment builds a synthetic n-cell experiment.  Each cell returns
// a pure function of (cell index, seed); gate, when non-nil, is called at
// the start of every cell execution (tests use it to count executions and
// to block a victim agent mid-cell).
func testExperiment(id string, n int, gate func(ctx context.Context, cell string) error) core.Experiment {
	type cellResult struct {
		Cell string
		Seed uint64
		V    int
	}
	return core.Experiment{
		ID:    id,
		Title: "synthetic experiment " + id,
		Cells: func(o core.Options) []core.Cell {
			cells := make([]core.Cell, n)
			for i := 0; i < n; i++ {
				i := i
				cid := fmt.Sprintf("c%02d", i)
				cells[i] = core.Cell{
					ID: cid,
					Run: func(ctx context.Context, o core.Options) (any, error) {
						if gate != nil {
							if err := gate(ctx, cid); err != nil {
								return nil, err
							}
						}
						if err := ctx.Err(); err != nil {
							return nil, err
						}
						return cellResult{Cell: cid, Seed: o.Seed, V: i * i}, nil
					},
				}
			}
			return cells
		},
		Assemble: func(o core.Options, raws [][]byte) (*core.Outcome, error) {
			var b strings.Builder
			sum := 0.0
			for _, raw := range raws {
				var r cellResult
				if err := unmarshal(raw, &r); err != nil {
					return nil, err
				}
				fmt.Fprintf(&b, "%s seed=%d v=%d\n", r.Cell, r.Seed, r.V)
				sum += float64(r.V)
			}
			return &core.Outcome{Text: b.String(), Metrics: map[string]float64{"sum": sum}}, nil
		},
	}
}

func unmarshal(raw []byte, v any) error { return json.Unmarshal(raw, v) }

// resolverFor builds a Resolve function over a fixed experiment set.
func resolverFor(exps ...core.Experiment) func(string) (core.Experiment, error) {
	return func(id string) (core.Experiment, error) {
		for _, e := range exps {
			if e.ID == id {
				return e, nil
			}
		}
		return core.Experiment{}, fmt.Errorf("unknown experiment %q", id)
	}
}

// fakeClock is a manual time source for deterministic lease expiry.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock { return &fakeClock{t: time.Unix(1000, 0)} }

func (f *fakeClock) Now() time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.t
}

func (f *fakeClock) Advance(d time.Duration) {
	f.mu.Lock()
	f.t = f.t.Add(d)
	f.mu.Unlock()
}

// directArtifact runs the experiment in-process and encodes its artifact —
// the byte-identity reference for every distributed test.
func directArtifact(t *testing.T, exp core.Experiment, spec RunSpec) []byte {
	t.Helper()
	o, err := spec.Options()
	if err != nil {
		t.Fatal(err)
	}
	out, err := exp.RunContext(context.Background(), o, nil)
	if err != nil {
		t.Fatal(err)
	}
	data, err := core.NewArtifact(exp, o, out).Encode()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func newTestCoordinator(t testing.TB, opt CoordinatorOptions) (*Coordinator, *Store) {
	t.Helper()
	store, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCoordinator(store, opt)
	if err != nil {
		t.Fatal(err)
	}
	return c, store
}

// runAgents hosts n in-process agents until the context is cancelled.
func runAgents(ctx context.Context, c *Coordinator, n int, resolve func(string) (core.Experiment, error)) *sync.WaitGroup {
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		a := &Agent{Name: fmt.Sprintf("test-%d", i), API: c, Poll: 2 * time.Millisecond, Resolve: resolve}
		wg.Add(1)
		go func() {
			defer wg.Done()
			a.Run(ctx)
		}()
	}
	return &wg
}

// waitTerminal polls until the run leaves the live states.
func waitTerminal(t *testing.T, c *Coordinator, id string) RunInfo {
	t.Helper()
	// Generous: the table1 failover run takes ~6s plain but far longer
	// under -race.
	deadline := time.Now().Add(120 * time.Second)
	for time.Now().Before(deadline) {
		info, err := c.Run(id)
		if err != nil {
			t.Fatal(err)
		}
		if info.Status.Terminal() {
			return info
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("run %s did not finish", id)
	return RunInfo{}
}

func TestCoordinatorRunsExperimentByteIdentical(t *testing.T) {
	exp := testExperiment("synth", 7, nil)
	c, _ := newTestCoordinator(t, CoordinatorOptions{Resolve: resolverFor(exp)})

	spec := RunSpec{Experiment: "synth", Seed: 9, Scale: "quick"}
	events, cancelSub := c.Subscribe("")
	defer cancelSub()

	info, err := c.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if info.Status != RunQueued || info.CellsTotal != 7 {
		t.Fatalf("submit snapshot: %+v", info)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	wg := runAgents(ctx, c, 2, resolverFor(exp))

	final := waitTerminal(t, c, info.ID)
	cancel()
	wg.Wait()

	if final.Status != RunDone || final.CellsDone != 7 {
		t.Fatalf("run did not complete: %+v", final)
	}
	got, err := c.Artifact(info.ID)
	if err != nil {
		t.Fatal(err)
	}
	want := directArtifact(t, exp, spec)
	if !bytes.Equal(got, want) {
		t.Fatalf("distributed artifact differs from direct run:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}

	// The event stream saw the lifecycle: queued -> cells -> done.
	var sawQueued, sawCellDone, sawRunDone bool
	for drained := false; !drained; {
		select {
		case ev := <-events:
			switch {
			case ev.Type == "run" && ev.Status == RunQueued:
				sawQueued = true
			case ev.Type == "cell" && ev.CellStatus == CellDone:
				sawCellDone = true
			case ev.Type == "run" && ev.Status == RunDone:
				sawRunDone = true
			}
		default:
			drained = true
		}
	}
	if !sawQueued || !sawCellDone || !sawRunDone {
		t.Fatalf("event stream incomplete: queued=%v cellDone=%v runDone=%v", sawQueued, sawCellDone, sawRunDone)
	}
}

func TestLeaseExpiryRequeuesCell(t *testing.T) {
	exp := testExperiment("synth", 1, nil)
	clk := newFakeClock()
	c, _ := newTestCoordinator(t, CoordinatorOptions{
		Resolve:  resolverFor(exp),
		Clock:    clk.Now,
		LeaseTTL: 10 * time.Second,
	})
	info, err := c.Submit(RunSpec{Experiment: "synth", Seed: 1})
	if err != nil {
		t.Fatal(err)
	}

	// Agent a1 takes the only cell and goes silent.
	a1, _ := c.Register("a1")
	task1, err := c.Lease(context.Background(), a1, 0)
	if err != nil || task1 == nil {
		t.Fatalf("lease: %+v, %v", task1, err)
	}
	// Within the TTL nothing is re-queued.
	a2, _ := c.Register("a2")
	if task, _ := c.Lease(context.Background(), a2, 0); task != nil {
		t.Fatalf("cell double-leased: %+v", task)
	}
	// Past the TTL the cell comes back, with the attempt recorded.
	clk.Advance(11 * time.Second)
	task2, err := c.Lease(context.Background(), a2, 0)
	if err != nil || task2 == nil {
		t.Fatalf("expired cell not re-leased: %v", err)
	}
	if task2.CellIndex != task1.CellIndex || task2.LeaseID == task1.LeaseID {
		t.Fatalf("re-lease wrong: %+v vs %+v", task2, task1)
	}
	ri, _ := c.Run(info.ID)
	if ri.Cells[0].Attempts != 1 {
		t.Fatalf("expiry must count as an attempt: %+v", ri.Cells[0])
	}

	// The dead agent's late result is refused; the live agent's lands.
	result, err := ExecuteCell(context.Background(), resolverFor(exp), task2)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Complete(task1.LeaseID, result); !errors.Is(err, ErrStaleLease) {
		t.Fatalf("stale complete accepted: %v", err)
	}
	if err := c.Complete(task2.LeaseID, result); err != nil {
		t.Fatal(err)
	}
	if ri := waitTerminal(t, c, info.ID); ri.Status != RunDone {
		t.Fatalf("run should finish: %+v", ri)
	}
}

func TestHeartbeatKeepsLeaseAlive(t *testing.T) {
	exp := testExperiment("synth", 1, nil)
	clk := newFakeClock()
	c, _ := newTestCoordinator(t, CoordinatorOptions{
		Resolve:  resolverFor(exp),
		Clock:    clk.Now,
		LeaseTTL: 10 * time.Second,
	})
	if _, err := c.Submit(RunSpec{Experiment: "synth"}); err != nil {
		t.Fatal(err)
	}
	a1, _ := c.Register("a1")
	task, err := c.Lease(context.Background(), a1, 0)
	if err != nil || task == nil {
		t.Fatal(err)
	}
	// Heartbeats every 8s keep the lease healthy across 3 TTLs.
	a2, _ := c.Register("a2")
	for i := 0; i < 4; i++ {
		clk.Advance(8 * time.Second)
		if err := c.Heartbeat(a1); err != nil {
			t.Fatal(err)
		}
		if stolen, _ := c.Lease(context.Background(), a2, 0); stolen != nil {
			t.Fatalf("heartbeated lease was re-queued at step %d", i)
		}
	}
}

func TestFailuresExhaustAttemptsAndFailRun(t *testing.T) {
	exp := testExperiment("synth", 3, nil)
	c, _ := newTestCoordinator(t, CoordinatorOptions{Resolve: resolverFor(exp), MaxAttempts: 2})
	info, err := c.Submit(RunSpec{Experiment: "synth"})
	if err != nil {
		t.Fatal(err)
	}
	a, _ := c.Register("a")
	failures := 0
	for i := 0; i < 10; i++ {
		task, err := c.Lease(context.Background(), a, 0)
		if err != nil {
			t.Fatal(err)
		}
		if task == nil {
			break
		}
		if task.CellID == "c01" {
			failures++
			if err := c.Fail(task.LeaseID, "synthetic crash"); err != nil {
				ri, _ := c.Run(info.ID)
				if ri.Status == RunFailed {
					break
				}
				t.Fatal(err)
			}
			continue
		}
		result, err := ExecuteCell(context.Background(), resolverFor(exp), task)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Complete(task.LeaseID, result); err != nil {
			t.Fatal(err)
		}
	}
	ri, _ := c.Run(info.ID)
	if ri.Status != RunFailed || failures != 2 {
		t.Fatalf("run should fail after MaxAttempts=2 (saw %d failures): %+v", failures, ri)
	}
	if !strings.Contains(ri.Error, "c01") {
		t.Fatalf("failure should name the cell: %q", ri.Error)
	}
	// A failed run's remaining cells are gone from the queue.
	if task, _ := c.Lease(context.Background(), a, 0); task != nil {
		t.Fatalf("failed run still queued: %+v", task)
	}
	if _, err := c.Artifact(info.ID); err == nil {
		t.Fatal("failed run served an artifact")
	}
}

func TestCoordinatorResumesFromStore(t *testing.T) {
	var executions atomic.Int32
	gate := func(ctx context.Context, cell string) error {
		executions.Add(1)
		return nil
	}
	exp := testExperiment("synth", 4, gate)
	spec := RunSpec{Experiment: "synth", Seed: 3, Scale: "quick"}

	store, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	c1, err := NewCoordinator(store, CoordinatorOptions{Resolve: resolverFor(exp)})
	if err != nil {
		t.Fatal(err)
	}
	info, err := c1.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	// Complete exactly two cells, then "crash" (drop c1 on the floor).
	a, _ := c1.Register("a")
	for i := 0; i < 2; i++ {
		task, err := c1.Lease(context.Background(), a, 0)
		if err != nil || task == nil {
			t.Fatal(err)
		}
		result, err := ExecuteCell(context.Background(), resolverFor(exp), task)
		if err != nil {
			t.Fatal(err)
		}
		if err := c1.Complete(task.LeaseID, result); err != nil {
			t.Fatal(err)
		}
	}
	if n := executions.Load(); n != 2 {
		t.Fatalf("expected 2 executions before the crash, got %d", n)
	}

	// A new coordinator over the same store resumes the run: done cells
	// come from the object store, only the remaining two execute.
	c2, err := NewCoordinator(store, CoordinatorOptions{Resolve: resolverFor(exp)})
	if err != nil {
		t.Fatal(err)
	}
	ri, err := c2.Run(info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if ri.CellsDone != 2 {
		t.Fatalf("resume lost results: %+v", ri)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	wg := runAgents(ctx, c2, 1, resolverFor(exp))
	final := waitTerminal(t, c2, info.ID)
	cancel()
	wg.Wait()
	if final.Status != RunDone {
		t.Fatalf("resumed run failed: %+v", final)
	}
	if n := executions.Load(); n != 4 {
		t.Fatalf("resume re-executed finished cells: %d executions", n)
	}
	got, err := c2.Artifact(info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if want := directArtifact(t, exp, spec); !bytes.Equal(got, want) {
		t.Fatal("resumed artifact differs from direct run")
	}
	// A fresh submission on the resumed coordinator gets a fresh ID.
	info2, err := c2.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if info2.ID == info.ID {
		t.Fatalf("run ID collision after resume: %s", info2.ID)
	}
}

func TestSubmitUnknownExperiment(t *testing.T) {
	c, _ := newTestCoordinator(t, CoordinatorOptions{Resolve: resolverFor()})
	if _, err := c.Submit(RunSpec{Experiment: "nope"}); err == nil {
		t.Fatal("unknown experiment accepted")
	}
	if _, err := c.Run("run-9999"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("unknown run: %v", err)
	}
	if _, err := c.Lease(context.Background(), "agent-9999", 0); !errors.Is(err, ErrNotFound) {
		t.Fatalf("unknown agent: %v", err)
	}
}
