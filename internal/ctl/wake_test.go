package ctl

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
)

// wakeBound is how long a queued cell may take to reach an agent blocked
// in Lease with an hour-long idle wait: only a wake can deliver it in
// time.
const wakeBound = 2 * time.Second

// leaseResult is one Lease call's outcome, collected from a goroutine.
type leaseResult struct {
	task *LeaseTask
	err  error
	took time.Duration
}

// leaseAsync starts a Lease in a goroutine.
func leaseAsync(ctx context.Context, c *Coordinator, agentID string, wait time.Duration) <-chan leaseResult {
	out := make(chan leaseResult, 1)
	go func() {
		start := time.Now()
		task, err := c.Lease(ctx, agentID, wait)
		out <- leaseResult{task, err, time.Since(start)}
	}()
	return out
}

// awaitBlocked waits until n Leases are blocked on the coordinator's
// empty queue, so what the test does next must reach them by a wake.
func awaitBlocked(t *testing.T, c *Coordinator, n int32) {
	t.Helper()
	for deadline := time.Now().Add(wakeBound); c.blocked.Load() < n; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d Leases blocked after %v", c.blocked.Load(), n, wakeBound)
		}
	}
}

// awaitLease receives a Lease outcome or fails the test after bound.
func awaitLease(t *testing.T, ch <-chan leaseResult, bound time.Duration) leaseResult {
	t.Helper()
	select {
	case r := <-ch:
		return r
	case <-time.After(bound):
		t.Fatalf("Lease still blocked after %v", bound)
		return leaseResult{}
	}
}

// runIdleAgent starts an agent whose idle wait is an hour and waits until
// it is blocked in Lease.  The returned stop cancels the agent and waits
// for it to exit.
func runIdleAgent(t *testing.T, c *Coordinator, api AgentAPI, resolve func(string) (core.Experiment, error)) (stop func()) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	a := &Agent{Name: "idle", API: api, Poll: time.Hour, Resolve: resolve}
	go func() {
		defer close(done)
		a.Run(ctx)
	}()
	awaitBlocked(t, c, 1)
	return func() {
		cancel()
		select {
		case <-done:
		case <-time.After(wakeBound):
			t.Fatal("agent did not exit after its context was cancelled")
		}
	}
}

// submitAndWait submits a run and requires it to finish within wakeBound.
func submitAndWait(t *testing.T, c *Coordinator, submit func() (RunInfo, error)) {
	t.Helper()
	start := time.Now()
	info, err := submit()
	if err != nil {
		t.Fatal(err)
	}
	for {
		ri, err := c.Run(info.ID)
		if err != nil {
			t.Fatal(err)
		}
		if ri.Status == RunDone {
			return
		}
		if ri.Status.Terminal() {
			t.Fatalf("run ended %s: %s", ri.Status, ri.Error)
		}
		if time.Since(start) > wakeBound {
			t.Fatalf("run %s still %s after %v: the idle agent was not woken", info.ID, ri.Status, wakeBound)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestSubmitWakesInProcessAgent(t *testing.T) {
	exp := testExperiment("synth", 3, nil)
	c, _ := newTestCoordinator(t, CoordinatorOptions{Resolve: resolverFor(exp)})
	stop := runIdleAgent(t, c, c, resolverFor(exp))
	defer stop()
	submitAndWait(t, c, func() (RunInfo, error) { return c.Submit(RunSpec{Experiment: "synth", Seed: 1}) })
}

func TestSubmitWakesRemoteAgent(t *testing.T) {
	exp := testExperiment("synth", 3, nil)
	c, _ := newTestCoordinator(t, CoordinatorOptions{Resolve: resolverFor(exp)})
	srv := httptest.NewServer(NewHandler(c))
	defer srv.Close()
	stop := runIdleAgent(t, c, NewClient(srv.URL), resolverFor(exp))
	defer stop()
	cl := NewClient(srv.URL)
	submitAndWait(t, c, func() (RunInfo, error) { return cl.Submit(RunSpec{Experiment: "synth", Seed: 1}) })
}

func TestFailRequeueWakesWaitingAgent(t *testing.T) {
	exp := testExperiment("synth", 1, nil)
	c, _ := newTestCoordinator(t, CoordinatorOptions{Resolve: resolverFor(exp)})
	if _, err := c.Submit(RunSpec{Experiment: "synth"}); err != nil {
		t.Fatal(err)
	}
	a, _ := c.Register("a")
	b, _ := c.Register("b")
	task, err := c.Lease(context.Background(), a, 0)
	if err != nil || task == nil {
		t.Fatalf("lease: %+v, %v", task, err)
	}
	waiting := leaseAsync(context.Background(), c, b, time.Hour)
	awaitBlocked(t, c, 1)
	if err := c.Fail(task.LeaseID, "boom"); err != nil {
		t.Fatal(err)
	}
	r := awaitLease(t, waiting, wakeBound)
	if r.err != nil || r.task == nil || r.task.CellIndex != task.CellIndex {
		t.Fatalf("requeued cell not handed to the waiting agent: %+v, %v", r.task, r.err)
	}
}

func TestExpirySweepWakesWaitingAgent(t *testing.T) {
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
	a, _ := c.Register("a")
	b, _ := c.Register("b")
	task, err := c.Lease(context.Background(), a, 0)
	if err != nil || task == nil {
		t.Fatalf("lease: %+v, %v", task, err)
	}
	waiting := leaseAsync(context.Background(), c, b, time.Hour)
	awaitBlocked(t, c, 1)
	// Agent a goes silent past its TTL; any sweep re-queues its cell.
	clk.Advance(11 * time.Second)
	if err := c.Heartbeat(b); err != nil {
		t.Fatal(err)
	}
	r := awaitLease(t, waiting, wakeBound)
	if r.err != nil || r.task == nil || r.task.CellIndex != task.CellIndex {
		t.Fatalf("expired cell not handed to the waiting agent: %+v, %v", r.task, r.err)
	}
}

func TestBlockedLeaseReturnsOnCancel(t *testing.T) {
	c, _ := newTestCoordinator(t, CoordinatorOptions{Resolve: resolverFor(testExperiment("synth", 1, nil))})
	a, _ := c.Register("a")

	ctx, cancel := context.WithCancel(context.Background())
	waiting := leaseAsync(ctx, c, a, time.Hour)
	awaitBlocked(t, c, 1)
	cancel()
	if r := awaitLease(t, waiting, wakeBound); r.task != nil || r.err != nil {
		t.Fatalf("cancelled Lease: %+v, %v", r.task, r.err)
	}

	startCtx, shutdown := context.WithCancel(context.Background())
	c.Start(startCtx)
	waiting = leaseAsync(context.Background(), c, a, time.Hour)
	awaitBlocked(t, c, 1)
	shutdown()
	if r := awaitLease(t, waiting, wakeBound); r.task != nil || r.err != nil {
		t.Fatalf("Lease across coordinator shutdown: %+v, %v", r.task, r.err)
	}
}

func TestBlockedLeaseUnknownAgentFailsAtOnce(t *testing.T) {
	c, _ := newTestCoordinator(t, CoordinatorOptions{})
	r := awaitLease(t, leaseAsync(context.Background(), c, "agent-9999", time.Hour), wakeBound)
	if !errors.Is(r.err, ErrNotFound) || r.took > time.Second {
		t.Fatalf("unknown agent: err %v after %v", r.err, r.took)
	}
}

func TestOneCellWakesOneOfTwoAgents(t *testing.T) {
	exp := testExperiment("synth", 1, nil)
	c, _ := newTestCoordinator(t, CoordinatorOptions{Resolve: resolverFor(exp)})
	const wait = 300 * time.Millisecond
	var results []<-chan leaseResult
	for _, name := range []string{"a", "b"} {
		id, _ := c.Register(name)
		results = append(results, leaseAsync(context.Background(), c, id, wait))
	}
	awaitBlocked(t, c, 2)
	if _, err := c.Submit(RunSpec{Experiment: "synth"}); err != nil {
		t.Fatal(err)
	}
	got := 0
	for _, ch := range results {
		r := awaitLease(t, ch, wakeBound)
		if r.err != nil {
			t.Fatal(r.err)
		}
		if r.task != nil {
			got++
		} else if r.took < wait {
			t.Fatalf("the agent left without the cell returned after %v, before its %v wait", r.took, wait)
		}
	}
	if got != 1 {
		t.Fatalf("%d agents got the single cell", got)
	}
}

// TestLeaseWaitQuery pins the long poll's query handling: a malformed or
// negative wait is a 400, and a huge one is clamped to a third of the
// lease TTL.
func TestLeaseWaitQuery(t *testing.T) {
	const ttl = 300 * time.Millisecond
	c, _ := newTestCoordinator(t, CoordinatorOptions{LeaseTTL: ttl})
	srv := httptest.NewServer(NewHandler(c))
	defer srv.Close()
	a, _ := c.Register("a")
	for _, tc := range []struct {
		wait string
		code int
	}{
		{"abc", http.StatusBadRequest},
		{"-1s", http.StatusBadRequest},
		{"99999999999999h", http.StatusBadRequest},
		{"0s", http.StatusNoContent},
		{"1000h", http.StatusNoContent},
	} {
		start := time.Now()
		resp, err := http.Post(srv.URL+"/api/v1/agents/"+a+"/lease?wait="+tc.wait, "", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.code {
			t.Errorf("wait=%s: status %d, want %d", tc.wait, resp.StatusCode, tc.code)
		}
		if took := time.Since(start); took > ttl {
			t.Errorf("wait=%s: held %v, past the %v clamp", tc.wait, took, ttl/3)
		}
	}
}

// TestAPIBodyCaps: a POST body past its cap is refused with 413 rather
// than read in full.
func TestAPIBodyCaps(t *testing.T) {
	c, _ := newTestCoordinator(t, CoordinatorOptions{})
	srv := httptest.NewServer(NewHandler(c))
	defer srv.Close()
	for _, tc := range []struct {
		path string
		size int
	}{
		{"/api/v1/runs", maxSpecBody + 1},
		{"/api/v1/agents", maxSmallBody + 1},
		{"/api/v1/leases/lease-0001/complete", maxResultBody + 1},
	} {
		body := `{"name":"` + strings.Repeat("x", tc.size) + `"}`
		resp, err := http.Post(srv.URL+tc.path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("%s with a %d-byte body: status %d, want 413", tc.path, len(body), resp.StatusCode)
		}
	}
}
