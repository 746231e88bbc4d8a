package ctl

import (
	"bytes"
	"context"
	"errors"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestHTTPEndToEndWithRemoteAgents(t *testing.T) {
	exp := testExperiment("synth", 5, nil)
	c, _ := newTestCoordinator(t, CoordinatorOptions{Resolve: resolverFor(exp)})
	srv := httptest.NewServer(NewHandler(c))
	defer srv.Close()
	cl := NewClient(srv.URL)

	spec := RunSpec{Experiment: "synth", Seed: 11, Scale: "quick"}
	info, err := cl.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if info.CellsTotal != 5 || info.Spec.Seed != 11 {
		t.Fatalf("submit over HTTP: %+v", info)
	}

	// Two remote agents (Agent loop over the HTTP client), started on the
	// watch's first event: that is the snapshot the server sends once it
	// has subscribed, so no cell can finish before the watch sees it.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup
	startAgents := func() {
		for i := 0; i < 2; i++ {
			a := &Agent{Name: "remote", API: NewClient(srv.URL), Poll: 2 * time.Millisecond, Resolve: resolverFor(exp)}
			wg.Add(1)
			go func() {
				defer wg.Done()
				a.Run(ctx)
			}()
		}
	}

	// Watch over SSE until the run completes; events carry progress.
	var cellEvents, runEvents int
	var final RunStatus
	started := false
	if err := cl.Watch(context.Background(), info.ID, func(ev Event) {
		if !started {
			started = true
			startAgents()
		}
		switch ev.Type {
		case "cell":
			cellEvents++
		case "run":
			runEvents++
			final = ev.Status
		}
	}); err != nil {
		t.Fatal(err)
	}
	cancel()
	wg.Wait()
	if final != RunDone {
		t.Fatalf("run did not finish over HTTP: %s", final)
	}
	if cellEvents == 0 || runEvents == 0 {
		t.Fatalf("SSE stream empty: %d cell, %d run events", cellEvents, runEvents)
	}

	// Status endpoints.
	runs, err := cl.Runs()
	if err != nil || len(runs) != 1 {
		t.Fatalf("runs list: %+v, %v", runs, err)
	}
	ri, err := cl.Run(info.ID)
	if err != nil || ri.CellsDone != 5 || len(ri.Cells) != 5 {
		t.Fatalf("run detail: %+v, %v", ri, err)
	}

	// The fetched artifact is byte-identical to a direct in-process run.
	got, err := cl.Artifact(info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if want := directArtifact(t, exp, spec); !bytes.Equal(got, want) {
		t.Fatalf("HTTP artifact differs from direct run:\n%s\nvs\n%s", got, want)
	}

	// Watching a finished run terminates immediately on the snapshot.
	if err := cl.Watch(context.Background(), info.ID, func(Event) {}); err != nil {
		t.Fatalf("watch of finished run: %v", err)
	}

	if _, err := cl.Run("run-9999"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("404 not mapped: %v", err)
	}
	if _, err := cl.Artifact("run-9999"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("404 not mapped: %v", err)
	}
	if err := cl.Complete("lease-9999", nil); !errors.Is(err, ErrStaleLease) {
		t.Fatalf("409 not mapped: %v", err)
	}
}

// TestHTTPManifestAndObjects covers the read-side endpoints that
// artifact-native reporting (internal/compare) consumes: the persisted
// manifest maps every cell to a result object, and each object — cell
// results and the assembled artifact — is fetchable by address.
func TestHTTPManifestAndObjects(t *testing.T) {
	exp := testExperiment("synth", 3, nil)
	c, _ := newTestCoordinator(t, CoordinatorOptions{Resolve: resolverFor(exp)})
	srv := httptest.NewServer(NewHandler(c))
	defer srv.Close()
	cl := NewClient(srv.URL)

	spec := RunSpec{Experiment: "synth", Seed: 7, Scale: "quick"}
	info, err := cl.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	a := &Agent{Name: "remote", API: NewClient(srv.URL), Poll: 2 * time.Millisecond, Resolve: resolverFor(exp)}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		a.Run(ctx)
	}()
	if err := cl.Watch(context.Background(), info.ID, func(Event) {}); err != nil {
		t.Fatal(err)
	}
	cancel()
	wg.Wait()

	m, err := cl.Manifest(info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if m.ID != info.ID || m.Status != RunDone || m.ArtifactSHA == "" {
		t.Fatalf("manifest incomplete: %+v", m)
	}
	if len(m.Cells) != 3 {
		t.Fatalf("manifest has %d cells, want 3", len(m.Cells))
	}
	for i, cm := range m.Cells {
		if cm.ResultSHA == "" {
			t.Fatalf("cell %d has no result SHA: %+v", i, cm)
		}
		if _, err := cl.Object(cm.ResultSHA); err != nil {
			t.Fatalf("fetch cell object %s: %v", cm.ResultSHA, err)
		}
	}
	art, err := cl.Object(m.ArtifactSHA)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := cl.Artifact(info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(art, direct) {
		t.Fatal("artifact object differs from the artifact endpoint")
	}
	if _, err := cl.Manifest("run-9999"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("manifest 404 not mapped: %v", err)
	}
	if _, err := cl.Object(strings.Repeat("ab", 32)); !errors.Is(err, ErrNotFound) {
		t.Fatalf("object 404 not mapped: %v", err)
	}
}

// TestHTTPAgentKilledMidCell is the failover path over the wire: an agent
// leases a cell, dies without a word, and the run still completes with a
// byte-identical artifact once the lease expires and another agent picks
// the cell up.
func TestHTTPAgentKilledMidCell(t *testing.T) {
	// entered closes once the victim is inside a cell; release holds the
	// victim there until it is killed.
	entered := make(chan struct{})
	var once sync.Once
	var firstExec atomic.Bool
	gate := func(ctx context.Context, cell string) error {
		if firstExec.CompareAndSwap(false, true) {
			once.Do(func() { close(entered) })
			<-ctx.Done() // hold the cell until the process "dies"
			return ctx.Err()
		}
		return nil
	}
	exp := testExperiment("synth", 4, gate)
	c, _ := newTestCoordinator(t, CoordinatorOptions{
		Resolve:  resolverFor(exp),
		LeaseTTL: 50 * time.Millisecond,
	})
	srv := httptest.NewServer(NewHandler(c))
	defer srv.Close()
	cl := NewClient(srv.URL)

	spec := RunSpec{Experiment: "synth", Seed: 21, Scale: "quick"}
	info, err := cl.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}

	// The victim leases the first cell and hangs in it.
	victimCtx, kill := context.WithCancel(context.Background())
	victim := &Agent{Name: "victim", API: NewClient(srv.URL), Poll: 2 * time.Millisecond, Resolve: resolverFor(exp)}
	var victimDone sync.WaitGroup
	victimDone.Add(1)
	go func() {
		defer victimDone.Done()
		victim.Run(victimCtx)
	}()
	<-entered
	kill() // mid-cell, holding the lease; no Fail is ever sent
	victimDone.Wait()

	// A survivor finishes the run after the lease expires.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	survivor := &Agent{Name: "survivor", API: NewClient(srv.URL), Poll: 2 * time.Millisecond, Resolve: resolverFor(exp)}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		survivor.Run(ctx)
	}()

	final := waitTerminal(t, c, info.ID)
	cancel()
	wg.Wait()
	if final.Status != RunDone {
		t.Fatalf("failover did not complete the run: %+v", final)
	}
	// The abandoned cell shows its extra attempt.
	var sawRetry bool
	for _, cell := range final.Cells {
		if cell.Attempts > 0 {
			sawRetry = true
		}
	}
	if !sawRetry {
		t.Fatalf("no cell records the expired lease: %+v", final.Cells)
	}
	got, err := cl.Artifact(info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if want := directArtifact(t, exp, spec); !bytes.Equal(got, want) {
		t.Fatal("artifact after failover differs from direct run")
	}
}
