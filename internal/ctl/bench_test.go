package ctl

import (
	"context"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"testing"

	"repro/internal/core"
)

// The control-plane benchmarks measure the coordinator with the real
// Table I experiment (9 cells, quick scale) and its real cell results, so
// per-op costs are those a resubmitted Table I pays on sdpsd: manifest
// and object writes, journal appends, artifact assembly and, over HTTP,
// the JSON wire.  They are not part of the compare gate.
//
//	go test -run NONE -bench BenchmarkCoordinator -benchmem ./internal/ctl/

var table1Spec = RunSpec{Experiment: "table1", Seed: 42, Scale: "quick"}

var table1Cells struct {
	once    sync.Once
	results [][]byte
	err     error
}

// table1Results runs Table I's cells once per process and returns their
// canonical encodings, indexed like the cell enumeration.
func table1Results(b *testing.B) [][]byte {
	b.Helper()
	table1Cells.once.Do(func() {
		exp, o, err := ResolveSpec(table1Spec)
		if err != nil {
			table1Cells.err = err
			return
		}
		for _, cell := range exp.Cells(o) {
			v, err := cell.Run(context.Background(), o)
			if err != nil {
				table1Cells.err = err
				return
			}
			raw, err := core.EncodeCellResult(v)
			if err != nil {
				table1Cells.err = err
				return
			}
			table1Cells.results = append(table1Cells.results, raw)
		}
	})
	if table1Cells.err != nil {
		b.Fatal(table1Cells.err)
	}
	return table1Cells.results
}

// BenchmarkCoordinatorSubmitTable1 is one Submit: spec validation, cell
// enumeration, manifest write and queueing.
func BenchmarkCoordinatorSubmitTable1(b *testing.B) {
	c, _ := newTestCoordinator(b, CoordinatorOptions{})
	b.ReportAllocs()
	for b.Loop() {
		if _, err := c.Submit(table1Spec); err != nil {
			b.Fatal(err)
		}
	}
}

// cycleAPI is the surface one run cycle needs: *Coordinator in process,
// *Client over HTTP.
type cycleAPI interface {
	AgentAPI
	Submit(RunSpec) (RunInfo, error)
}

// BenchmarkCoordinatorRunCycle is one whole run as an agent sees it:
// submit Table I, then lease and complete its 9 cells, the last of which
// assembles and stores the artifact.
func BenchmarkCoordinatorRunCycle(b *testing.B) {
	results := table1Results(b)
	b.Run("inproc", func(b *testing.B) {
		c, _ := newTestCoordinator(b, CoordinatorOptions{})
		benchRunCycle(b, c, c, results)
	})
	b.Run("http", func(b *testing.B) {
		c, _ := newTestCoordinator(b, CoordinatorOptions{})
		srv := httptest.NewServer(NewHandler(c))
		defer srv.Close()
		benchRunCycle(b, c, NewClient(srv.URL), results)
	})
}

func benchRunCycle(b *testing.B, c *Coordinator, api cycleAPI, results [][]byte) {
	ctx := context.Background()
	agent, err := api.Register("bench")
	if err != nil {
		b.Fatal(err)
	}
	var last RunInfo
	b.ReportAllocs()
	for b.Loop() {
		if last, err = api.Submit(table1Spec); err != nil {
			b.Fatal(err)
		}
		for range results {
			task, err := api.Lease(ctx, agent, 0)
			if err != nil || task == nil {
				b.Fatalf("lease: %+v, %v", task, err)
			}
			if err := api.Complete(task.LeaseID, results[task.CellIndex]); err != nil {
				b.Fatal(err)
			}
		}
	}
	if ri, err := c.Run(last.ID); err != nil || ri.Status != RunDone {
		b.Fatalf("last run: %+v, %v", ri, err)
	}
}

// BenchmarkCoordinatorJournalReplay is one coordinator restart over a
// store holding a finished Table I run and three interrupted ones: load
// the manifests, reload and verify their stored results, replay the
// journal (registrations, leases, completions, counted failures) and
// compact it.  Copying the store for each restart is not timed.
func BenchmarkCoordinatorJournalReplay(b *testing.B) {
	results := table1Results(b)
	src := b.TempDir()
	store, err := NewStore(src)
	if err != nil {
		b.Fatal(err)
	}
	c, err := NewCoordinator(store, CoordinatorOptions{})
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	agents := make([]string, 2)
	for i := range agents {
		if agents[i], err = c.Register("bench-" + strconv.Itoa(i)); err != nil {
			b.Fatal(err)
		}
	}
	for run := 0; run < 4; run++ {
		if _, err := c.Submit(table1Spec); err != nil {
			b.Fatal(err)
		}
		for i := range results {
			task, err := c.Lease(ctx, agents[i%2], 0)
			if err != nil || task == nil {
				b.Fatalf("lease: %+v, %v", task, err)
			}
			switch {
			case run == 0 || i < 5:
				err = c.Complete(task.LeaseID, results[task.CellIndex])
			case i == 5:
				err = c.Fail(task.LeaseID, "bench failure")
			} // the rest stay leased, in flight at the "crash"
			if err != nil {
				b.Fatal(err)
			}
		}
	}

	work := b.TempDir()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		dir := filepath.Join(work, strconv.Itoa(i))
		if err := os.CopyFS(dir, os.DirFS(src)); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		store, err := NewStore(dir)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := NewCoordinator(store, CoordinatorOptions{}); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if err := os.RemoveAll(dir); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
}
