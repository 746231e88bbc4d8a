// Command sdpsctl is the client CLI for the experiment coordinator
// (sdpsd): submit runs, inspect and watch their progress, fetch artifacts,
// and host agents on remote machines.
//
// Usage:
//
//	sdpsctl submit table1 --scale quick --seed 42 --watch
//	sdpsctl submit --scenario examples/scenarios/skew-throughput.json --watch
//	sdpsctl submit table1 --replicate 5
//	sdpsctl status [run-0001]
//	sdpsctl watch run-0001
//	sdpsctl abort run-0001 --reason "wrong scale"
//	sdpsctl fetch run-0001 -o table1.json
//	sdpsctl fetch run-0001 --dir ./fetched   # offline `sdpsreport -from ./fetched/run-0001`
//	sdpsctl agent --name worker-a --workers 2
//
// Every subcommand accepts -coord (default http://127.0.0.1:8372, or
// $SDPSD_COORD).  `fetch` prints the canonical artifact bytes, which are
// byte-identical to `sdpsbench -json` with the same experiment, seed and
// scale no matter how many agents executed the run — including runs
// submitted as scenario specs, which travel inside the wire format and
// need no registration on the agents.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"sync"
	"syscall"

	"repro/internal/ctl"
	"repro/internal/scenario"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	verb, args := os.Args[1], os.Args[2:]
	// Accept `sdpsctl submit table1 --scale quick`: positional operands
	// first, then flags.
	var pos []string
	for len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		pos, args = append(pos, args[0]), args[1:]
	}
	switch verb {
	case "submit":
		cmdSubmit(pos, args)
	case "status":
		cmdStatus(pos, args)
	case "watch":
		cmdWatch(pos, args)
	case "abort":
		cmdAbort(pos, args)
	case "fetch":
		cmdFetch(pos, args)
	case "agent":
		cmdAgent(pos, args)
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: sdpsctl <command> [args]

  submit <experiment> [--scale quick|full] [--seed N] [--replicate N] [--watch] [-q]
  submit --scenario file.json [--scale quick|full] [--seed N] [--watch] [-q]
  status [run-id]
  watch  <run-id>
  abort  <run-id> [--reason TEXT]
  fetch  <run-id> [-o file] [--dir store-dir]
  agent  [--name NAME] [--workers N] [--cell-cache N] [--warm-start]

All commands accept --coord URL (default $SDPSD_COORD or
http://127.0.0.1:8372).`)
	os.Exit(2)
}

// newFlagSet returns a flag set pre-loaded with the shared -coord flag.
func newFlagSet(name string) (*flag.FlagSet, *string) {
	fs := flag.NewFlagSet(name, flag.ExitOnError)
	def := os.Getenv("SDPSD_COORD")
	if def == "" {
		def = "http://127.0.0.1:8372"
	}
	coord := fs.String("coord", def, "coordinator base URL")
	return fs, coord
}

func cmdSubmit(pos, args []string) {
	fs, coord := newFlagSet("submit")
	scale := fs.String("scale", "quick", "fidelity: quick | full")
	seed := fs.Uint64("seed", 42, "simulation seed (same seed, same artifact)")
	scenFile := fs.String("scenario", "", "submit a declarative scenario spec from this JSON file")
	replicate := fs.Int("replicate", 0, "run N replication seeds, scheduled as one cell per (seed, cell)")
	watch := fs.Bool("watch", false, "stream progress until the run finishes")
	quiet := fs.Bool("q", false, "print only the run ID")
	fs.Parse(args)
	spec := ctl.RunSpec{Seed: *seed, Scale: *scale, Replicate: *replicate}
	switch {
	case *scenFile != "":
		if len(pos) != 0 {
			fatalf("submit takes either an experiment id or --scenario, not both")
		}
		s, err := scenario.LoadFile(*scenFile)
		if err != nil {
			fatalf("%v", err)
		}
		spec.Scenario = &s
	case len(pos) == 1:
		spec.Experiment = pos[0]
	default:
		fatalf("submit needs exactly one experiment id (see `sdpsbench -list`) or --scenario file.json")
	}
	cl := ctl.NewClient(*coord)
	info, err := cl.Submit(spec)
	if err != nil {
		fatalf("%v", err)
	}
	if *quiet {
		fmt.Println(info.ID)
	} else {
		fmt.Printf("%s submitted: %s (scale %s, seed %d, %d cells)\n",
			info.ID, info.Spec.Experiment, info.Spec.Scale, info.Spec.Seed, info.CellsTotal)
	}
	if *watch {
		watchRun(cl, info.ID, *quiet)
	}
}

func cmdAbort(pos, args []string) {
	fs, coord := newFlagSet("abort")
	reason := fs.String("reason", "", "recorded as the run's failure reason")
	fs.Parse(args)
	if len(pos) != 1 {
		fatalf("abort needs exactly one run id")
	}
	info, err := ctl.NewClient(*coord).Abort(pos[0], *reason)
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Printf("%s aborted (%d/%d cells were done): %s\n",
		info.ID, info.CellsDone, info.CellsTotal, info.Error)
}

func cmdStatus(pos, args []string) {
	fs, coord := newFlagSet("status")
	fs.Parse(args)
	cl := ctl.NewClient(*coord)
	if len(pos) == 0 {
		runs, err := cl.Runs()
		if err != nil {
			fatalf("%v", err)
		}
		if len(runs) == 0 {
			fmt.Println("no runs")
			return
		}
		for _, r := range runs {
			line := fmt.Sprintf("%-10s %-8s %-18s seed=%-6d %d/%d cells",
				r.ID, r.Status, r.Spec.Experiment+"/"+r.Spec.Scale, r.Spec.Seed, r.CellsDone, r.CellsTotal)
			if r.Error != "" {
				line += "  error: " + r.Error
			}
			fmt.Println(line)
		}
		return
	}
	info, err := cl.Run(pos[0])
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Printf("%s: %s (scale %s, seed %d) — %s, %d/%d cells\n",
		info.ID, info.Spec.Experiment, info.Spec.Scale, info.Spec.Seed,
		info.Status, info.CellsDone, info.CellsTotal)
	if info.Error != "" {
		fmt.Printf("  error: %s\n", info.Error)
	}
	for _, c := range info.Cells {
		line := fmt.Sprintf("  %-24s %-8s", c.ID, c.Status)
		if c.Agent != "" {
			line += " agent=" + c.Agent
		}
		if c.Attempts > 0 {
			line += fmt.Sprintf(" attempts=%d", c.Attempts)
		}
		fmt.Println(line)
	}
}

func cmdWatch(pos, args []string) {
	fs, coord := newFlagSet("watch")
	fs.Parse(args)
	if len(pos) != 1 {
		fatalf("watch needs exactly one run id")
	}
	watchRun(ctl.NewClient(*coord), pos[0], false)
}

// watchRun streams a run's events to stderr and exits non-zero if the run
// fails, so scripts can gate on it.  The watch reconnects on stream drops
// and coordinator outages (WatchRetry), so a coordinator restart mid-run
// doesn't end it early.
func watchRun(cl *ctl.Client, id string, quiet bool) {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	var final ctl.RunStatus
	err := cl.WatchRetry(ctx, id, func(ev ctl.Event) {
		switch ev.Type {
		case "cell":
			if !quiet {
				line := fmt.Sprintf("[%d/%d] cell %-24s %s", ev.Done, ev.Total, ev.Cell, ev.CellStatus)
				if ev.Agent != "" {
					line += " (agent " + ev.Agent + ")"
				}
				if ev.Error != "" {
					line += " — " + ev.Error
				}
				fmt.Fprintln(os.Stderr, line)
			}
		case "run":
			final = ev.Status
			if !quiet {
				line := fmt.Sprintf("[%d/%d] run %s: %s", ev.Done, ev.Total, ev.RunID, ev.Status)
				if ev.Error != "" {
					line += " — " + ev.Error
				}
				fmt.Fprintln(os.Stderr, line)
			}
		}
	})
	if err != nil {
		fatalf("watch %s: %v", id, err)
	}
	if final != ctl.RunDone {
		os.Exit(1)
	}
}

func cmdFetch(pos, args []string) {
	fs, coord := newFlagSet("fetch")
	out := fs.String("o", "", "write the artifact here instead of stdout")
	dir := fs.String("dir", "", "also mirror the run's manifest and result objects into this store directory, so `sdpsreport -from <dir>/<run-id>` works offline")
	fs.Parse(args)
	if len(pos) != 1 {
		fatalf("fetch needs exactly one run id")
	}
	cl := ctl.NewClient(*coord)
	data, err := cl.Artifact(pos[0])
	if err != nil {
		fatalf("%v", err)
	}
	if *dir != "" {
		if err := mirrorRun(cl, pos[0], *dir); err != nil {
			fatalf("%v", err)
		}
		fmt.Fprintf(os.Stderr, "sdpsctl: run %s mirrored into %s\n", pos[0], *dir)
	}
	if *out == "" {
		if *dir == "" {
			os.Stdout.Write(data)
		}
		return
	}
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fatalf("%v", err)
	}
}

// mirrorRun copies a run's manifest plus every addressed object (cell
// results and the assembled artifact) from the coordinator into a local
// store directory.  The local copy has the coordinator store's exact
// layout, so every offline reader (`sdpsreport -from`, `sdpsreport
// compare`) accepts it.  Content addressing makes re-fetching idempotent.
func mirrorRun(cl *ctl.Client, runID, dir string) error {
	m, err := cl.Manifest(runID)
	if err != nil {
		return err
	}
	st, err := ctl.NewStore(dir)
	if err != nil {
		return err
	}
	shas := make([]string, 0, len(m.Cells)+1)
	for _, c := range m.Cells {
		if c.ResultSHA != "" {
			shas = append(shas, c.ResultSHA)
		}
	}
	if m.ArtifactSHA != "" {
		shas = append(shas, m.ArtifactSHA)
	}
	for _, sha := range shas {
		data, err := cl.Object(sha)
		if err != nil {
			return err
		}
		got, err := st.PutObject(data)
		if err != nil {
			return err
		}
		if got != sha {
			return fmt.Errorf("object %s came back as %s (corrupt transfer?)", sha, got)
		}
	}
	return st.SaveRun(m)
}

func cmdAgent(pos, args []string) {
	fs, coord := newFlagSet("agent")
	name := fs.String("name", "", "agent name shown in status output (default: hostname)")
	workers := fs.Int("workers", 1, "concurrent cell executors to run")
	cacheSize := fs.Int("cell-cache", 4096, "finished-cell result cache entries, shared by this process's workers (0 disables)")
	warmStart := fs.Bool("warm-start", false, "seed sustainable-throughput searches from prior brackets in the cell cache (faster, but artifacts are no longer byte-identical to cold runs)")
	poll := fs.Duration("poll", 0, "longest idle wait per lease request (default 50ms; the coordinator answers as soon as work is queued); coordinator errors back off exponentially from here")
	fs.Parse(args)
	if len(pos) != 0 {
		fatalf("agent takes no positional arguments")
	}
	if *warmStart && *cacheSize <= 0 {
		fatalf("--warm-start requires a cell cache: set --cell-cache > 0")
	}
	if *name == "" {
		host, err := os.Hostname()
		if err != nil {
			host = "agent"
		}
		*name = host
	}
	var cache *ctl.ResultCache
	if *cacheSize > 0 {
		cache = ctl.NewResultCache(*cacheSize)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	var wg sync.WaitGroup
	for i := 0; i < *workers; i++ {
		a := &ctl.Agent{Name: fmt.Sprintf("%s-%d", *name, i), API: ctl.NewClient(*coord), Poll: *poll, Cache: cache, WarmStart: *warmStart}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := a.Run(ctx); err != nil {
				fmt.Fprintf(os.Stderr, "sdpsctl: agent %s: %v\n", a.Name, err)
			}
		}()
	}
	fmt.Fprintf(os.Stderr, "sdpsctl: %d agent worker(s) leasing from %s (Ctrl-C to stop)\n", *workers, *coord)
	wg.Wait()
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "sdpsctl: "+format+"\n", args...)
	os.Exit(1)
}
