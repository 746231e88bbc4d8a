// Command sdpsbench runs the benchmark suite's experiments — one per table
// and figure of "Benchmarking Distributed Stream Data Processing Systems"
// (Karimov et al., ICDE 2018) — and prints the paper-shaped artefact.
//
// Usage:
//
//	sdpsbench -list
//	sdpsbench -exp table1
//	sdpsbench -exp table1 -json            # canonical artifact encoding
//	sdpsbench -exp fig9 -scale full -csv out/
//	sdpsbench -all -scale quick
//	sdpsbench -scenario examples/scenarios/skew-throughput.json
//	sdpsbench -scenario-validate examples/scenarios/*.json
//
// -json prints the same canonical artifact bytes the distributed
// controller (sdpsd/sdpsctl) stores and serves, so
// `sdpsbench -exp table1 -json` and `sdpsctl fetch <run>` of an equivalent
// run compare byte-for-byte.  The same holds for -scenario: a scenario
// spec runs locally here or distributed via `sdpsctl submit -scenario`,
// with byte-identical artifacts.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/scenario"
)

func main() {
	var (
		list     = flag.Bool("list", false, "list available experiments and exit")
		exp      = flag.String("exp", "", "experiment id to run (see -list)")
		all      = flag.Bool("all", false, "run every experiment in paper order")
		scenFile = flag.String("scenario", "", "run a declarative scenario spec from this JSON file")
		validate = flag.Bool("scenario-validate", false, "validate the scenario spec files given as arguments and exit")
		scale    = flag.String("scale", "quick", "fidelity: quick | full")
		seed     = flag.Uint64("seed", 42, "simulation seed (same seed, same artefact)")
		csv      = flag.String("csv", "", "directory to write figure series CSVs into")
		svg      = flag.String("svg", "", "directory to write figure SVGs into")
		reps     = flag.Int("replicate", 0, "run the experiment N times with different seeds and report cross-seed spread")
		asJSON   = flag.Bool("json", false, "print the canonical machine-readable artifact instead of text")
		verbose  = flag.Bool("v", false, "report each finished experiment cell on stderr")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memProf  = flag.String("memprofile", "", "write a heap profile at exit to this file")
	)
	flag.Parse()

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fatalf("-cpuprofile: %v", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fatalf("-cpuprofile: %v", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				fatalf("-memprofile: %v", err)
			}
			defer f.Close()
			runtime.GC() // settle to live objects before the snapshot
			if err := pprof.WriteHeapProfile(f); err != nil {
				fatalf("-memprofile: %v", err)
			}
		}()
	}

	if *list {
		for _, e := range core.Experiments() {
			fmt.Printf("%-8s %s\n         %s\n", e.ID, e.Title, e.Description)
		}
		return
	}

	if *validate {
		files := flag.Args()
		if len(files) == 0 {
			fatalf("-scenario-validate needs spec files as arguments")
		}
		for _, f := range files {
			s, err := scenario.LoadFile(f)
			if err != nil {
				fatalf("%v", err)
			}
			e, err := scenario.Compile(s)
			if err != nil {
				fatalf("%s: %v", f, err)
			}
			fmt.Printf("%s: ok — %s, %d cells, %d seed(s)\n",
				f, s.Name, len(e.Cells(core.Options{}.WithDefaults())), s.Seeds)
		}
		return
	}

	// Ctrl-C cancels the in-flight cells (the executor pool stops claiming
	// work and the driver halts mid-simulation) instead of leaving worker
	// goroutines running to completion.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	opts := core.Options{Seed: *seed}
	var err error
	if opts.Scale, err = core.ParseScale(*scale); err != nil {
		fatalf("%v", err)
	}

	// Resolve what to run: experiments by registry ID, or one compiled
	// scenario spec — both are core.Experiments from here on.
	var exps []core.Experiment
	switch {
	case *scenFile != "":
		if *exp != "" || *all {
			fatalf("-scenario is exclusive with -exp/-all")
		}
		s, err := scenario.LoadFile(*scenFile)
		if err != nil {
			fatalf("%v", err)
		}
		if *reps > 0 && s.Seeds > 1 {
			fatalf("scenario %s already declares %d replication seeds; drop -replicate", s.Name, s.Seeds)
		}
		e, err := scenario.Compile(s)
		if err != nil {
			fatalf("%v", err)
		}
		exps = []core.Experiment{e}
	case *all:
		exps = core.Experiments()
	case *exp != "":
		e, err := core.Lookup(*exp)
		if err != nil {
			fatalf("%v", err)
		}
		exps = []core.Experiment{e}
	default:
		fatalf("nothing to do: pass -exp <id>, -all, -scenario <file>, or -list")
	}

	if *reps > 0 {
		for _, e := range exps {
			// Replicated's artefact text is the cross-seed spread table.
			out, err := core.Replicated(e, *reps).RunContext(ctx, opts, nil)
			if errors.Is(err, context.Canceled) {
				fatalf("%s: interrupted", e.ID)
			}
			if err != nil {
				fatalf("%v", err)
			}
			fmt.Println(out.Text)
		}
		return
	}

	var progress core.Progress
	if *verbose {
		progress = func(ev core.CellEvent) {
			status := "done"
			if ev.Err != nil {
				status = "error: " + ev.Err.Error()
			}
			fmt.Fprintf(os.Stderr, "sdpsbench: %s cell %s [%d/%d] %s\n",
				ev.Experiment, ev.Cell, ev.Index+1, ev.Total, status)
		}
	}

	for _, e := range exps {
		id := e.ID
		start := time.Now()
		out, err := e.RunContext(ctx, opts, progress)
		if errors.Is(err, context.Canceled) {
			fatalf("%s: interrupted", id)
		}
		if err != nil {
			fatalf("%s: %v", id, err)
		}
		if *asJSON {
			data, err := core.NewArtifact(e, opts, out).Encode()
			if err != nil {
				fatalf("%s: %v", id, err)
			}
			os.Stdout.Write(data)
		} else {
			fmt.Printf("== %s (%s, %v)\n%s\n", e.Title, *scale, time.Since(start).Round(time.Millisecond), out.Text)
		}
		if *csv != "" && out.CSV != "" {
			if err := os.MkdirAll(*csv, 0o755); err != nil {
				fatalf("mkdir %s: %v", *csv, err)
			}
			path := filepath.Join(*csv, id+".csv")
			if err := os.WriteFile(path, []byte(out.CSV), 0o644); err != nil {
				fatalf("write %s: %v", path, err)
			}
			if !*asJSON {
				fmt.Printf("   series written to %s\n\n", path)
			}
		}
		if *svg != "" {
			if doc := out.SVG(); doc != "" {
				if err := os.MkdirAll(*svg, 0o755); err != nil {
					fatalf("mkdir %s: %v", *svg, err)
				}
				path := filepath.Join(*svg, id+".svg")
				if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
					fatalf("write %s: %v", path, err)
				}
				if !*asJSON {
					fmt.Printf("   figure written to %s\n\n", path)
				}
			}
		}
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "sdpsbench: "+format+"\n", args...)
	os.Exit(1)
}
