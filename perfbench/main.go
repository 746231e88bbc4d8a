// Command perfbench is the repository's end-to-end performance benchmark.
// It drives the simulator and the control plane in process, through the
// same entry points the CLIs use, and reports per-operation wall time.
//
//	perfbench --workload agg-steady --seed 7 --seconds 10 --trace 0
//
// Each workload is a closed loop: one client issues an operation, waits
// for it to finish and issues the next, for --seconds of wall time
// (ctl-resubmit's client first pauses for an untimed think time).
//
//   - agg-steady: one operation runs the windowed aggregation at a fixed,
//     sustainable offered rate on storm, spark and flink in turn
//     (generator, queues, engine runtime, window folds, engine models).
//   - join-steady: the same for the windowed join on spark and flink,
//     whose buffered two-stream windows take a different path through the
//     window layer.
//   - ctl-resubmit: a coordinator with an in-process agent and its
//     result cache serves a Table I run over HTTP; one operation resubmits
//     the run, watches it to completion and fetches the artifact.  The
//     cells come from the cache, so the control plane, its file store
//     and the agent's idle polling included, is what is timed.
//
// Before the loop the workload is set up from nothing several times (at
// least three; up to 50 while they take under four seconds in all), each
// set-up ending with one untimed operation.  The loop runs on the last
// one, and setup_s is the median set-up time.
//
// After the loop every output is checked: simulator outputs against the
// brute-force oracle and against the run's own first result (the
// simulation is deterministic, so every repetition must match bit for
// bit), and control-plane artifacts against a direct in-process run of
// the same experiment.
//
// With --trace 1 the loop also records a CPU profile and allocation
// counts; the per-layer metrics attribute CPU time to the repository's
// packages.  End-to-end figures come from --trace 0 runs.
//
// Which layer metric should move which end-to-end metric: cpu_generator,
// cpu_queue, cpu_sim and cpu_engine make up most of op_p50_ms on
// agg-steady and join-steady, and do not run in ctl-resubmit;
// cpu_flat (keyed window state) weighs most on agg-steady, cpu_window
// (buffered join windows) on join-steady.  On ctl-resubmit, cpu_ctl,
// io_write_kb_per_op (the store rewrites a run's manifest on every
// finished cell) and span_wait_ms set op_p50_ms, and a simulator change
// should leave it unchanged.
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// A run sets its workload up from nothing at least minSetups times, and
// goes on until the set-ups have taken setupBudget or there have been
// maxSetups of them; setup_s is their median.  A simulator set-up costs
// about one operation, so its median rests on many set-ups; a
// control-plane set-up takes seconds, and gets the minimum.
const (
	minSetups   = 3
	maxSetups   = 50
	setupBudget = 4 * time.Second
)

// instance is one set-up workload, ready to run timed operations.
type instance interface {
	// op runs one timed operation and returns the wall time of its named
	// phases (the spans the benchmark records around each layer call).
	op() (map[string]time.Duration, error)
	// check verifies every output the instance produced.
	check() error
	close()
}

// A thinker pauses before each operation; the pause is not timed.
type thinker interface {
	think()
}

// workloads maps a workload name to its set-up function.  dir is a
// private scratch directory inside the checkout.
var workloads = map[string]func(seed uint64, dir string) (instance, error){
	"agg-steady":   setupAgg,
	"join-steady":  setupJoin,
	"ctl-resubmit": setupCtl,
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: agg-steady | join-steady | ctl-resubmit")
		seed    = flag.Uint64("seed", 1, "input seed")
		seconds = flag.Float64("seconds", 10, "wall-clock seconds to measure")
		trace   = flag.Int("trace", 0, "1 = report per-layer metrics from a traced run")
	)
	flag.Parse()
	setup, ok := workloads[*name]
	if !ok {
		fatalf("unknown workload %q", *name)
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fatalf("--seconds must be positive and --trace 0 or 1")
	}
	if *seed == 0 {
		// The simulator reads seed 0 as "use the default seed".
		*seed = math.MaxUint32
	}
	res, err := run(setup, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1)
	if err != nil {
		fatalf("%s: %v", *name, err)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fatalf("encode result: %v", err)
	}
	fmt.Println(string(out))
}

func run(setup func(uint64, string) (instance, error), seed uint64, measure time.Duration, trace bool) (*result, error) {
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return nil, err
	}
	base, err := os.MkdirTemp(".bench_build", "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(base)

	// A control-plane set-up leaves thousands of small files behind, and
	// deleting them leaves deferred disk work (journal commits, discards)
	// that slows file writes for a while.  So each set-up's files are
	// deleted before the next set-up starts, and the file system is
	// flushed before anything is timed: the loop then starts in the same
	// state whatever ran before it.
	var (
		inst   instance
		dir    string
		setups []float64
		spent  time.Duration
	)
	for i := 0; i < minSetups || (i < maxSetups && spent < setupBudget); i++ {
		if inst != nil {
			inst.close()
			if err := os.RemoveAll(dir); err != nil {
				return nil, err
			}
			syscall.Sync()
		}
		dir = filepath.Join(base, fmt.Sprintf("setup-%d", i))
		start := time.Now()
		inst, err = setup(seed, dir)
		d := time.Since(start)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		spent += d
		setups = append(setups, d.Seconds())
	}
	defer inst.close()
	syscall.Sync()

	var (
		prof            bytes.Buffer
		before, after   runtime.MemStats
		wcharBefore     float64
		wcharAfter      float64
		lat             []float64
		spans           = map[string][]float64{}
		failed          int
		firstErr        error
		measuredStarted = time.Now()
	)
	if trace {
		wcharBefore = writtenBytes()
		runtime.ReadMemStats(&before)
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, err
		}
	}
	deadline := measuredStarted.Add(measure)
	for time.Now().Before(deadline) {
		if t, ok := inst.(thinker); ok {
			t.think()
		}
		start := time.Now()
		ph, err := inst.op()
		d := time.Since(start)
		lat = append(lat, ms(d))
		if err != nil {
			failed++
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		for k, v := range ph {
			spans[k] = append(spans[k], ms(v))
		}
	}
	if trace {
		pprof.StopCPUProfile()
		runtime.ReadMemStats(&after)
		wcharAfter = writtenBytes()
	}
	if firstErr != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %d operations failed; first: %v\n", failed, firstErr)
	}

	res := &result{Attempted: len(lat), Failed: failed, Metrics: map[string]metric{}}
	if err := inst.check(); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: output check failed: %v\n", err)
	} else {
		res.Correct = true
	}
	n := float64(len(lat))
	if !trace {
		res.Metrics["op_p50_ms"] = metric{quantile(lat, 0.5), "ms"}
		res.Metrics["op_p90_ms"] = metric{quantile(lat, 0.9), "ms"}
		res.Metrics["setup_s"] = metric{quantile(setups, 0.5), "s"}
		return res, nil
	}

	res.Metrics["traced_op_p50_ms"] = metric{quantile(lat, 0.5), "ms"}
	for _, name := range spanNames {
		res.Metrics["span_"+name+"_ms"] = metric{quantile(spans[name], 0.5), "ms"}
	}
	// The profile is written out only now, so its bytes stay out of
	// io_write_kb_per_op.
	profile := filepath.Join(base, "cpu.pprof")
	if err := os.WriteFile(profile, prof.Bytes(), 0o644); err != nil {
		return nil, err
	}
	cpu, err := layerCPU(profile)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	for _, l := range layers {
		res.Metrics["cpu_"+l+"_ms"] = metric{cpu[l] / n, "ms"}
	}
	res.Metrics["cpu_total_ms"] = metric{sum(cpu) / n, "ms"}
	res.Metrics["allocs_per_op"] = metric{float64(after.Mallocs-before.Mallocs) / n, "count"}
	res.Metrics["alloc_kb_per_op"] = metric{float64(after.TotalAlloc-before.TotalAlloc) / 1024 / n, "KiB"}
	res.Metrics["gc_cycles_per_op"] = metric{float64(after.NumGC-before.NumGC) / n, "count"}
	res.Metrics["io_write_kb_per_op"] = metric{(wcharAfter - wcharBefore) / 1024 / n, "KiB"}
	return res, nil
}

// spanNames are the phases workloads report from op; a workload that has
// no such phase reports 0.
var spanNames = []string{"storm", "spark", "flink", "submit", "wait", "fetch"}

// writtenBytes returns the bytes the process has passed to write system
// calls (files and sockets alike), or 0 where /proc is unavailable.
func writtenBytes() float64 {
	data, err := os.ReadFile("/proc/self/io")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "wchar: "); ok {
			n, _ := strconv.ParseFloat(v, 64)
			return n
		}
	}
	return 0
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for an empty sample).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func sum(m map[string]float64) float64 {
	t := 0.0
	for _, v := range m {
		t += v
	}
	return t
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(1)
}
