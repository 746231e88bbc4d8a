package main

import (
	"fmt"
	"os/exec"
	"strings"
	"time"
)

// layers are the repository packages the per-layer CPU metrics report.
// engine covers the engine runtime and the engine models.  A sample
// is charged to the innermost repository package on its stack, so
// runtime work a layer causes (allocation, copying) counts as that
// layer's; samples with no repository frame (background GC, the
// scheduler, HTTP connection plumbing) and packages not listed here go to
// other.
var layers = []string{
	"generator", "queue", "tuple", "engine", "window", "flat",
	"sim", "cluster", "driver", "metrics", "fault", "par",
	"core", "scenario", "report", "ctl", "other",
}

const repoPrefix = "repro/internal/"

// layerOf maps a fully qualified function name to its layer, or "" for a
// function outside the repository's packages.
func layerOf(fn string) string {
	if !strings.HasPrefix(fn, repoPrefix) {
		return ""
	}
	rest := fn[len(repoPrefix):]
	if i := strings.IndexAny(rest, "./"); i >= 0 {
		rest = rest[:i]
	}
	for _, l := range layers {
		if l == rest {
			return l
		}
	}
	return "other"
}

// traceSeparator is the line `go tool pprof -traces` prints between
// samples.
const traceSeparator = "-----------+-------------------------------------------------------"

// layerCPU returns CPU milliseconds per layer of the CPU profile at path.
// It reads the output of `go tool pprof -traces`, which prints each
// sample's stack innermost frame first, one "%10s   %s" line per frame,
// the sample's value in the first column of the first line only.
func layerCPU(path string) (map[string]float64, error) {
	text, err := exec.Command("go", "tool", "pprof", "-traces", path).Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof -traces: %w", err)
	}
	out := map[string]float64{}
	// The text before the first separator is the profile's header.
	for _, sample := range strings.Split(string(text), traceSeparator)[1:] {
		var value time.Duration
		layer := ""
		for _, line := range strings.Split(sample, "\n") {
			if len(line) < 13 || line[10:13] != "   " {
				continue // blank or a sample label ("%10s:  %s")
			}
			if v := strings.TrimSpace(line[:10]); v != "" {
				if value, err = time.ParseDuration(v); err != nil {
					return nil, fmt.Errorf("pprof sample value %q: %w", v, err)
				}
			}
			if layer == "" {
				layer = layerOf(strings.TrimSpace(line[13:]))
			}
		}
		if layer == "" {
			layer = "other"
		}
		out[layer] += ms(value)
	}
	return out, nil
}
