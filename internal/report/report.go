// Package report renders benchmark results in the paper's formats: the
// sustainable-throughput tables (I, III), the latency-statistics tables
// (II, IV), and text/CSV renderings of the figures' time series.
package report

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/metrics"
)

// ThroughputCell is one engine × cluster-size sustainable throughput.
type ThroughputCell struct {
	Engine  string
	Workers int
	// RateEvPerSec is the measured maximum sustainable rate; negative
	// means the configuration failed outright (e.g. Storm's naive join
	// stalling), rendered as the failure note.
	RateEvPerSec float64
	Note         string
}

// ThroughputTable renders Table I / Table III: rows are engines, columns
// cluster sizes, cells in M events/s.
func ThroughputTable(title string, cells []ThroughputCell) string {
	engines := orderedEngines(cells)
	workers := orderedWorkers(cells)
	byKey := map[string]ThroughputCell{}
	for _, c := range cells {
		byKey[fmt.Sprintf("%s/%d", c.Engine, c.Workers)] = c
	}

	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	fmt.Fprintf(&b, "%-8s", "")
	for _, w := range workers {
		fmt.Fprintf(&b, " %10s", fmt.Sprintf("%d-node", w))
	}
	b.WriteString("\n")
	for _, e := range engines {
		fmt.Fprintf(&b, "%-8s", e)
		for _, w := range workers {
			c, ok := byKey[fmt.Sprintf("%s/%d", e, w)]
			switch {
			case !ok:
				fmt.Fprintf(&b, " %10s", "-")
			case c.RateEvPerSec < 0:
				fmt.Fprintf(&b, " %10s", "fail")
			default:
				fmt.Fprintf(&b, " %10s", fmt.Sprintf("%.2f M/s", c.RateEvPerSec/1e6))
			}
		}
		b.WriteString("\n")
	}
	for _, c := range cells {
		if c.Note != "" {
			fmt.Fprintf(&b, "  note: %s %d-node: %s\n", c.Engine, c.Workers, c.Note)
		}
	}
	return b.String()
}

// LatencyRow is one row of Table II / Table IV.
type LatencyRow struct {
	Engine string
	// LoadPct is 100 for the maximum sustainable workload, 90 for the
	// reduced one (the paper's "Engine(90%)" rows).
	LoadPct int
	Workers int
	Summary metrics.Summary
}

// LatencyTable renders latency statistics in the paper's layout: one row
// per engine × load, one column group per cluster size with
// avg/min/max/quantiles in seconds.
func LatencyTable(title string, rows []LatencyRow) string {
	type key struct {
		engine string
		load   int
	}
	workers := map[int]bool{}
	var rowKeys []key
	seen := map[key]bool{}
	cells := map[string]metrics.Summary{}
	for _, r := range rows {
		workers[r.Workers] = true
		k := key{r.Engine, r.LoadPct}
		if !seen[k] {
			seen[k] = true
			rowKeys = append(rowKeys, k)
		}
		cells[fmt.Sprintf("%s/%d/%d", r.Engine, r.LoadPct, r.Workers)] = r.Summary
	}
	var ws []int
	for w := range workers {
		ws = append(ws, w)
	}
	sort.Ints(ws)

	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	fmt.Fprintf(&b, "%-12s %6s | %-42s\n", "", "", "avg / min / max / q(90, 95, 99)  [seconds]")
	for _, k := range rowKeys {
		name := k.engine
		if k.load != 100 {
			name = fmt.Sprintf("%s(%d%%)", k.engine, k.load)
		}
		for _, w := range ws {
			s, ok := cells[fmt.Sprintf("%s/%d/%d", k.engine, k.load, w)]
			if !ok {
				continue
			}
			fmt.Fprintf(&b, "%-12s %d-node | %.1f / %.3f / %.1f / (%.1f, %.1f, %.1f)\n",
				name, w,
				s.Avg.Seconds(), s.Min.Seconds(), s.Max.Seconds(),
				s.P90.Seconds(), s.P95.Seconds(), s.P99.Seconds())
		}
	}
	return b.String()
}

// FigurePanel is one time-series panel of a figure.
type FigurePanel struct {
	Title  string
	Series *metrics.Series
	// Unit annotates the y axis, e.g. "s", "M ev/s", "%".
	Unit string
}

// Figure renders a set of panels as sparkline + summary lines (for
// terminals) — the CSV of each panel is available via CSV below.
func Figure(title string, panels []FigurePanel) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	for _, p := range panels {
		s := p.Series
		fmt.Fprintf(&b, "  %-42s |%s| mean=%.2f%s min=%.2f max=%.2f cv=%.3f\n",
			p.Title, s.Sparkline(48), s.Mean(), p.Unit, s.Min(), s.Max(), s.CoefficientOfVariation())
	}
	return b.String()
}

// CSV renders every panel's series as concatenated CSV blocks, each
// preceded by a "# <title>" comment, for external plotting.
func CSV(panels []FigurePanel) string {
	var b strings.Builder
	for _, p := range panels {
		fmt.Fprintf(&b, "# %s\n%s", p.Title, p.Series.CSV())
	}
	return b.String()
}

func orderedEngines(cells []ThroughputCell) []string {
	// Preserve the paper's ordering: Storm, Spark, Flink, then others.
	rank := map[string]int{"storm": 0, "spark": 1, "flink": 2}
	var names []string
	seen := map[string]bool{}
	for _, c := range cells {
		if !seen[c.Engine] {
			seen[c.Engine] = true
			names = append(names, c.Engine)
		}
	}
	sort.SliceStable(names, func(i, j int) bool {
		ri, iok := rank[names[i]]
		rj, jok := rank[names[j]]
		switch {
		case iok && jok:
			return ri < rj
		case iok:
			return true
		case jok:
			return false
		default:
			return names[i] < names[j]
		}
	})
	return names
}

func orderedWorkers(cells []ThroughputCell) []int {
	seen := map[int]bool{}
	var ws []int
	for _, c := range cells {
		if !seen[c.Workers] {
			seen[c.Workers] = true
			ws = append(ws, c.Workers)
		}
	}
	sort.Ints(ws)
	return ws
}
