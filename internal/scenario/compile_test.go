package scenario

import (
	"context"
	"strings"
	"testing"

	"repro/internal/core"
)

func TestRegistryComplete(t *testing.T) {
	// Every table and figure of the evaluation must be registered —
	// the grid experiments through the builtin specs here, the irregular
	// ones through internal/core's own init functions.
	want := []string{
		"table1", "table2", "table3", "table4",
		"fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11",
		"exp3", "exp4",
		"ablation-broker", "ablation-guarantees", "ablation-disorder",
	}
	for _, id := range want {
		if _, err := core.Lookup(id); err != nil {
			t.Fatalf("experiment %q not registered: %v", id, err)
		}
	}
	if len(core.Experiments()) != len(want) {
		t.Fatalf("registry size %d, want %d", len(core.Experiments()), len(want))
	}
	// Presentation order: table1 first.
	if core.Experiments()[0].ID != "table1" {
		t.Fatalf("presentation order wrong: first is %s", core.Experiments()[0].ID)
	}
	if _, err := core.Lookup("nope"); err == nil {
		t.Fatal("unknown id accepted")
	}
}

// TestBuiltinCellEnumeration pins the compiled cell IDs and their order
// against the hand-written enumerations they replaced.  This is the cheap
// half of the byte-identity argument (the golden test is the expensive
// half): identical cell sets in identical order, fed through identical
// assembly, cannot produce a different artifact.
func TestBuiltinCellEnumeration(t *testing.T) {
	want := map[string][]string{
		"table1": {
			"storm/2", "storm/4", "storm/8",
			"spark/2", "spark/4", "spark/8",
			"flink/2", "flink/4", "flink/8",
		},
		"table2": {
			"storm/2/100", "storm/4/100", "storm/8/100", "storm/2/90", "storm/4/90", "storm/8/90",
			"spark/2/100", "spark/4/100", "spark/8/100", "spark/2/90", "spark/4/90", "spark/8/90",
			"flink/2/100", "flink/4/100", "flink/8/100", "flink/2/90", "flink/4/90", "flink/8/90",
		},
		"table3": {
			"spark/2", "spark/4", "spark/8",
			"flink/2", "flink/4", "flink/8",
			"storm-naive/2", "storm-naive/4",
		},
		"fig4": {
			"storm/2/100", "storm/2/90", "storm/4/100", "storm/4/90", "storm/8/100", "storm/8/90",
			"spark/2/100", "spark/2/90", "spark/4/100", "spark/4/90", "spark/8/100", "spark/8/90",
			"flink/2/100", "flink/2/90", "flink/4/100", "flink/4/90", "flink/8/100", "flink/8/90",
		},
		"fig6": {
			"agg/storm", "agg/spark", "agg/flink",
			"join/spark", "join/flink",
		},
		"fig8": {"storm", "spark", "flink"},
		"fig9": {"storm", "spark", "flink"},
	}
	for _, s := range Builtin() {
		ids, ok := want[s.Name]
		if !ok {
			continue
		}
		exp, err := Compile(s)
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		cells := exp.Cells(core.Options{Seed: 42})
		if len(cells) != len(ids) {
			t.Fatalf("%s: %d cells, want %d", s.Name, len(cells), len(ids))
		}
		for i, c := range cells {
			if c.ID != ids[i] {
				t.Fatalf("%s: cell %d is %q, want %q", s.Name, i, c.ID, ids[i])
			}
		}
	}
}

func TestContentKeysIdentifyCellsAcrossSpecs(t *testing.T) {
	// The same physical cell in two different (overlapping) scenarios must
	// hash to the same content key — that is what lets agents reuse
	// results across submissions — while distinct grid points must not.
	narrow := validSpec()
	narrow.Name = "narrow"
	wide := validSpec()
	wide.Name = "wide"
	wide.Sweeps[0].Engines = []string{"flink", "spark"}
	wide.Sweeps[0].Workers = []int{2, 4}

	keysOf := func(s Spec) map[string]string {
		exp, err := Compile(s)
		if err != nil {
			t.Fatal(err)
		}
		out := map[string]string{}
		for _, c := range exp.Cells(core.Options{Seed: 42}) {
			if c.Key == "" {
				t.Fatalf("%s: cell %s has no content key", s.Name, c.ID)
			}
			out[c.ID] = c.Key
		}
		return out
	}
	nk, wk := keysOf(narrow), keysOf(wide)
	if nk["flink"] != wk["flink/2"] {
		t.Fatal("identical cell content must share a key across specs")
	}
	seen := map[string]string{}
	for id, k := range wk {
		if prev, dup := seen[k]; dup {
			t.Fatalf("cells %s and %s share a content key", prev, id)
		}
		seen[k] = id
	}
	// A different seed is different content.
	exp, _ := Compile(narrow)
	reseeded := exp.Cells(core.Options{Seed: 43})
	if reseeded[0].Key == nk["flink"] {
		t.Fatal("seed must be part of the content key")
	}
}

// TestSeriesMetricKeysStayDistinct guards the default metric keys of the
// pair/throughput series kinds: axes that vary within a sweep must appear
// in the key, or grid points would overwrite each other's metrics.
func TestSeriesMetricKeysStayDistinct(t *testing.T) {
	s := validSpec()
	s.Measure = Measure{Kind: MeasureThroughputSeries}
	s.Sweeps[0].Workers = []int{2, 4}
	pts := points(s)
	if len(pts) != 2 {
		t.Fatalf("points: %d", len(pts))
	}
	k0, k1 := metricBase(s, pts[0]), metricBase(s, pts[1])
	if k0 == k1 {
		t.Fatalf("multi-worker throughput-series metric keys collide: %q", k0)
	}
	if l0, l1 := labelFor(s, pts[0]), labelFor(s, pts[1]); l0 == l1 {
		t.Fatalf("multi-worker throughput-series panel titles collide: %q", l0)
	}
	// Single-valued axes keep the bare-engine defaults (fig8/fig9 shape).
	s.Sweeps[0].Workers = []int{4}
	if got := metricBase(s, points(s)[0]); got != "flink" {
		t.Fatalf("single-point default metric key: %q", got)
	}
}

// TestContentKeySharedAcrossPctSets guards the cache-reuse contract: the
// same resolved load point must hash identically even when the sweeps
// list different pct axes around it.
func TestContentKeySharedAcrossPctSets(t *testing.T) {
	mk := func(pcts []int) Spec {
		s := validSpec()
		s.Sweeps[0].Engines = []string{"flink"}
		s.Sweeps[0].Workers = []int{2}
		s.Sweeps[0].Load = Load{Kind: LoadTableRates, Pcts: pcts}
		return s
	}
	keyOf := func(s Spec, id string) string {
		exp, err := Compile(s)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range exp.Cells(core.Options{Seed: 42}) {
			if c.ID == id {
				return c.Key
			}
		}
		t.Fatalf("cell %s not found", id)
		return ""
	}
	only100 := keyOf(mk([]int{100}), "flink")
	both := keyOf(mk([]int{100, 90}), "flink/100")
	if only100 != both {
		t.Fatal("pct-100 grid point must share its content key across pct sets")
	}
	if both == keyOf(mk([]int{100, 90}), "flink/90") {
		t.Fatal("different pcts must not share a key")
	}
}

// TestLatencyRowsLabelAtAssembly pins the cache-safety contract of the
// latency wire shape: cell results carry raw coordinates only, and sweep
// labels are applied at assembly — so a result cached under its content
// key renders with the right row name inside any scenario sharing the
// grid point.
func TestLatencyRowsLabelAtAssembly(t *testing.T) {
	mk := func(label string) Spec {
		s := validSpec()
		s.Sweeps[0].Label = label
		s.Sweeps[0].MetricKey = "{engine}"
		return s
	}
	a, b := mk("A {engine}"), mk("B {engine}")
	expA, err := Compile(a)
	if err != nil {
		t.Fatal(err)
	}
	expB, err := Compile(b)
	if err != nil {
		t.Fatal(err)
	}
	// Labels are presentation-only: the grid point's content key must not
	// change with them.
	ka, kb := expA.Cells(core.Options{Seed: 42})[0].Key, expB.Cells(core.Options{Seed: 42})[0].Key
	if ka == "" || ka != kb {
		t.Fatalf("labels leaked into the content key: %q vs %q", ka, kb)
	}
	// The same encoded result assembles under each spec's own label.
	raw, err := core.EncodeCellResult(latencyResult{Engine: "flink", Workers: 2, Pct: 100})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		spec Spec
		want string
	}{{a, "A flink"}, {b, "B flink"}} {
		out, err := assemble(tc.spec, core.Options{Seed: 42}, [][]byte{raw})
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(out.Text, tc.want) {
			t.Fatalf("row label %q missing from:\n%s", tc.want, out.Text)
		}
	}
}

func TestSeedsExpandToCellLevelReplicas(t *testing.T) {
	s := validSpec()
	s.Name = "replicated"
	s.Seeds = 3
	s.Sweeps[0].Engines = []string{"flink", "spark"}
	exp, err := Compile(s)
	if err != nil {
		t.Fatal(err)
	}
	cells := exp.Cells(core.Options{Seed: 10})
	if len(cells) != 6 { // 3 seeds × 2 grid points
		t.Fatalf("replicated grid has %d cells, want 6", len(cells))
	}
	wantPrefixes := []string{"seed10/", "seed10/", "seed7929/", "seed7929/", "seed15848/", "seed15848/"}
	keys := map[string]bool{}
	for i, c := range cells {
		if !strings.HasPrefix(c.ID, wantPrefixes[i]) {
			t.Fatalf("cell %d = %q, want prefix %q", i, c.ID, wantPrefixes[i])
		}
		if c.Key == "" || keys[c.Key] {
			t.Fatalf("replica cells must keep distinct content keys: %q", c.Key)
		}
		keys[c.Key] = true
	}
}

// TestScenarioRunsEndToEnd compiles and runs a tiny novel scenario (one
// cheap fixed-rate cell) and checks the kind-driven rendering: heading,
// panels, CSV and metric keys all derive from the spec.
func TestScenarioRunsEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("integration experiment")
	}
	s := Spec{
		Name:    "tiny",
		Title:   "tiny scenario",
		Heading: "tiny: flink pull rate",
		Seeds:   1,
		Measure: Measure{Kind: MeasureThroughputSeries},
		Sweeps: []Sweep{{
			Engines: []string{"flink"},
			Workers: []int{2},
			Query:   Query{Kind: "aggregation"},
			Load:    Load{Kind: LoadConstant, RateEvPerSec: 0.4e6},
			Label:   "{engine} @0.4M",
		}},
	}
	exp, err := Compile(s)
	if err != nil {
		t.Fatal(err)
	}
	out, err := exp.RunContext(context.Background(), core.Options{Seed: 7, Scale: core.Quick}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(out.Text, "tiny: flink pull rate\n") {
		t.Fatalf("heading not rendered: %q", out.Text)
	}
	if len(out.Panels) != 1 || out.Panels[0].Title != "flink @0.4M" {
		t.Fatalf("panel label wrong: %+v", out.Panels)
	}
	if out.CSV == "" {
		t.Fatal("series measure must emit CSV")
	}
	if _, ok := out.Metrics["flink/cv"]; !ok {
		t.Fatalf("metric key wrong: %v", out.Metrics)
	}
}

// TestIdealSustainableRateNeverFallsWithWorkers is a metamorphic test: the
// ideal engine has no coordination cost, so adding workers never lowers
// its sustainable rate.  It runs as a spec, which also pins that specs can
// name the ideal engine.
func TestIdealSustainableRateNeverFallsWithWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("integration experiment")
	}
	exp, err := Compile(Spec{
		Name:    "ideal-scaling",
		Seeds:   1,
		Measure: Measure{Kind: MeasureSustainable},
		Sweeps: []Sweep{{
			Engines: []string{"ideal"},
			Workers: []int{2, 4, 8},
			Query:   Query{Kind: "aggregation"},
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	out, err := exp.RunContext(context.Background(), core.Options{Seed: 42, Scale: core.Quick}, nil)
	if err != nil {
		t.Fatal(err)
	}
	prev := 0.0
	for _, k := range []string{"ideal/2", "ideal/4", "ideal/8"} {
		r, ok := out.Metrics[k]
		if !ok || r <= 0 {
			t.Fatalf("%s = %v (present %v), want a positive sustainable rate", k, r, ok)
		}
		if r < prev {
			t.Fatalf("%s = %v fell below the smaller cluster's %v", k, r, prev)
		}
		prev = r
	}
}

// TestScenarioReplicationEndToEnd runs a Seeds>1 scenario and checks the
// replication artefact: per-seed cells executed, spread table rendered,
// flattened metrics present.
func TestScenarioReplicationEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("integration experiment")
	}
	s := Spec{
		Name:    "tiny-replicated",
		Seeds:   2,
		Measure: Measure{Kind: MeasureLatency},
		Sweeps: []Sweep{{
			Engines: []string{"flink"},
			Workers: []int{2},
			Query:   Query{Kind: "aggregation"},
			Load:    Load{Kind: LoadConstant, RateEvPerSec: 0.4e6},
		}},
	}
	exp, err := Compile(s)
	if err != nil {
		t.Fatal(err)
	}
	out, err := exp.RunContext(context.Background(), core.Options{Seed: 5, Scale: core.Quick}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.Text, "tiny-replicated over 2 seeds [5 7924]") {
		t.Fatalf("replication header missing: %q", out.Text)
	}
	if out.Metrics["replicas"] != 2 {
		t.Fatalf("replica count metric: %v", out.Metrics)
	}
	for _, k := range []string{"flink/2/100/avg/mean", "flink/2/100/avg/spread"} {
		if _, ok := out.Metrics[k]; !ok {
			t.Fatalf("flattened metric %s missing: %v", k, out.Metrics)
		}
	}
}
