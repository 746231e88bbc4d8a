package core

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestEngineByName(t *testing.T) {
	for _, n := range []string{"storm", "spark", "flink", "ideal"} {
		e, err := EngineByName(n)
		if err != nil || e.Name() != n {
			t.Fatalf("EngineByName(%q): %v", n, err)
		}
	}
	if _, err := EngineByName("samza"); err == nil {
		t.Fatal("unknown engine accepted")
	}
	if len(Engines()) != 3 {
		t.Fatal("three engines expected")
	}
}

func TestPaperRates(t *testing.T) {
	agg := PaperRates(false)
	if agg["flink/2"] != 1.2e6 || agg["storm/8"] != 0.99e6 {
		t.Fatalf("aggregation anchors wrong: %+v", agg)
	}
	join := PaperRates(true)
	if join["flink/8"] != 1.19e6 || join["spark/2"] != 0.36e6 {
		t.Fatalf("join anchors wrong: %+v", join)
	}
	if _, ok := join["storm/2"]; ok {
		t.Fatal("storm has no published join rate (naive join aside)")
	}
}

func TestExp4Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("integration experiment")
	}
	out, err := mustRun(t, "exp4")
	if err != nil {
		t.Fatal(err)
	}
	m := out.Metrics
	// Storm and Flink do not scale under skew (flat across sizes).
	for _, eng := range []string{"storm", "flink"} {
		r2, r8 := m[eng+"/2"], m[eng+"/8"]
		if r8 > r2*1.4 || r2 > r8*1.4 {
			t.Fatalf("%s skew throughput should be flat: %v vs %v", eng, r2, r8)
		}
	}
	// Spark scales and overtakes both on >=4 workers (tree aggregate).
	if !(m["spark/4"] > m["flink/4"] && m["spark/4"] > m["storm/4"]) {
		t.Fatalf("spark must win at 4 nodes under skew: spark=%v flink=%v storm=%v",
			m["spark/4"], m["flink/4"], m["storm/4"])
	}
	if m["spark/8"] <= m["spark/4"] {
		t.Fatal("spark skew throughput should keep scaling")
	}
	// Spark is worse than Flink on the small cluster.
	if m["spark/2"] >= m["flink/2"] {
		t.Fatalf("spark should lose at 2 nodes under skew: %v vs %v", m["spark/2"], m["flink/2"])
	}
	// The skewed join: Flink stalls, Spark survives with high latency.
	if m["flink/join_failed"] != 1 {
		t.Fatal("flink skewed join should fail")
	}
	if m["spark/join_avg_latency"] < 5 {
		t.Fatalf("spark skewed join latency should be very high: %v", m["spark/join_avg_latency"])
	}
}

func TestFig7Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("integration experiment")
	}
	out, err := mustRun(t, "fig7")
	if err != nil {
		t.Fatal(err)
	}
	m := out.Metrics
	if m["sustainable"] != 0 {
		t.Fatal("fig7's offered rate must be unsustainable")
	}
	// Event-time latency diverges, processing-time latency does not:
	// the coordinated-omission illustration.
	if m["event_slope"] < 0.05 {
		t.Fatalf("event-time latency should diverge: slope %v", m["event_slope"])
	}
	if m["proc_slope"] > m["event_slope"]/4 {
		t.Fatalf("processing-time latency should stay flat: %v vs %v",
			m["proc_slope"], m["event_slope"])
	}
}

func TestFig10Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("integration experiment")
	}
	out, err := mustRun(t, "fig10")
	if err != nil {
		t.Fatal(err)
	}
	m := out.Metrics
	// Figure 10: Flink uses the least CPU (network bound); Storm and
	// Spark burn ~50% more cycles.
	if !(m["flink/cpu_mean"] < m["storm/cpu_mean"] && m["flink/cpu_mean"] < m["spark/cpu_mean"]) {
		t.Fatalf("flink must use the least CPU: flink=%v storm=%v spark=%v",
			m["flink/cpu_mean"], m["storm/cpu_mean"], m["spark/cpu_mean"])
	}
}

func TestExp3Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("integration experiment")
	}
	out, err := mustRun(t, "exp3")
	if err != nil {
		t.Fatal(err)
	}
	m := out.Metrics
	def := m["spark/default/rate"]
	inv := m["spark/inverse-reduce/rate"]
	rec := m["spark/recompute/rate"]
	small := m["spark/smallwindow/rate"]
	// Caching halves throughput on the large window; the inverse-reduce
	// fix restores it; recompute is the worst.
	if def > small*0.65 {
		t.Fatalf("cached large-window throughput should drop ~2x: %v vs small-window %v", def, small)
	}
	if inv < small*0.8 {
		t.Fatalf("inverse-reduce should restore throughput: %v vs %v", inv, small)
	}
	if rec >= def {
		t.Fatalf("recompute should be the slowest: %v vs default %v", rec, def)
	}
	// Latency blow-up for the caching strategy at the half-rate point.
	if m["spark/default/avg_latency"] < 2*m["spark/inverse-reduce/avg_latency"] {
		t.Fatalf("caching latency should blow up vs inverse-reduce: %v vs %v",
			m["spark/default/avg_latency"], m["spark/inverse-reduce/avg_latency"])
	}
	// Storm OOMs without spill, survives with it.
	if m["storm/spill=false/failed"] != 1 || m["storm/spill=true/failed"] != 0 {
		t.Fatal("storm spill behaviour wrong")
	}
	// Flink sails through at the network bound.
	if m["flink/large/sustainable"] != 1 {
		t.Fatal("flink must sustain the large window at 1.2M ev/s")
	}
}

// mustRun executes the experiment at Quick scale and sanity-checks the
// outcome envelope.
func mustRun(t *testing.T, id string) (*Outcome, error) {
	t.Helper()
	e, err := Lookup(id)
	if err != nil {
		return nil, err
	}
	out, err := e.Run(Options{Scale: Quick})
	if err != nil {
		return nil, err
	}
	if strings.TrimSpace(out.Text) == "" {
		t.Fatalf("%s produced no text artefact", id)
	}
	if len(out.Metrics) == 0 {
		t.Fatalf("%s produced no metrics", id)
	}
	return out, nil
}

func TestAblationBrokerShape(t *testing.T) {
	if testing.Short() {
		t.Skip("integration experiment")
	}
	out, err := mustRun(t, "ablation-broker")
	if err != nil {
		t.Fatal(err)
	}
	m := out.Metrics
	// The broker must cap throughput below the direct deployment and
	// raise the latency floor (Section III-A's argument).
	if m["broker/rate"] >= m["direct/rate"]*0.9 {
		t.Fatalf("broker should bottleneck: %v vs direct %v", m["broker/rate"], m["direct/rate"])
	}
	if m["broker/avg_latency"] <= m["direct/avg_latency"] {
		t.Fatalf("broker should add latency: %v vs %v", m["broker/avg_latency"], m["direct/avg_latency"])
	}
}

func TestAblationGuaranteesShape(t *testing.T) {
	if testing.Short() {
		t.Skip("integration experiment")
	}
	out, err := mustRun(t, "ablation-guarantees")
	if err != nil {
		t.Fatal(err)
	}
	m := out.Metrics
	// Weaker guarantees buy throughput; stronger ones cost a bounded
	// share of it.
	if m["storm/at-most-once"] <= m["storm/at-least-once"] {
		t.Fatalf("disabling acking should raise storm's rate: %v vs %v",
			m["storm/at-most-once"], m["storm/at-least-once"])
	}
	if m["flink/exactly-once"] >= m["flink/at-least-once"]*1.01 {
		t.Fatalf("exactly-once should not be free: %v vs %v",
			m["flink/exactly-once"], m["flink/at-least-once"])
	}
	if m["flink/exactly-once"] < m["flink/at-least-once"]*0.85 {
		t.Fatalf("exactly-once cost implausibly high: %v vs %v",
			m["flink/exactly-once"], m["flink/at-least-once"])
	}
}

func TestAblationDisorderShape(t *testing.T) {
	if testing.Short() {
		t.Skip("integration experiment")
	}
	out, err := mustRun(t, "ablation-disorder")
	if err != nil {
		t.Fatal(err)
	}
	m := out.Metrics
	// No slack: contributions are lost.  Slack >= the disorder bound:
	// nothing is lost, but latency rises with slack.
	if m["slack=0s/dropped_frac"] <= 0 {
		t.Fatal("zero slack under disorder should lose contributions")
	}
	if m["slack=2s/dropped_frac"] != 0 {
		t.Fatalf("slack at the disorder bound should lose nothing: %v", m["slack=2s/dropped_frac"])
	}
	if m["slack=4s/avg_latency"] <= m["slack=0s/avg_latency"] {
		t.Fatal("more slack must mean more latency")
	}
}

func TestReplicate(t *testing.T) {
	if testing.Short() {
		t.Skip("integration experiment")
	}
	rep, err := Replicate("fig7", Options{Scale: Quick}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Seeds) != 3 {
		t.Fatalf("seeds: %v", rep.Seeds)
	}
	s, ok := rep.Stats["event_slope"]
	if !ok || s.N != 3 {
		t.Fatalf("event_slope stats missing: %+v", s)
	}
	if !(s.Min <= s.Mean && s.Mean <= s.Max) {
		t.Fatalf("stat ordering broken: %+v", s)
	}
	// The overload divergence must be robust across seeds, not a
	// single-seed artifact.
	if s.Min < 0.05 {
		t.Fatalf("event-time divergence should hold for every seed: min %v", s.Min)
	}
	if rep.Text() == "" {
		t.Fatal("replication must render")
	}
	if _, err := Replicate("nope", Options{}, 2); err == nil {
		t.Fatal("unknown id accepted")
	}
}

// TestReplicateGoldenText pins the cell-level replication refactor against
// the output of the pre-refactor, replica-at-a-time implementation
// (testdata/fig7-replicate3.golden.txt): same seeds, same aggregation,
// same rendering.
func TestReplicateGoldenText(t *testing.T) {
	if testing.Short() {
		t.Skip("integration experiment")
	}
	want, err := os.ReadFile(filepath.Join("testdata", "fig7-replicate3.golden.txt"))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Replicate("fig7", Options{Seed: 42, Scale: Quick}, 3)
	if err != nil {
		t.Fatal(err)
	}
	// The golden file was captured via `sdpsbench -replicate`, whose
	// Println appended one newline beyond Text()'s own.
	if rep.Text() != strings.TrimSuffix(string(want), "\n") {
		t.Fatalf("replication text drifted from golden:\n got:\n%s\nwant:\n%s", rep.Text(), want)
	}
}

// TestReplicatedExperimentCells pins the per-seed cell expansion: one cell
// per (seed, base cell), base seed substituted per replica, and the
// assembled artefact carrying the spread table.
func TestReplicatedExperimentCells(t *testing.T) {
	exp, err := Lookup("fig7")
	if err != nil {
		t.Fatal(err)
	}
	rexp := Replicated(exp, 3)
	cells := rexp.Cells(Options{Seed: 42})
	wantIDs := []string{"seed42/spark/overload", "seed7961/spark/overload", "seed15880/spark/overload"}
	if len(cells) != len(wantIDs) {
		t.Fatalf("%d cells, want %d", len(cells), len(wantIDs))
	}
	for i, c := range cells {
		if c.ID != wantIDs[i] {
			t.Fatalf("cell %d = %q, want %q", i, c.ID, wantIDs[i])
		}
	}
}
