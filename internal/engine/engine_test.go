package engine

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/cluster"
	"repro/internal/fault"
	"repro/internal/queue"
	"repro/internal/sim"
	"repro/internal/tuple"
	"repro/internal/window"
	"repro/internal/workload"
)

func TestCapacityLawMonotoneInWorkers(t *testing.T) {
	// Monotone over the paper's cluster range; far beyond it the
	// quadratic coordination term may legitimately bend the curve over.
	l := CapacityLaw{A: 0.2e6, B: 0.06, C: 0.006}
	prev := 0.0
	for n := 1; n <= 8; n++ {
		c := l.Cap(n)
		if c <= prev {
			t.Fatalf("law not increasing at n=%d: %v <= %v", n, c, prev)
		}
		prev = c
	}
	if l.Cap(0) != 0 || l.Cap(-1) != 0 {
		t.Fatal("non-positive n must give zero capacity")
	}
}

func TestFitThroughPointsExact(t *testing.T) {
	// The law fitted through the paper's Storm Table I numbers must
	// reproduce them exactly.
	cases := [][3]float64{
		{0.40e6, 0.69e6, 0.99e6}, // Storm aggregation
		{0.38e6, 0.64e6, 0.91e6}, // Spark aggregation
		{0.36e6, 0.63e6, 0.94e6}, // Spark join
	}
	for _, c := range cases {
		l := FitThroughPoints(c[0], c[1], c[2])
		for i, n := range []int{2, 4, 8} {
			if got := l.Cap(n); math.Abs(got-c[i])/c[i] > 1e-9 {
				t.Fatalf("fit(%v) at n=%d: got %v want %v", c, n, got, c[i])
			}
		}
	}
}

func TestFitThroughPointsSubLinear(t *testing.T) {
	// Table I's Storm scaling is sub-linear: doubling workers must not
	// double capacity under the fitted law.
	l := FitThroughPoints(0.40e6, 0.69e6, 0.99e6)
	if l.Cap(4) >= 2*l.Cap(2) {
		t.Fatal("fitted law should be sub-linear like the measurements")
	}
	// And it should extrapolate sanely (positive, increasing) to 16.
	if l.Cap(16) <= l.Cap(8) {
		t.Fatalf("extrapolation broke: cap(16)=%v cap(8)=%v", l.Cap(16), l.Cap(8))
	}
}

func TestHotKeyTracker(t *testing.T) {
	h := NewHotKeyTracker()
	if h.HotShare() != 0 {
		t.Fatal("empty tracker must report 0")
	}
	h.Observe(1, 80)
	h.Observe(2, 20)
	if got := h.HotShare(); math.Abs(got-0.8) > 1e-9 {
		t.Fatalf("hot share: got %v want 0.8", got)
	}
	h.Decay()
	if got := h.HotShare(); math.Abs(got-0.8) > 1e-9 {
		t.Fatalf("decay must preserve the ratio: got %v", got)
	}
	// Repeated decay removes stale keys entirely.
	for i := 0; i < 10; i++ {
		h.Decay()
	}
	if h.HotShare() != 0 {
		t.Fatalf("fully decayed tracker should report 0, got %v", h.HotShare())
	}
}

func TestHotKeyTrackerFollowsShift(t *testing.T) {
	h := NewHotKeyTracker()
	for i := 0; i < 100; i++ {
		h.Observe(1, 1)
	}
	for i := 0; i < 6; i++ {
		h.Decay()
		for j := 0; j < 100; j++ {
			h.Observe(2, 1)
		}
	}
	if h.HotShare() < 0.9 {
		t.Fatalf("tracker should have shifted to the new hot key: %v", h.HotShare())
	}
}

func TestSlotConstraint(t *testing.T) {
	// Balanced keys: no constraint.
	if got := SlotConstraint(1e6, 0.48e6, 0.001); got != 1e6 {
		t.Fatalf("balanced input must keep cluster capacity, got %v", got)
	}
	// Single key: one slot's capacity (Experiment 4).
	if got := SlotConstraint(1e6, 0.48e6, 1.0); got != 0.48e6 {
		t.Fatalf("single-key input must pin to slot capacity, got %v", got)
	}
	// Zero share: unconstrained.
	if got := SlotConstraint(1e6, 0.48e6, 0); got != 1e6 {
		t.Fatalf("zero hot share must be unconstrained, got %v", got)
	}
	// Partial skew interpolates.
	if got := SlotConstraint(1e6, 0.48e6, 0.5); got != 0.96e6 {
		t.Fatalf("hotShare 0.5: got %v want 0.96e6", got)
	}
}

func TestSlotConstraintProperty(t *testing.T) {
	f := func(capRaw, slotRaw, shareRaw uint16) bool {
		clusterCap := float64(capRaw)/65535*2e6 + 1
		slotCap := float64(slotRaw)/65535*1e6 + 1
		share := float64(shareRaw) / 65535
		got := SlotConstraint(clusterCap, slotCap, share)
		// Never exceeds cluster capacity; never negative.
		return got <= clusterCap && got > 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTransientModelExpectedLoss(t *testing.T) {
	m := TransientModel{
		GCMeanInterval: 50 * time.Second,
		GCPauseMin:     400 * time.Millisecond,
		GCPauseMax:     600 * time.Millisecond,
	}
	// Mean pause 0.5s every 50s = 1% loss.
	if got := m.ExpectedLoss(); math.Abs(got-0.01) > 1e-9 {
		t.Fatalf("GC-only loss: got %v want 0.01", got)
	}
	m.SlowMeanInterval = 100 * time.Second
	m.SlowBase = 1 * time.Second
	m.SlowSpan = 2 * time.Second
	m.SlowCapFactor = 0.5
	m.SlowMajorProb = 0 // no majors
	// Mean slow duration 2s at 50% loss every 100s = 1% more.
	if got := m.ExpectedLoss(); math.Abs(got-0.02) > 1e-9 {
		t.Fatalf("combined loss: got %v want 0.02", got)
	}
	if m.Margin() <= 1 {
		t.Fatal("margin must exceed 1 when loss is positive")
	}
}

func TestTransientsEmpiricalLossMatchesExpected(t *testing.T) {
	// Run the episode process for a long virtual time and check the
	// realised capacity loss is close to ExpectedLoss.
	m := TransientModel{
		GCMeanInterval:   30 * time.Second,
		GCMinInterval:    time.Second,
		GCPauseMin:       300 * time.Millisecond,
		GCPauseMax:       900 * time.Millisecond,
		SlowMeanInterval: 40 * time.Second,
		SlowMinInterval:  time.Second,
		SlowBase:         time.Second,
		SlowSpan:         2 * time.Second,
		SlowMajorProb:    0.1,
		SlowMajorFactor:  2,
		SlowCapFactor:    0.3,
	}
	rng := sim.NewRNG(7, "transients")
	tr := NewTransients(m, rng, 0)
	tick := 10 * time.Millisecond
	var got float64
	n := 0
	for now := sim.Time(0); now < 3*time.Hour; now += tick {
		got += 1 - tr.Factor(now)
		n++
	}
	realised := got / float64(n)
	want := m.ExpectedLoss()
	if math.Abs(realised-want) > 0.25*want {
		t.Fatalf("realised loss %v too far from expected %v", realised, want)
	}
}

func TestTransientsGCStopsEverything(t *testing.T) {
	m := TransientModel{
		GCMeanInterval: time.Second,
		GCMinInterval:  time.Millisecond,
		GCPauseMin:     100 * time.Millisecond,
		GCPauseMax:     100 * time.Millisecond,
	}
	tr := NewTransients(m, sim.NewRNG(1, "gc"), 0)
	sawPause := false
	for now := sim.Time(0); now < 30*time.Second; now += 10 * time.Millisecond {
		if tr.Factor(now) == 0 {
			sawPause = true
		}
	}
	if !sawPause {
		t.Fatal("GC pauses never fired")
	}
}

// testConfig builds a minimal valid engine config.
func testConfig(t *testing.T) Config {
	t.Helper()
	cl, err := cluster.New(cluster.DefaultConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	return Config{
		Cluster: cl,
		Query:   workload.Default(workload.Aggregation),
		Sources: queue.NewGroup("q", 2, 0),
		Sink:    func(*tuple.Output) {},
	}
}

// stubEngine carries the two cost models NewRuntime binds; its Deploy is
// never called.
type stubEngine struct{}

func (stubEngine) Name() string                            { return "stub" }
func (stubEngine) Deploy(*sim.Kernel, Config) (Job, error) { return nil, nil }
func (stubEngine) Recovery() fault.Recovery                { return fault.Recovery{Kind: fault.RecoveryReplay} }
func (stubEngine) Rescale() fault.Rescale                  { return fault.Rescale{Kind: fault.RescaleRebalance} }

func newTestRuntime(t *testing.T, k *sim.Kernel, cfg Config) *Runtime {
	t.Helper()
	rt, err := NewRuntime(k, cfg, stubEngine{})
	if err != nil {
		t.Fatal(err)
	}
	return rt
}

// TestNewRuntimeRecyclesArena pins the one reset path: a second
// deployment on the same arena gets the same Runtime back with only the
// arena's buffers carried over — no watermark, failure, budget carry or
// window state from the previous run — and the new query's window state,
// fabric bound and the engine's cost models bound.
func TestNewRuntimeRecyclesArena(t *testing.T) {
	cfg := testConfig(t)
	cfg.Mem = NewMem()
	rt := newTestRuntime(t, sim.NewKernel(1), cfg)
	if rt.Agg == nil || rt.Join != nil || rt.NetCap != cfg.Cluster.NetworkEventCap(1) {
		t.Fatalf("aggregation deployment: Agg %v Join %v NetCap %v", rt.Agg, rt.Join, rt.NetCap)
	}
	if rt.Recovery.Kind != fault.RecoveryReplay || rt.Rescale.Kind != fault.RescaleRebalance {
		t.Fatalf("cost models not bound: %+v %+v", rt.Recovery, rt.Rescale)
	}
	cfg.Sources.Queue(0).Push(tuple.Event{GemPackID: 5, EventTime: time.Second, Weight: 10})
	rt.Pull(10, time.Second)
	rt.TupleBudget(333, 7)
	rt.CPUPerMEvent = 99
	rt.Fail("boom")

	cfg.Query = workload.Default(workload.Join)
	rt2 := newTestRuntime(t, sim.NewKernel(2), cfg)
	if rt2 != rt {
		t.Fatal("the arena's runtime was not recycled")
	}
	if failed, _ := rt2.Failed(); failed || rt2.Watermark != 0 || rt2.carry != 0 || rt2.CPUPerMEvent != 30 {
		t.Fatalf("recycled runtime kept run state: failed %v watermark %v carry %v cpu %v",
			failed, rt2.Watermark, rt2.carry, rt2.CPUPerMEvent)
	}
	if rt2.HotKeys.HotShare() != 0 || rt2.pullBatch.Len() != 0 {
		t.Fatal("recycled hot-key table or pull batch not reset")
	}
	if rt2.Agg != nil || rt2.Join == nil || rt2.NetCap >= cfg.Cluster.NetworkEventCap(1) {
		t.Fatalf("join deployment: Agg %v Join %v NetCap %v", rt2.Agg, rt2.Join, rt2.NetCap)
	}
	cfg.Sink = nil
	if _, err := NewRuntime(sim.NewKernel(3), cfg, stubEngine{}); err == nil {
		t.Fatal("invalid config accepted")
	}
}

func TestConfigValidate(t *testing.T) {
	good := testConfig(t)
	if err := good.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	c := good
	c.Cluster = nil
	if c.Validate() == nil {
		t.Fatal("nil cluster accepted")
	}
	c = good
	c.Sources = nil
	if c.Validate() == nil {
		t.Fatal("nil sources accepted")
	}
	c = good
	c.Sink = nil
	if c.Validate() == nil {
		t.Fatal("nil sink accepted")
	}
	d := Config{}.WithDefaults()
	if d.Tick != 10*time.Millisecond || d.EventWeight != 1 {
		t.Fatalf("defaults wrong: %+v", d)
	}
}

func TestRuntimePullStampsAndTracks(t *testing.T) {
	k := sim.NewKernel(1)
	cfg := testConfig(t).WithDefaults()
	rt := newTestRuntime(t, k, cfg)
	cfg.Sources.Queue(0).Push(tuple.Event{GemPackID: 5, EventTime: time.Second, Weight: 10})
	cfg.Sources.Queue(1).Push(tuple.Event{GemPackID: 5, EventTime: 2 * time.Second, Weight: 10})

	batch, w := rt.Pull(10, 3*time.Second)
	if batch.Len() != 2 || w != 20 {
		t.Fatalf("pull: %d events weight %d", batch.Len(), w)
	}
	for _, it := range batch.Columns().IngestTime {
		if it != 3*time.Second {
			t.Fatalf("ingest time not stamped: %v", it)
		}
	}
	if rt.Watermark != 2*time.Second {
		t.Fatalf("watermark: %v", rt.Watermark)
	}
	if rt.HotKeys.HotShare() != 1.0 {
		t.Fatalf("hot share should be 1 for single key: %v", rt.HotKeys.HotShare())
	}
}

func TestRuntimeTupleBudgetLongRunExact(t *testing.T) {
	k := sim.NewKernel(1)
	cfg := testConfig(t).WithDefaults()
	rt := newTestRuntime(t, k, cfg)
	// 333 ev/s at weight 7 and 10ms ticks: budget per tick is fractional;
	// the carry must keep the long-run total exact.
	total := 0
	for i := 0; i < 10000; i++ {
		total += rt.TupleBudget(333, 7)
	}
	want := 333.0 * (10000 * 0.01) / 7
	if math.Abs(float64(total)-want) > 1 {
		t.Fatalf("long-run budget %d, want ~%v", total, want)
	}
	if rt.TupleBudget(0, 7) != 0 || rt.TupleBudget(-5, 7) != 0 {
		t.Fatal("non-positive capacity must yield zero budget")
	}
}

func TestRuntimeFailAndStop(t *testing.T) {
	k := sim.NewKernel(1)
	cfg := testConfig(t).WithDefaults()
	rt := newTestRuntime(t, k, cfg)
	ticks := 0
	rt.Start(func(now sim.Time) { ticks++ })
	k.Run(100 * time.Millisecond)
	if ticks == 0 {
		t.Fatal("runtime never ticked")
	}
	rt.Fail("boom")
	rt.Fail("second failure must not overwrite")
	failed, reason := rt.Failed()
	if !failed || reason != "boom" {
		t.Fatalf("failure state: %v %q", failed, reason)
	}
	before := ticks
	k.Run(200 * time.Millisecond)
	if ticks != before {
		t.Fatal("ticks continued after failure")
	}
}

func TestRuntimeEmitAggProvenance(t *testing.T) {
	k := sim.NewKernel(1)
	cfg := testConfig(t).WithDefaults()
	var got *tuple.Output
	cfg.Sink = func(o *tuple.Output) { got = o }
	rt := newTestRuntime(t, k, cfg)
	r := window.Result{
		Key:    7,
		Window: window.ID{End: 8 * time.Second},
		Agg: window.Agg{
			Sum: 42, Count: 3, Weight: 30,
			Prov: tuple.Provenance{MaxEventTime: 7 * time.Second, MaxProcTime: 7500 * time.Millisecond},
		},
	}
	rt.EmitAgg(r, 9*time.Second)
	if got == nil {
		t.Fatal("sink not called")
	}
	if got.Key != 7 || got.Value != 42 || got.WindowEnd != 8*time.Second {
		t.Fatalf("output fields: %+v", got)
	}
	if got.EventTimeLatency() != 2*time.Second {
		t.Fatalf("event-time latency: %v", got.EventTimeLatency())
	}
	if got.ProcTimeLatency() != 1500*time.Millisecond {
		t.Fatalf("processing-time latency: %v", got.ProcTimeLatency())
	}
}
