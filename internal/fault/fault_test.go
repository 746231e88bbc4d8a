package fault

import (
	"math"
	"strings"
	"testing"
	"time"
)

// scale is Schedule.Scale under instant recovery with a fresh buffer.
func scale(s *Schedule, n int, now time.Duration, workers int) int {
	got, _ := s.Scale(n, now, workers, Recovery{}, nil)
	return got
}

func TestNilAndEmptyScheduleAreFaultFree(t *testing.T) {
	var s *Schedule
	if got := scale(s, 100, 10*time.Second, 4); got != 100 {
		t.Fatalf("nil schedule Scale = %d, want 100", got)
	}
	if !s.Empty() {
		t.Fatal("nil schedule should be Empty")
	}
	if err := s.Validate(4); err != nil {
		t.Fatalf("nil schedule Validate: %v", err)
	}
	empty := &Schedule{}
	if got := scale(empty, 100, 10*time.Second, 4); got != 100 {
		t.Fatalf("empty schedule Scale = %d, want 100", got)
	}
}

func TestKillWorkerWindow(t *testing.T) {
	s := &Schedule{Events: []Event{
		{Kind: KindKillWorker, Worker: 1, At: 30 * time.Second, RestartAfter: 10 * time.Second},
	}}
	if err := s.Validate(4); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	cases := []struct {
		now  time.Duration
		want int
	}{
		{29 * time.Second, 100},
		{30 * time.Second, 75}, // inclusive start
		{35 * time.Second, 75},
		{39 * time.Second, 75},
		{40 * time.Second, 100}, // exclusive end
	}
	for _, c := range cases {
		if got := scale(s, 100, c.now, 4); got != c.want {
			t.Errorf("Scale(100, %v, 4) = %d, want %d", c.now, got, c.want)
		}
	}
}

// TestKillCountsWorkersAbove64 pins that kills count distinct workers
// exactly on clusters wider than 64: workers 0 and 64 are two workers, and
// a second kill of worker 64 in an overlapping window is still one.
func TestKillCountsWorkersAbove64(t *testing.T) {
	s := &Schedule{Events: []Event{
		{Kind: KindKillWorker, Worker: 0, At: time.Second},
		{Kind: KindKillWorker, Worker: 64, At: time.Second},
		{Kind: KindKillWorker, Worker: 64, At: 2 * time.Second, RestartAfter: time.Second},
	}}
	if err := s.Validate(128); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	for _, now := range []time.Duration{time.Second, 2 * time.Second, 3 * time.Second, 5 * time.Second} {
		if got := scale(s, 128, now, 128); got != 126 {
			t.Errorf("Scale(128, %v, 128) = %d, want 126 (workers 0 and 64 down)", now, got)
		}
		for w, f := range s.Factors(now, 128, Recovery{}, nil) {
			want := 1.0
			if w == 0 || w == 64 {
				want = 0
			}
			if f != want {
				t.Errorf("Factors(%v)[%d] = %v, want %v", now, w, f, want)
			}
		}
	}
}

func TestKillWithoutRestartLastsForever(t *testing.T) {
	s := &Schedule{Events: []Event{{Kind: KindKillWorker, Worker: 0, At: time.Second}}}
	if got := scale(s, 100, time.Hour, 2); got != 50 {
		t.Fatalf("Scale after permanent kill = %d, want 50", got)
	}
	if got := s.Events[0].End(90 * time.Second); got != 90*time.Second {
		t.Fatalf("End of permanent kill = %v, want run end", got)
	}
}

func TestStallWindowAndFactor(t *testing.T) {
	s := &Schedule{Events: []Event{
		{Kind: KindStall, At: 10 * time.Second, For: 5 * time.Second, Factor: 0.25},
	}}
	if err := s.Validate(0); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if got := scale(s, 100, 12*time.Second, 4); got != 25 {
		t.Fatalf("Scale during stall = %d, want 25", got)
	}
	if got := scale(s, 100, 15*time.Second, 4); got != 100 {
		t.Fatalf("Scale after stall = %d, want 100", got)
	}
	if got := s.Events[0].End(0); got != 15*time.Second {
		t.Fatalf("End of stall = %v, want 15s", got)
	}
	// Factor 0 (the default) is a complete stall.
	zero := &Schedule{Events: []Event{{Kind: KindStall, At: 0, For: time.Second}}}
	if got := scale(zero, 100, 500*time.Millisecond, 4); got != 0 {
		t.Fatalf("Scale during complete stall = %d, want 0", got)
	}
}

func TestOverlappingFaultsCompose(t *testing.T) {
	s := &Schedule{Events: []Event{
		{Kind: KindKillWorker, Worker: 0, At: 0, RestartAfter: 20 * time.Second},
		{Kind: KindKillWorker, Worker: 1, At: 0, RestartAfter: 20 * time.Second},
		// The same worker killed twice must not be double-counted.
		{Kind: KindKillWorker, Worker: 0, At: 5 * time.Second, RestartAfter: 20 * time.Second},
		{Kind: KindStall, At: 0, For: 20 * time.Second, Factor: 0.5},
	}}
	// 2 of 4 workers down (0.5) times the 0.5 stall.
	if got := scale(s, 100, 10*time.Second, 4); got != 25 {
		t.Fatalf("composed Scale = %d, want 25", got)
	}
	// All workers down floors at zero capacity, never negative.
	all := &Schedule{Events: []Event{
		{Kind: KindKillWorker, Worker: 0, At: 0},
		{Kind: KindKillWorker, Worker: 1, At: 0},
	}}
	if got := scale(all, 100, time.Second, 2); got != 0 {
		t.Fatalf("all-down Scale = %d, want 0", got)
	}
}

// TestKillOfWorkerNotInServiceChangesNothing pins that a kill aimed at a
// worker beyond the workers in service (a rescale plan has not added it
// yet) takes no capacity: worker 6 of a 4-worker cluster is not there.
func TestKillOfWorkerNotInServiceChangesNothing(t *testing.T) {
	s := &Schedule{Events: []Event{
		{Kind: KindKillWorker, Worker: 6, At: 10 * time.Second, RestartAfter: 20 * time.Second},
	}}
	if got := scale(s, 1000, 20*time.Second, 4); got != 1000 {
		t.Fatalf("Scale(1000) with worker 6 killed on 4 workers = %d, want 1000", got)
	}
	if got := scale(s, 1000, 20*time.Second, 8); got != 875 {
		t.Fatalf("Scale(1000) with worker 6 killed on 8 workers = %d, want 875", got)
	}
}

// TestInactiveEventDoesNotChangeOtherFaults pins that evaluation does not
// depend on which kinds a schedule contains: adding a slow-worker window
// that is not active at now leaves a kill's effect exactly as it was.
func TestInactiveEventDoesNotChangeOtherFaults(t *testing.T) {
	kill := Event{Kind: KindKillWorker, Worker: 6, At: 10 * time.Second, RestartAfter: 20 * time.Second}
	slow := Event{Kind: KindSlowWorker, Worker: 0, At: 50 * time.Second, For: 5 * time.Second, Factor: 0.5}
	alone := &Schedule{Events: []Event{kill}}
	mixed := &Schedule{Events: []Event{kill, slow}}
	for _, workers := range []int{4, 8} {
		for now := time.Duration(0); now < 50*time.Second; now += 2500 * time.Millisecond {
			a, b := scale(alone, 1000, now, workers), scale(mixed, 1000, now, workers)
			if a != b {
				t.Fatalf("Scale(1000, %v, %d): kill alone %d, with an inactive slow-worker %d", now, workers, a, b)
			}
		}
	}
}

// TestWindowEndSaturates pins that an event whose window end passes the
// largest Duration lasts for ever instead of wrapping negative and never
// starting — including a checkpoint-restore's restart plus restore tail.
func TestWindowEndSaturates(t *testing.T) {
	stall := &Schedule{Events: []Event{{Kind: KindStall, At: time.Second, For: math.MaxInt64, Factor: 0.5}}}
	if err := stall.Validate(4); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if got := scale(stall, 1000, 10*time.Second, 4); got != 500 {
		t.Fatalf("Scale(1000) inside a near-endless stall = %d, want 500", got)
	}
	if got := stall.Events[0].End(90 * time.Second); got != math.MaxInt64 {
		t.Fatalf("End of a near-endless stall = %v, want the largest Duration", got)
	}

	// The restart fits, restart plus the 7 s checkpoint restore does not.
	cr := &Schedule{Events: []Event{{Kind: KindCheckpointRestore, Worker: 1, At: time.Second, RestartAfter: math.MaxInt64 - 2*time.Second}}}
	if err := cr.Validate(4); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	rec := Recovery{Kind: RecoveryCheckpoint, CheckpointInterval: 10 * time.Second, RestoreCost: 2 * time.Second}
	if got := cr.Factors(math.MaxInt64-1, 4, rec, nil)[1]; got != 0 {
		t.Fatalf("worker 1 inside its saturated restore tail = %v, want 0", got)
	}
	// A lineage restore past the largest Duration saturates too.
	if got := (Recovery{Kind: RecoveryLineage, RecomputeFactor: 2}).Restore(math.MaxInt64); got != math.MaxInt64 {
		t.Fatalf("lineage Restore of an endless outage = %v, want the largest Duration", got)
	}
}

func TestValidateRejections(t *testing.T) {
	cases := []struct {
		name    string
		ev      Event
		workers int
		wantSub string
	}{
		{"unknown kind", Event{Kind: "meteor", At: 0}, 4, "unknown kind"},
		{"negative at", Event{Kind: KindStall, At: -time.Second, For: time.Second}, 4, "at must be"},
		{"worker out of range", Event{Kind: KindKillWorker, Worker: 4, At: 0}, 4, "does not exist"},
		{"negative worker", Event{Kind: KindKillWorker, Worker: -1, At: 0}, 4, "worker must be"},
		{"negative restart", Event{Kind: KindKillWorker, Worker: 0, At: 0, RestartAfter: -time.Second}, 4, "restart_after"},
		{"stall without for", Event{Kind: KindStall, At: 0}, 4, "for > 0"},
		{"stall factor 1", Event{Kind: KindStall, At: 0, For: time.Second, Factor: 1}, 4, "factor must be"},
		{"kill with stall fields", Event{Kind: KindKillWorker, Worker: 0, At: 0, Factor: 0.5}, 4, "apply to"},
		{"stall with kill fields", Event{Kind: KindStall, At: 0, For: time.Second, RestartAfter: time.Second}, 4, "apply to"},
	}
	for _, c := range cases {
		s := &Schedule{Events: []Event{c.ev}}
		err := s.Validate(c.workers)
		if err == nil {
			t.Errorf("%s: Validate accepted %+v", c.name, c.ev)
			continue
		}
		if !strings.Contains(err.Error(), c.wantSub) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.wantSub)
		}
	}
	// workers == 0 skips only the bound check.
	unbounded := &Schedule{Events: []Event{{Kind: KindKillWorker, Worker: 100, At: 0}}}
	if err := unbounded.Validate(0); err != nil {
		t.Fatalf("Validate(0) should skip the worker bound: %v", err)
	}
}
