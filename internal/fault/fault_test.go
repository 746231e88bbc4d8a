package fault

import (
	"strings"
	"testing"
	"time"
)

func TestNilAndEmptyScheduleAreFaultFree(t *testing.T) {
	var s *Schedule
	if got := s.Factor(10*time.Second, 4); got != 1 {
		t.Fatalf("nil schedule Factor = %v, want 1", got)
	}
	if !s.Empty() {
		t.Fatal("nil schedule should be Empty")
	}
	if err := s.Validate(4); err != nil {
		t.Fatalf("nil schedule Validate: %v", err)
	}
	empty := &Schedule{}
	if got := empty.Factor(10*time.Second, 4); got != 1 {
		t.Fatalf("empty schedule Factor = %v, want 1", got)
	}
	if got := empty.Scale(100, 10*time.Second, 4); got != 100 {
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
		want float64
	}{
		{29 * time.Second, 1},
		{30 * time.Second, 0.75}, // inclusive start
		{39 * time.Second, 0.75},
		{40 * time.Second, 1}, // exclusive end
	}
	for _, c := range cases {
		if got := s.Factor(c.now, 4); got != c.want {
			t.Errorf("Factor(%v, 4) = %v, want %v", c.now, got, c.want)
		}
	}
	if got := s.Scale(100, 35*time.Second, 4); got != 75 {
		t.Fatalf("Scale during outage = %d, want 75", got)
	}
}

// TestKillCountsWorkersAbove64 pins that Factor counts distinct killed
// workers exactly on clusters wider than 64: workers 0 and 64 are two
// workers, and a second kill of worker 64 in an overlapping window is
// still one.  The result must agree with the mean of the per-worker
// vector.
func TestKillCountsWorkersAbove64(t *testing.T) {
	s := &Schedule{Events: []Event{
		{Kind: KindKillWorker, Worker: 0, At: time.Second},
		{Kind: KindKillWorker, Worker: 64, At: time.Second},
		{Kind: KindKillWorker, Worker: 64, At: 2 * time.Second, RestartAfter: time.Second},
	}}
	if err := s.Validate(128); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	for _, now := range []time.Duration{time.Second, 2 * time.Second, 5 * time.Second} {
		if got := s.Factor(now, 128); got != 126.0/128 {
			t.Errorf("Factor(%v, 128) = %v, want 126/128", now, got)
		}
		mean := 0.0
		for _, f := range s.Factors(now, 128, Recovery{}, nil) {
			mean += f
		}
		if got := s.Factor(now, 128); got != mean/128 {
			t.Errorf("Factor(%v, 128) = %v, per-worker mean %v", now, got, mean/128)
		}
	}
	if got := s.Scale(128, 3*time.Second, 128); got != 126 {
		t.Fatalf("Scale with workers 0 and 64 down = %d, want 126", got)
	}
}

func TestKillWithoutRestartLastsForever(t *testing.T) {
	s := &Schedule{Events: []Event{{Kind: KindKillWorker, Worker: 0, At: time.Second}}}
	if got := s.Factor(time.Hour, 2); got != 0.5 {
		t.Fatalf("Factor after permanent kill = %v, want 0.5", got)
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
	if got := s.Factor(12*time.Second, 4); got != 0.25 {
		t.Fatalf("Factor during stall = %v, want 0.25", got)
	}
	if got := s.Factor(15*time.Second, 4); got != 1 {
		t.Fatalf("Factor after stall = %v, want 1", got)
	}
	if got := s.Events[0].End(0); got != 15*time.Second {
		t.Fatalf("End of stall = %v, want 15s", got)
	}
	// Factor 0 (the default) is a complete stall.
	zero := &Schedule{Events: []Event{{Kind: KindStall, At: 0, For: time.Second}}}
	if got := zero.Scale(100, 500*time.Millisecond, 4); got != 0 {
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
	if got := s.Factor(10*time.Second, 4); got != 0.25 {
		t.Fatalf("composed Factor = %v, want 0.25", got)
	}
	// All workers down floors at zero capacity, never negative.
	all := &Schedule{Events: []Event{
		{Kind: KindKillWorker, Worker: 0, At: 0},
		{Kind: KindKillWorker, Worker: 1, At: 0},
	}}
	if got := all.Factor(time.Second, 2); got != 0 {
		t.Fatalf("all-down Factor = %v, want 0", got)
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
