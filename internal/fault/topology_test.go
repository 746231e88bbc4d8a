package fault

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"
)

func factorsAt(t *testing.T, s *Schedule, now time.Duration, workers int, rec Recovery) []float64 {
	t.Helper()
	out := s.Factors(now, workers, rec, nil)
	if len(out) != workers {
		t.Fatalf("Factors returned %d entries, want %d", len(out), workers)
	}
	return out
}

func TestPartitionMinorityLosesCapacity(t *testing.T) {
	s := &Schedule{Events: []Event{{
		Kind:   KindPartition,
		At:     10 * time.Second,
		For:    8 * time.Second,
		Groups: [][]int{{0, 1, 2}, {3}},
	}}}
	if err := s.Validate(4); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	before := factorsAt(t, s, 9*time.Second, 4, Recovery{})
	for w, f := range before {
		if f != 1 {
			t.Fatalf("worker %d factor before partition = %v, want 1", w, f)
		}
	}
	during := factorsAt(t, s, 12*time.Second, 4, Recovery{})
	want := []float64{1, 1, 1, 0} // minority {3} fully lost (Factor defaults to 0)
	for w := range want {
		if during[w] != want[w] {
			t.Fatalf("worker %d factor during partition = %v, want %v", w, during[w], want[w])
		}
	}
	after := factorsAt(t, s, 18*time.Second, 4, Recovery{})
	for w, f := range after {
		if f != 1 {
			t.Fatalf("worker %d factor after heal = %v, want 1", w, f)
		}
	}
	// The budget scales by the vector's mean.
	if got, _ := s.Scale(1000, 12*time.Second, 4, Recovery{}, nil); got != 750 {
		t.Fatalf("Scale(1000) during partition = %d, want 750", got)
	}
	if got := s.Events[0].End(0); got != 18*time.Second {
		t.Fatalf("End of healing partition = %v, want 18s", got)
	}
}

func TestPartitionDegradedAndUnlistedWorkers(t *testing.T) {
	// 6 workers, only 4 listed: unlisted workers side with the majority.
	s := &Schedule{Events: []Event{{
		Kind:   KindPartition,
		At:     0,
		For:    10 * time.Second,
		Factor: 0.25,
		Groups: [][]int{{0}, {1, 2, 3}},
	}}}
	if err := s.Validate(6); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	got := factorsAt(t, s, 5*time.Second, 6, Recovery{})
	want := []float64{0.25, 1, 1, 1, 1, 1} // majority is {1,2,3}; {0} degraded
	for w := range want {
		if got[w] != want[w] {
			t.Fatalf("worker %d factor = %v, want %v", w, got[w], want[w])
		}
	}
}

func TestPartitionTieBreaksToFirstGroup(t *testing.T) {
	s := &Schedule{Events: []Event{{
		Kind:   KindPartition,
		At:     0,
		For:    10 * time.Second,
		Groups: [][]int{{0, 1}, {2, 3}},
	}}}
	got := factorsAt(t, s, time.Second, 4, Recovery{})
	want := []float64{1, 1, 0, 0}
	for w := range want {
		if got[w] != want[w] {
			t.Fatalf("worker %d factor = %v, want %v (tie resolves to first group)", w, got[w], want[w])
		}
	}
}

func TestPartitionNeverHealsIsPermanent(t *testing.T) {
	s := &Schedule{Events: []Event{{
		Kind:   KindPartition,
		At:     5 * time.Second,
		Groups: [][]int{{0}, {1, 2}},
	}}}
	if err := s.Validate(3); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if !s.Events[0].Permanent() {
		t.Fatal("unhealed partition must be Permanent")
	}
	if got := s.Events[0].End(90 * time.Second); got != 90*time.Second {
		t.Fatalf("End of permanent partition = %v, want run end", got)
	}
	got := factorsAt(t, s, time.Hour, 3, Recovery{})
	if got[0] != 0 || got[1] != 1 || got[2] != 1 {
		t.Fatalf("factors an hour into a permanent partition = %v, want [0 1 1]", got)
	}
}

func TestSlowWorkerStragglerWindow(t *testing.T) {
	s := &Schedule{Events: []Event{{
		Kind: KindSlowWorker, Worker: 2, At: 10 * time.Second, For: 5 * time.Second, Factor: 0.4,
	}}}
	if err := s.Validate(4); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	during := factorsAt(t, s, 12*time.Second, 4, Recovery{})
	want := []float64{1, 1, 0.4, 1}
	for w := range want {
		if during[w] != want[w] {
			t.Fatalf("worker %d factor during straggle = %v, want %v", w, during[w], want[w])
		}
	}
	after := factorsAt(t, s, 15*time.Second, 4, Recovery{})
	if after[2] != 1 {
		t.Fatalf("straggler factor after window = %v, want 1", after[2])
	}
	if got := s.Events[0].End(0); got != 15*time.Second {
		t.Fatalf("End of slow-worker = %v, want 15s", got)
	}
	if s.Events[0].Permanent() {
		t.Fatal("slow-worker is never Permanent")
	}
}

func TestCheckpointRestoreHoldsWorkerDownThroughRestore(t *testing.T) {
	s := &Schedule{Events: []Event{{
		Kind: KindCheckpointRestore, Worker: 1, At: 50 * time.Second, RestartAfter: 5 * time.Second,
	}}}
	if err := s.Validate(4); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	rec := Recovery{Kind: RecoveryCheckpoint, CheckpointInterval: 10 * time.Second, RestoreCost: 2 * time.Second}
	// restore = 2s + 10s/2 = 7s, so the worker is at zero in [50s, 62s).
	cases := []struct {
		now  time.Duration
		want float64
	}{
		{49 * time.Second, 1},
		{50 * time.Second, 0}, // crashed
		{54 * time.Second, 0}, // still down
		{55 * time.Second, 0}, // restarted but restoring
		{61 * time.Second, 0}, // last restore second
		{62 * time.Second, 1}, // restored
	}
	for _, c := range cases {
		got := factorsAt(t, s, c.now, 4, rec)
		if got[1] != c.want {
			t.Errorf("worker 1 factor at %v = %v, want %v", c.now, got[1], c.want)
		}
	}
	// Under an instant model the worker is back right at restart.
	instant := factorsAt(t, s, 55*time.Second, 4, Recovery{})
	if instant[1] != 1 {
		t.Fatalf("instant-recovery factor at restart = %v, want 1", instant[1])
	}
	// End is the downtime end; the restore tail is model-dependent.
	if got := s.Events[0].End(0); got != 55*time.Second {
		t.Fatalf("End of checkpoint-restore = %v, want 55s", got)
	}
}

func TestRecoveryModels(t *testing.T) {
	down := 5 * time.Second
	cases := []struct {
		name string
		rec  Recovery
		want time.Duration
	}{
		{"instant zero value", Recovery{}, 0},
		{"instant named", Recovery{Kind: RecoveryInstant}, 0},
		{"checkpoint", Recovery{Kind: RecoveryCheckpoint, CheckpointInterval: 10 * time.Second, RestoreCost: 2 * time.Second}, 7 * time.Second},
		{"lineage", Recovery{Kind: RecoveryLineage, RecomputeFactor: 0.6}, 3 * time.Second},
		{"replay", Recovery{Kind: RecoveryReplay, ReplayRate: 1.5}, time.Duration(float64(down) / 1.5)},
		{"replay without rate", Recovery{Kind: RecoveryReplay}, down},
	}
	for _, c := range cases {
		if got := c.rec.Restore(down); got != c.want {
			t.Errorf("%s: Restore(%v) = %v, want %v", c.name, down, got, c.want)
		}
	}
	if got := (Recovery{Kind: RecoveryCheckpoint, RestoreCost: time.Second}).Restore(0); got != 0 {
		t.Errorf("Restore(0) = %v, want 0 (no outage, no restore)", got)
	}
}

func TestNewKindValidateRejections(t *testing.T) {
	cases := []struct {
		name    string
		ev      Event
		workers int
		wantSub string
	}{
		{"partition one group", Event{Kind: KindPartition, At: 0, Groups: [][]int{{0, 1}}}, 4, "at least 2 groups"},
		{"partition empty group", Event{Kind: KindPartition, At: 0, Groups: [][]int{{0}, {}}}, 4, "is empty"},
		{"partition duplicate worker", Event{Kind: KindPartition, At: 0, Groups: [][]int{{0, 1}, {1}}}, 4, "more than one group"},
		{"partition worker out of range", Event{Kind: KindPartition, At: 0, Groups: [][]int{{0}, {4}}}, 4, "does not exist"},
		{"partition negative worker", Event{Kind: KindPartition, At: 0, Groups: [][]int{{0}, {-1}}}, 4, "worker must be"},
		{"partition factor 1", Event{Kind: KindPartition, At: 0, Factor: 1, Groups: [][]int{{0}, {1}}}, 4, "factor must be"},
		{"partition with kill fields", Event{Kind: KindPartition, At: 0, RestartAfter: time.Second, Groups: [][]int{{0}, {1}}}, 4, "apply to"},
		{"slow-worker without for", Event{Kind: KindSlowWorker, Worker: 0, At: 0, Factor: 0.5}, 4, "for > 0"},
		{"slow-worker factor 0", Event{Kind: KindSlowWorker, Worker: 0, At: 0, For: time.Second}, 4, "straggler factor"},
		{"slow-worker factor 1", Event{Kind: KindSlowWorker, Worker: 0, At: 0, For: time.Second, Factor: 1}, 4, "straggler factor"},
		{"slow-worker out of range", Event{Kind: KindSlowWorker, Worker: 4, At: 0, For: time.Second, Factor: 0.5}, 4, "does not exist"},
		{"slow-worker with restart", Event{Kind: KindSlowWorker, Worker: 0, At: 0, For: time.Second, Factor: 0.5, RestartAfter: time.Second}, 4, "applies to"},
		{"checkpoint-restore without restart", Event{Kind: KindCheckpointRestore, Worker: 0, At: 0}, 4, "restart_after must be > 0"},
		{"checkpoint-restore with stall fields", Event{Kind: KindCheckpointRestore, Worker: 0, At: 0, RestartAfter: time.Second, For: time.Second}, 4, "apply to"},
		{"checkpoint-restore out of range", Event{Kind: KindCheckpointRestore, Worker: 9, At: 0, RestartAfter: time.Second}, 4, "does not exist"},
		{"groups on kill", Event{Kind: KindKillWorker, Worker: 0, At: 0, Groups: [][]int{{0}, {1}}}, 4, "groups apply"},
		{"groups on stall", Event{Kind: KindStall, At: 0, For: time.Second, Groups: [][]int{{0}, {1}}}, 4, "groups apply"},
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
}

func TestFactorsBufferReuse(t *testing.T) {
	s := &Schedule{Events: []Event{{
		Kind: KindSlowWorker, Worker: 0, At: 0, For: time.Second, Factor: 0.5,
	}}}
	buf := make([]float64, 0, 8)
	out := s.Factors(500*time.Millisecond, 4, Recovery{}, buf)
	if &out[0] != &buf[:1][0] {
		t.Fatal("Factors should reuse a buffer with sufficient capacity")
	}
	// And grow one that is too small.
	grown := s.Factors(500*time.Millisecond, 16, Recovery{}, out)
	if len(grown) != 16 {
		t.Fatalf("Factors grew to %d entries, want 16", len(grown))
	}
}

// randomSchedule builds a mixed-kind schedule from a seeded source; used by
// the composition property test below.  Every event it emits passes
// Validate(workers).
func randomSchedule(r *rand.Rand, workers int) *Schedule {
	n := 1 + r.Intn(6)
	evs := make([]Event, 0, n)
	kinds := []string{KindKillWorker, KindStall, KindPartition, KindSlowWorker, KindCheckpointRestore}
	for i := 0; i < n; i++ {
		at := time.Duration(r.Intn(60)) * time.Second
		switch kinds[r.Intn(len(kinds))] {
		case KindKillWorker:
			restart := time.Duration(r.Intn(20)) * time.Second // 0 = permanent
			evs = append(evs, Event{Kind: KindKillWorker, Worker: r.Intn(workers), At: at, RestartAfter: restart})
		case KindStall:
			evs = append(evs, Event{Kind: KindStall, At: at,
				For: time.Duration(1+r.Intn(15)) * time.Second, Factor: float64(r.Intn(100)) / 100})
		case KindSlowWorker:
			evs = append(evs, Event{Kind: KindSlowWorker, Worker: r.Intn(workers), At: at,
				For: time.Duration(1+r.Intn(15)) * time.Second, Factor: float64(1+r.Intn(99)) / 100})
		case KindCheckpointRestore:
			evs = append(evs, Event{Kind: KindCheckpointRestore, Worker: r.Intn(workers), At: at,
				RestartAfter: time.Duration(1+r.Intn(15)) * time.Second})
		case KindPartition:
			// Random split of a shuffled worker subset into two groups.
			perm := r.Perm(workers)
			cut := 1 + r.Intn(workers-1)
			heal := time.Duration(r.Intn(20)) * time.Second // 0 = permanent
			evs = append(evs, Event{Kind: KindPartition, At: at, For: heal,
				Factor: float64(r.Intn(100)) / 100,
				Groups: [][]int{perm[:cut], perm[cut:]}})
		}
	}
	return &Schedule{Events: evs}
}

// TestFactorsCompositionProperties is the randomized fault-composition
// property test: for arbitrary overlapping schedules mixing every kind,
// Factors must be deterministic and bounded to [0,1] per worker, and
// Scale must keep the budget within [0, n].
func TestFactorsCompositionProperties(t *testing.T) {
	rec := Recovery{Kind: RecoveryLineage, RecomputeFactor: 0.6}
	for seed := int64(0); seed < 50; seed++ {
		r := rand.New(rand.NewSource(seed))
		workers := 2 + r.Intn(7)
		s := randomSchedule(r, workers)
		if err := s.Validate(workers); err != nil {
			t.Fatalf("seed %d: generated schedule invalid: %v", seed, err)
		}
		for now := time.Duration(0); now <= 90*time.Second; now += 1300 * time.Millisecond {
			a := s.Factors(now, workers, rec, nil)
			b := s.Factors(now, workers, rec, nil)
			for w := range a {
				if a[w] != b[w] {
					t.Fatalf("seed %d: Factors not deterministic at %v: %v vs %v", seed, now, a, b)
				}
				if a[w] < 0 || a[w] > 1 || math.IsNaN(a[w]) {
					t.Fatalf("seed %d: worker %d factor %v out of [0,1] at %v", seed, w, a[w], now)
				}
			}
			if n, _ := s.Scale(1_000_003, now, workers, rec, nil); n < 0 || n > 1_000_003 {
				t.Fatalf("seed %d: Scale(1000003, %v) = %d out of range", seed, now, n)
			}
		}
	}
}
