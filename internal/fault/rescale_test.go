package fault

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"
)

func TestRescaleTransition(t *testing.T) {
	savepoint := Rescale{Kind: RescaleSavepoint, Base: 4 * time.Second, PerWorker: 500 * time.Millisecond, Stall: 0}
	cases := []struct {
		name     string
		model    Rescale
		from, to int
		want     time.Duration
	}{
		{"no-op step costs nothing", savepoint, 4, 4, 0},
		{"scale-out pays base + per-worker delta", savepoint, 4, 6, 5 * time.Second},
		{"scale-in pays the same as scale-out", savepoint, 6, 4, 5 * time.Second},
		{"zero model is instant", Rescale{}, 4, 6, 0},
		{"instant kind is instant", Rescale{Kind: RescaleInstant, Base: time.Hour}, 4, 6, 0},
		{"rebalance", Rescale{Kind: RescaleRebalance, Base: time.Second, PerWorker: 250 * time.Millisecond}, 4, 6, 1500 * time.Millisecond},
		{"dynamic allocation", Rescale{Kind: RescaleDynamicAlloc, Base: 500 * time.Millisecond, PerWorker: 100 * time.Millisecond}, 4, 6, 700 * time.Millisecond},
	}
	for _, c := range cases {
		if got := c.model.Transition(c.from, c.to); got != c.want {
			t.Errorf("%s: Transition(%d, %d) = %v, want %v", c.name, c.from, c.to, got, c.want)
		}
	}
}

func TestRescalePlanValidate(t *testing.T) {
	ok := &RescalePlan{Steps: []RescaleStep{
		{At: 30 * time.Second, Workers: 6},
		{At: 60 * time.Second, Workers: 2},
	}}
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid plan rejected: %v", err)
	}
	var nilPlan *RescalePlan
	if err := nilPlan.Validate(); err != nil {
		t.Fatalf("nil plan rejected: %v", err)
	}
	cases := []struct {
		name    string
		plan    RescalePlan
		wantSub string
	}{
		{"step at zero", RescalePlan{Steps: []RescaleStep{{At: 0, Workers: 2}}},
			"rescale step 0 (workers=2)"},
		{"steps out of order", RescalePlan{Steps: []RescaleStep{
			{At: 30 * time.Second, Workers: 6}, {At: 20 * time.Second, Workers: 2},
		}}, "rescale step 1 (workers=2)"},
		{"duplicate step time", RescalePlan{Steps: []RescaleStep{
			{At: 30 * time.Second, Workers: 6}, {At: 30 * time.Second, Workers: 4},
		}}, "rescale step 1 (workers=4)"},
		{"zero workers", RescalePlan{Steps: []RescaleStep{{At: time.Second, Workers: 0}}},
			"workers must be >= 1"},
		{"workers past the cap", RescalePlan{Steps: []RescaleStep{{At: time.Second, Workers: MaxPlanWorkers + 1}}},
			"workers must be <="},
	}
	for _, c := range cases {
		err := c.plan.Validate()
		if err == nil {
			t.Errorf("%s: Validate accepted the plan", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.wantSub) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.wantSub)
		}
	}
}

func TestRescalePlanWorkersAtAndMax(t *testing.T) {
	p := &RescalePlan{Steps: []RescaleStep{
		{At: 30 * time.Second, Workers: 6},
		{At: 60 * time.Second, Workers: 2},
	}}
	if got := p.MaxWorkers(4); got != 6 {
		t.Fatalf("MaxWorkers(4) = %d, want 6", got)
	}
	if got := p.MaxWorkers(8); got != 8 {
		t.Fatalf("MaxWorkers(8) = %d, want 8 (base dominates)", got)
	}
	for _, c := range []struct {
		now  time.Duration
		want int
	}{
		{0, 4}, {29 * time.Second, 4}, {30 * time.Second, 6},
		{59 * time.Second, 6}, {60 * time.Second, 2}, {time.Hour, 2},
	} {
		if got := p.WorkersAt(c.now, 4); got != c.want {
			t.Errorf("WorkersAt(%v) = %d, want %d", c.now, got, c.want)
		}
	}
	var nilPlan *RescalePlan
	if got := nilPlan.WorkersAt(time.Hour, 4); got != 4 {
		t.Fatalf("nil plan WorkersAt = %d, want base", got)
	}
	if got := nilPlan.MaxWorkers(4); got != 4 {
		t.Fatalf("nil plan MaxWorkers = %d, want base", got)
	}
}

func TestRescalePlanActiveAtWindows(t *testing.T) {
	p := &RescalePlan{Steps: []RescaleStep{{At: 30 * time.Second, Workers: 6}}}
	savepoint := Rescale{Kind: RescaleSavepoint, Base: 4 * time.Second, PerWorker: 500 * time.Millisecond, Stall: 0}

	// 4→6 under the savepoint model: 5s stop-the-world window at 30s.
	for _, c := range []struct {
		now     time.Duration
		workers int
		factor  float64
	}{
		{29 * time.Second, 4, 1},
		{30 * time.Second, 6, 0},
		{34*time.Second + 999*time.Millisecond, 6, 0},
		{35 * time.Second, 6, 1},
		{time.Hour, 6, 1},
	} {
		w, f := p.ActiveAt(c.now, 4, savepoint)
		if w != c.workers || f != c.factor {
			t.Errorf("ActiveAt(%v) = (%d, %v), want (%d, %v)", c.now, w, f, c.workers, c.factor)
		}
	}
	if start, end := p.Window(0, 4, savepoint); start != 30*time.Second || end != 35*time.Second {
		t.Fatalf("Window(0) = [%v, %v), want [30s, 35s)", start, end)
	}

	// A later step clamps the previous window.
	clamped := &RescalePlan{Steps: []RescaleStep{
		{At: 30 * time.Second, Workers: 6},
		{At: 32 * time.Second, Workers: 4},
	}}
	if _, end := clamped.Window(0, 4, savepoint); end != 32*time.Second {
		t.Fatalf("clamped Window(0) end = %v, want the next step's 32s", end)
	}
	if w, f := clamped.ActiveAt(33*time.Second, 4, savepoint); w != 4 || f != 0 {
		t.Fatalf("ActiveAt(33s) = (%d, %v), want (4, 0) — inside step 1's own window", w, f)
	}

	// Dynamic allocation never drops capacity: factor 1 inside the window.
	dyn := Rescale{Kind: RescaleDynamicAlloc, Base: 500 * time.Millisecond, PerWorker: 100 * time.Millisecond, Stall: 1}
	if w, f := p.ActiveAt(30*time.Second, 4, dyn); w != 6 || f != 1 {
		t.Fatalf("dynamic-alloc ActiveAt(30s) = (%d, %v), want (6, 1)", w, f)
	}

	// The instant model has no window at all.
	if w, f := p.ActiveAt(30*time.Second, 4, Rescale{}); w != 6 || f != 1 {
		t.Fatalf("instant ActiveAt(30s) = (%d, %v), want (6, 1)", w, f)
	}
}

func TestDomainOutageFactorsAndPermanence(t *testing.T) {
	s := &Schedule{
		Domains: map[string][]int{"rack-a": {0, 1, 2, 3}, "rack-b": {4, 5}},
		Events: []Event{
			{Kind: KindDomainOutage, Domain: "rack-b", At: 32 * time.Second, For: 6 * time.Second},
		},
	}
	if err := s.Validate(6); err != nil {
		t.Fatalf("domain schedule rejected: %v", err)
	}
	f := s.Factors(34*time.Second, 6, Recovery{}, nil)
	want := []float64{1, 1, 1, 1, 0, 0}
	for i, v := range f {
		if v != want[i] {
			t.Fatalf("Factors during outage = %v, want %v", f, want)
		}
	}
	f = s.Factors(40*time.Second, 6, Recovery{}, f)
	for i, v := range f {
		if v != 1 {
			t.Fatalf("Factors after outage: worker %d = %v, want 1", i, v)
		}
	}
	// Members past the active worker count are simply absent.
	f = s.Factors(34*time.Second, 4, Recovery{}, f)
	for i, v := range f {
		if v != 1 {
			t.Fatalf("Factors with 4 active workers: worker %d = %v, want 1 (rack-b not yet scaled in)", i, v)
		}
	}
	// A partial-capacity outage multiplies instead of zeroing.
	s.Events[0].Factor = 0.5
	f = s.Factors(34*time.Second, 6, Recovery{}, f)
	if f[4] != 0.5 || f[5] != 0.5 || f[0] != 1 {
		t.Fatalf("factored outage = %v, want rack-b at 0.5", f)
	}

	// An outage without For never heals.
	perm := Event{Kind: KindDomainOutage, Domain: "rack-b", At: 32 * time.Second}
	if !perm.Permanent() {
		t.Fatal("domain outage without for must be permanent")
	}
	if s.Events[0].Permanent() {
		t.Fatal("healing outage reported permanent")
	}
}

func TestDomainValidationErrors(t *testing.T) {
	base := func() *Schedule {
		return &Schedule{
			Domains: map[string][]int{"rack-a": {0, 1}, "rack-b": {2, 3}},
			Events: []Event{
				{Kind: KindDomainOutage, Domain: "rack-b", At: 10 * time.Second, For: 5 * time.Second},
			},
		}
	}
	cases := []struct {
		name    string
		mutate  func(*Schedule)
		wantSub string
	}{
		{"undeclared domain", func(s *Schedule) { s.Events[0].Domain = "rack-z" },
			`fault 0 (domain-outage)`},
		{"no domain name", func(s *Schedule) { s.Events[0].Domain = "" },
			"domain"},
		{"member out of range", func(s *Schedule) { s.Domains["rack-b"] = []int{2, 9} },
			"does not exist"},
		{"member in two domains", func(s *Schedule) { s.Domains["rack-b"] = []int{1, 2} },
			"rack-a"},
		{"empty domain", func(s *Schedule) { s.Domains["rack-c"] = nil },
			"rack-c"},
		{"domain on a stall", func(s *Schedule) {
			s.Events = append(s.Events, Event{Kind: KindStall, At: 20 * time.Second, For: time.Second, Factor: 0.5, Domain: "rack-a"})
		}, "fault 1 (stall)"},
		{"worker on a domain outage", func(s *Schedule) { s.Events[0].Worker = 1 },
			"fault 0 (domain-outage)"},
		{"factor out of range", func(s *Schedule) { s.Events[0].Factor = 1.5 },
			"factor"},
	}
	for _, c := range cases {
		s := base()
		c.mutate(s)
		err := s.Validate(4)
		if err == nil {
			t.Errorf("%s: Validate accepted the schedule", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.wantSub) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.wantSub)
		}
	}
}

// TestFaultLocatorsNameIndexAndKind pins the satellite: every fault
// validation error carries a "fault <index> (<kind>)" locator so a
// multi-fault schedule rejects with an address, not just a reason.
func TestFaultLocatorsNameIndexAndKind(t *testing.T) {
	cases := []struct {
		name    string
		sched   Schedule
		wantSub string
	}{
		{"unknown kind", Schedule{Events: []Event{{Kind: "meteor", At: time.Second}}},
			"fault 0 (meteor)"},
		{"second fault bad", Schedule{Events: []Event{
			{Kind: KindStall, At: time.Second, For: time.Second, Factor: 0.5},
			{Kind: KindKillWorker, Worker: 9, At: 2 * time.Second},
		}}, "fault 1 (kill-worker)"},
		{"negative at", Schedule{Events: []Event{{Kind: KindStall, At: -time.Second, For: time.Second}}},
			"fault 0 (stall)"},
		{"straggler factor", Schedule{Events: []Event{
			{Kind: KindSlowWorker, Worker: 0, At: time.Second, For: time.Second, Factor: 1},
		}}, "fault 0 (slow-worker)"},
		{"partition groups", Schedule{Events: []Event{
			{Kind: KindPartition, At: time.Second, For: time.Second, Groups: [][]int{{0, 1, 2, 3}}},
		}}, "fault 0 (partition)"},
		{"checkpoint restart", Schedule{Events: []Event{
			{Kind: KindCheckpointRestore, Worker: 1, At: time.Second},
		}}, "fault 0 (checkpoint-restore)"},
	}
	for _, c := range cases {
		err := c.sched.Validate(4)
		if err == nil {
			t.Errorf("%s: Validate accepted the schedule", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.wantSub) {
			t.Errorf("%s: error %q does not carry locator %q", c.name, err, c.wantSub)
		}
	}
}

// TestRescaleFaultCompositionProperties is the randomized property test:
// across seeded random schedules, domain maps and rescale plans, (a) every
// per-worker factor stays in [0, 1], (b) evaluation is deterministic — the
// same virtual instant always yields the same vector, (c) the composed
// budget stays within the offered budget, and (d) a rescale-free plan is
// invisible: ActiveAt returns the base worker count with no capacity stall.
func TestRescaleFaultCompositionProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(0xe1a571c))
	models := []Rescale{
		{},
		{Kind: RescaleSavepoint, Base: 4 * time.Second, PerWorker: 500 * time.Millisecond, Stall: 0},
		{Kind: RescaleRebalance, Base: time.Second, PerWorker: 250 * time.Millisecond, Stall: 0},
		{Kind: RescaleDynamicAlloc, Base: 500 * time.Millisecond, PerWorker: 100 * time.Millisecond, Stall: 1},
	}
	rec := Recovery{Kind: RecoveryCheckpoint, CheckpointInterval: 10 * time.Second, RestoreCost: 2 * time.Second}

	for trial := 0; trial < 200; trial++ {
		base := 1 + rng.Intn(8)
		plan := &RescalePlan{}
		at := time.Duration(0)
		for i, n := 0, rng.Intn(4); i < n; i++ {
			at += time.Duration(1+rng.Intn(30)) * time.Second
			plan.Steps = append(plan.Steps, RescaleStep{At: at, Workers: 1 + rng.Intn(12)})
		}
		if err := plan.Validate(); err != nil {
			t.Fatalf("trial %d: generated plan invalid: %v", trial, err)
		}
		peak := plan.MaxWorkers(base)

		// A random domain map partitioning a prefix of the peak workers.
		domains := map[string][]int{}
		var pool []int
		for w := 0; w < peak; w++ {
			pool = append(pool, w)
		}
		for d := 0; len(pool) > 0 && d < 3; d++ {
			take := 1 + rng.Intn(len(pool))
			domains[fmt.Sprintf("rack-%d", d)] = pool[:take]
			pool = pool[take:]
		}

		// A random schedule mixing every kind over those domains/workers.
		sched := &Schedule{Domains: domains}
		kinds := []string{KindKillWorker, KindStall, KindSlowWorker, KindCheckpointRestore, KindDomainOutage}
		for i, n := 0, 1+rng.Intn(4); i < n; i++ {
			k := kinds[rng.Intn(len(kinds))]
			e := Event{Kind: k, At: time.Duration(rng.Intn(90)) * time.Second}
			switch k {
			case KindKillWorker:
				e.Worker = rng.Intn(peak)
				if rng.Intn(2) == 0 {
					e.RestartAfter = time.Duration(1+rng.Intn(20)) * time.Second
				}
			case KindStall:
				e.For = time.Duration(1+rng.Intn(20)) * time.Second
				e.Factor = rng.Float64() * 0.99
			case KindSlowWorker:
				e.Worker = rng.Intn(peak)
				e.For = time.Duration(1+rng.Intn(20)) * time.Second
				e.Factor = 0.01 + rng.Float64()*0.98
			case KindCheckpointRestore:
				e.Worker = rng.Intn(peak)
				e.RestartAfter = time.Duration(1+rng.Intn(20)) * time.Second
			case KindDomainOutage:
				names := make([]string, 0, len(domains))
				for name := range domains {
					names = append(names, name)
				}
				if len(names) == 0 {
					continue
				}
				e.Domain = names[rng.Intn(len(names))]
				if rng.Intn(2) == 0 {
					e.For = time.Duration(1+rng.Intn(20)) * time.Second
				}
				e.Factor = rng.Float64() * 0.99
			}
			sched.Events = append(sched.Events, e)
		}
		if err := sched.Validate(peak); err != nil {
			t.Fatalf("trial %d: generated schedule invalid: %v\n%+v", trial, err, sched)
		}

		model := models[rng.Intn(len(models))]
		var buf, buf2 []float64
		for probe := 0; probe < 16; probe++ {
			now := time.Duration(rng.Intn(120)) * time.Second / 2
			workers, factor := plan.ActiveAt(now, base, model)
			if workers < 1 || workers > peak {
				t.Fatalf("trial %d: ActiveAt(%v) workers = %d out of [1, %d]", trial, now, workers, peak)
			}
			if factor < 0 || factor > 1 {
				t.Fatalf("trial %d: ActiveAt(%v) factor = %v out of [0, 1]", trial, now, factor)
			}
			buf = sched.Factors(now, workers, rec, buf)
			for w, v := range buf {
				if v < 0 || v > 1 || v != v {
					t.Fatalf("trial %d: Factors(%v)[%d] = %v out of [0, 1]", trial, now, w, v)
				}
			}
			// Determinism: a second evaluation of the same instant agrees.
			buf2 = sched.Factors(now, workers, rec, buf2)
			for w := range buf {
				if buf[w] != buf2[w] {
					t.Fatalf("trial %d: Factors(%v) not deterministic at worker %d", trial, now, w)
				}
			}
			w2, f2 := plan.ActiveAt(now, base, model)
			if w2 != workers || f2 != factor {
				t.Fatalf("trial %d: ActiveAt(%v) not deterministic", trial, now)
			}
			// The composed budget never exceeds the offered budget.
			var n int
			n, buf = sched.Scale(10000, now, workers, rec, buf)
			if factor < 1 && n > 0 {
				n = int(float64(n) * factor)
			}
			if n < 0 || n > 10000 {
				t.Fatalf("trial %d: composed budget %d out of [0, 10000]", trial, n)
			}
		}

		var none *RescalePlan
		for probe := 0; probe < 8; probe++ {
			now := time.Duration(rng.Intn(90)) * time.Second
			w, f := none.ActiveAt(now, base, model)
			if w != base || f != 1 {
				t.Fatalf("trial %d: rescale-free ActiveAt = (%d, %v), want (%d, 1)", trial, w, f, base)
			}
		}
	}
}
