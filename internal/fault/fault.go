// Package fault models deterministic fault schedules for the simulated
// deployments: kill an engine worker at a virtual time and restart it later,
// stall the SUT's ingestion path for a bounded interval, partition the
// cluster into groups, pin a straggler factor to one worker, or take a
// worker through a full crash → restart → state-restore cycle whose restore
// cost follows the engine's recovery architecture.  A Schedule is a pure
// function of virtual time — no goroutines, no wall clock, no RNG — so a
// faulted run is exactly as reproducible as a fault-free one: the same seed
// and the same schedule always produce the same artifact, which is what
// lets recovery behaviour be golden-tested and byte-compared between the
// distributed controller and a direct run.
//
// The injection point is the engine runtime's source pull (engine.Runtime
// .Pull): every engine model converts its capacity law into a per-tick tuple
// budget and pulls that many tuples from the driver queues, so scaling the
// pull budget by the schedule's capacity models every fault kind without
// touching any engine model.  Every kind evaluates the same way: each
// event has one active window (Event.active), the active events fold into
// a per-worker capacity vector over the workers in service (Factors), and
// Scale multiplies the budget by the vector's mean.  Input keeps arriving
// at the offered rate throughout, so the backlog that accumulates during
// the fault — and the time the SUT takes to drain it afterwards — is the
// measured recovery behaviour (scenario measure kind "recovery-series").
package fault

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// Fault kinds.
const (
	// KindKillWorker removes worker Worker's capacity share at At and
	// restores it RestartAfter later (0 = the worker never comes back).
	KindKillWorker = "kill-worker"
	// KindStall multiplies ingestion capacity by Factor during
	// [At, At+For) — a transient queue/link stall.
	KindStall = "stall"
	// KindPartition splits the workers listed in Groups at At: the largest
	// group (ties: the first listed) keeps its capacity, every other
	// group's workers run at Factor (0 = fully unreachable) until the
	// partition heals For later (For 0 = it never heals).  Workers not
	// listed in any group side with the majority.
	KindPartition = "partition"
	// KindSlowWorker pins a straggler factor to one worker: worker
	// Worker's capacity is multiplied by Factor during [At, At+For).
	KindSlowWorker = "slow-worker"
	// KindCheckpointRestore crashes worker Worker at At, restarts it
	// RestartAfter later, and keeps its capacity at zero for a further
	// restore period derived from the engine's Recovery model — the
	// checkpoint/lineage/replay cost the paper's §5 compares across
	// engines.  RestartAfter must be positive: a worker that never
	// restarts never restores (use kill-worker for that).
	KindCheckpointRestore = "checkpoint-restore"
	// KindDomainOutage fences every worker of one named fault domain
	// (Schedule.Domains) together — a rack or zone failing as a unit.
	// Each member's capacity is multiplied by Factor (0, the default, is a
	// complete loss) during [At, At+For); For 0 means the domain never
	// comes back.
	KindDomainOutage = "domain-outage"
)

// Recovery model kinds: how an engine rebuilds a restarted worker's state.
const (
	// RecoveryInstant restores state for free (the ideal engine, and the
	// zero value of Recovery).
	RecoveryInstant = "instant"
	// RecoveryCheckpoint restarts from the last periodic checkpoint
	// (Flink-style): restore pays a fixed state-reload cost plus the
	// reprocessing of the expected half checkpoint interval of progress
	// lost since the last checkpoint.
	RecoveryCheckpoint = "checkpoint"
	// RecoveryLineage recomputes lost partitions from lineage
	// (Spark-style): restore time is proportional to the progress lost
	// while the worker was down.
	RecoveryLineage = "lineage"
	// RecoveryReplay re-plays un-acked records from the sources
	// (Storm-style): the records that queued during the outage replay at
	// a multiple of the normal rate.
	RecoveryReplay = "replay"
)

// Recovery is an engine's state-recovery cost model, bound to every
// deployment by engine.NewRuntime.  The zero value is instant recovery.
type Recovery struct {
	// Kind selects the model (Recovery* constants).
	Kind string
	// CheckpointInterval is the period between checkpoints
	// (RecoveryCheckpoint); the expected lost progress is half of it.
	CheckpointInterval time.Duration
	// RestoreCost is the fixed state-reload time on restart
	// (RecoveryCheckpoint).
	RestoreCost time.Duration
	// RecomputeFactor is the lineage-recompute time per second of outage
	// (RecoveryLineage).
	RecomputeFactor float64
	// ReplayRate is the multiple of the normal rate at which lost records
	// replay (RecoveryReplay); higher replays faster.
	ReplayRate float64
}

// Restore returns how long a worker that was down for the given outage
// stays at zero capacity after its restart, under this recovery model.
// Deterministic: the per-engine recovery comparison of the recovery-series
// measure is this function evaluated per engine.
func (r Recovery) Restore(down time.Duration) time.Duration {
	if down <= 0 {
		return 0
	}
	f := 0.0
	switch r.Kind {
	case RecoveryCheckpoint:
		return r.RestoreCost + r.CheckpointInterval/2
	case RecoveryLineage:
		f = float64(down) * r.RecomputeFactor
	case RecoveryReplay:
		f = float64(down)
		if r.ReplayRate > 0 {
			f /= r.ReplayRate
		}
	}
	if f >= float64(maxDuration) {
		return maxDuration
	}
	return time.Duration(f)
}

// Event is one scheduled fault.
type Event struct {
	Kind string `json:"kind"`
	// Worker is the 0-based index of the worker the fault targets
	// (KindKillWorker, KindSlowWorker, KindCheckpointRestore).
	Worker int `json:"worker,omitempty"`
	// At is the virtual time the fault strikes.
	At time.Duration `json:"at"`
	// RestartAfter is how long a killed worker stays down; for
	// KindKillWorker 0 means it never restarts within the run, for
	// KindCheckpointRestore it must be positive.
	RestartAfter time.Duration `json:"restart_after,omitempty"`
	// For is the duration of a stall or slow-worker window, or the time
	// until a partition heals (0 = never within the run).
	For time.Duration `json:"for,omitempty"`
	// Factor is the capacity multiplier while the fault is active, in
	// [0, 1): the whole cluster for a stall, the minority groups for a
	// partition (0, the default, is a complete loss), the straggler for a
	// slow-worker (where 0 is invalid — a dead worker is a kill).
	Factor float64 `json:"factor,omitempty"`
	// Groups partitions the workers (KindPartition): each inner list is
	// one side of the split.
	Groups [][]int `json:"groups,omitempty"`
	// Domain names the fault domain the outage fences (KindDomainOutage);
	// it must be a key of the schedule's Domains map.
	Domain string `json:"domain,omitempty"`
}

// maxDuration is the latest virtual time.  Window ends saturate here
// instead of wrapping negative, so a valid event whose for or
// restart_after is near the largest Duration lasts the whole run.
const maxDuration = time.Duration(math.MaxInt64)

// addSat returns a+b for a >= 0, saturating at maxDuration.
func addSat(a, b time.Duration) time.Duration {
	if a > 0 && b > maxDuration-a {
		return maxDuration
	}
	return a + b
}

// End returns the virtual time the event's direct effect ends: restart for
// a kill or checkpoint-restore (runEnd for a kill that never restarts),
// heal for a partition or domain outage (runEnd when it never heals),
// expiry for a stall or slow-worker window.  A checkpoint-restore's
// restore tail extends past End by Recovery.Restore(RestartAfter).  The
// sum saturates at the largest Duration.
func (e Event) End(runEnd time.Duration) time.Duration {
	switch e.Kind {
	case KindKillWorker:
		if e.RestartAfter <= 0 {
			return runEnd
		}
		return addSat(e.At, e.RestartAfter)
	case KindCheckpointRestore:
		return addSat(e.At, e.RestartAfter)
	case KindStall, KindSlowWorker:
		return addSat(e.At, e.For)
	case KindPartition, KindDomainOutage:
		if e.For <= 0 {
			return runEnd
		}
		return addSat(e.At, e.For)
	}
	return e.At
}

// Permanent reports whether the event's effect never ends within any run:
// a kill without a restart, or a partition or domain outage that never
// heals.  Permanent faults have no recovery — the recovery-series
// derivation reports the -1 "never recovered" sentinel for them and skips
// restore metrics.
func (e Event) Permanent() bool {
	switch e.Kind {
	case KindKillWorker:
		return e.RestartAfter <= 0
	case KindPartition, KindDomainOutage:
		return e.For <= 0
	}
	return false
}

// active reports whether the event affects capacity at instant now under
// the recovery model rec.  This is every kind's one window: [At, End), or
// from At on when Permanent, with a checkpoint-restore's End extended by
// its restore tail.
func (e *Event) active(now time.Duration, rec Recovery) bool {
	if now < e.At {
		return false
	}
	if e.Permanent() {
		return true
	}
	end := e.End(0)
	if e.Kind == KindCheckpointRestore {
		end = addSat(end, rec.Restore(e.RestartAfter))
	}
	return now < end
}

// Schedule is a deterministic fault schedule: the full list of faults one
// run will experience.  The zero value (and a nil pointer) is the fault-free
// schedule.
type Schedule struct {
	Events []Event `json:"events"`
	// Domains assigns workers to named correlated fault domains (racks,
	// zones): a domain-outage event fences every member of one domain
	// together.  A worker belongs to at most one domain.
	Domains map[string][]int `json:"domains,omitempty"`
}

// Validate checks every event.  workers, when positive, bounds the worker
// targets (a schedule compiled into a grid is validated against the
// smallest cluster it will run on); pass 0 to skip the bound.
func (s *Schedule) Validate(workers int) error {
	if s == nil {
		return nil
	}
	if err := s.validateDomains(workers); err != nil {
		return err
	}
	for i, e := range s.Events {
		where := fmt.Sprintf("fault %d (%s)", i, e.Kind)
		if e.At < 0 {
			return fmt.Errorf("%s: at must be >= 0, got %v", where, e.At)
		}
		checkWorker := func() error {
			if e.Worker < 0 {
				return fmt.Errorf("%s: worker must be >= 0, got %d", where, e.Worker)
			}
			if workers > 0 && e.Worker >= workers {
				return fmt.Errorf("%s: worker %d does not exist on a %d-worker cluster", where, e.Worker, workers)
			}
			return nil
		}
		if e.Kind != KindPartition && e.Groups != nil {
			return fmt.Errorf("%s: groups apply to %q faults only", where, KindPartition)
		}
		if e.Kind != KindDomainOutage && e.Domain != "" {
			return fmt.Errorf("%s: domain applies to %q faults only", where, KindDomainOutage)
		}
		switch e.Kind {
		case KindKillWorker:
			if err := checkWorker(); err != nil {
				return err
			}
			if e.RestartAfter < 0 {
				return fmt.Errorf("%s: restart_after must be >= 0, got %v", where, e.RestartAfter)
			}
			if e.For != 0 || e.Factor != 0 {
				return fmt.Errorf("%s: for/factor apply to %q faults only", where, KindStall)
			}
		case KindStall:
			if e.For <= 0 {
				return fmt.Errorf("%s: a stall needs for > 0", where)
			}
			if e.Factor < 0 || e.Factor >= 1 {
				return fmt.Errorf("%s: factor must be in [0,1), got %v", where, e.Factor)
			}
			if e.Worker != 0 || e.RestartAfter != 0 {
				return fmt.Errorf("%s: worker/restart_after apply to %q faults only", where, KindKillWorker)
			}
		case KindSlowWorker:
			if err := checkWorker(); err != nil {
				return err
			}
			if e.For <= 0 {
				return fmt.Errorf("%s: a slow-worker window needs for > 0", where)
			}
			if e.Factor <= 0 || e.Factor >= 1 {
				return fmt.Errorf("%s: straggler factor must be in (0,1), got %v (a dead worker is a %q)", where, e.Factor, KindKillWorker)
			}
			if e.RestartAfter != 0 {
				return fmt.Errorf("%s: restart_after applies to %q faults only", where, KindKillWorker)
			}
		case KindCheckpointRestore:
			if err := checkWorker(); err != nil {
				return err
			}
			if e.RestartAfter <= 0 {
				return fmt.Errorf("%s: restart_after must be > 0 (a worker that never restarts never restores; use %q)", where, KindKillWorker)
			}
			if e.For != 0 || e.Factor != 0 {
				return fmt.Errorf("%s: for/factor apply to %q faults only", where, KindStall)
			}
		case KindPartition, KindDomainOutage:
			if e.Kind == KindDomainOutage {
				if e.Domain == "" {
					return fmt.Errorf("%s: a domain outage needs a domain name", where)
				}
				if _, ok := s.Domains[e.Domain]; !ok {
					return fmt.Errorf("%s: domain %q is not declared in the domains block", where, e.Domain)
				}
			} else if len(e.Groups) < 2 {
				return fmt.Errorf("%s: a partition needs at least 2 groups", where)
			}
			seen := map[int]bool{}
			for gi, g := range e.Groups { // nil for a domain outage
				if len(g) == 0 {
					return fmt.Errorf("%s: group %d is empty", where, gi)
				}
				for _, w := range g {
					if w < 0 {
						return fmt.Errorf("%s: group %d: worker must be >= 0, got %d", where, gi, w)
					}
					if workers > 0 && w >= workers {
						return fmt.Errorf("%s: group %d: worker %d does not exist on a %d-worker cluster", where, gi, w, workers)
					}
					if seen[w] {
						return fmt.Errorf("%s: worker %d appears in more than one group", where, w)
					}
					seen[w] = true
				}
			}
			if e.For < 0 {
				return fmt.Errorf("%s: for must be >= 0 (0 = never heals), got %v", where, e.For)
			}
			if e.Factor < 0 || e.Factor >= 1 {
				return fmt.Errorf("%s: factor must be in [0,1), got %v", where, e.Factor)
			}
			if e.Worker != 0 || e.RestartAfter != 0 {
				return fmt.Errorf("%s: worker/restart_after apply to %q faults only", where, KindKillWorker)
			}
		default:
			return fmt.Errorf("fault %d (%s): unknown kind (%s | %s | %s | %s | %s | %s)", i, e.Kind,
				KindKillWorker, KindStall, KindPartition, KindSlowWorker, KindCheckpointRestore, KindDomainOutage)
		}
	}
	return nil
}

// validateDomains checks the correlated-domain map: non-empty names and
// member lists, worker indices in range (when workers bounds them), and no
// worker claimed by two domains.  Iteration is over sorted names so the
// first error reported is deterministic.
func (s *Schedule) validateDomains(workers int) error {
	if len(s.Domains) == 0 {
		return nil
	}
	names := make([]string, 0, len(s.Domains))
	for name := range s.Domains {
		names = append(names, name)
	}
	sort.Strings(names)
	owner := map[int]string{}
	for _, name := range names {
		if name == "" {
			return fmt.Errorf("domains: a domain needs a non-empty name")
		}
		members := s.Domains[name]
		if len(members) == 0 {
			return fmt.Errorf("domain %q: needs at least one worker", name)
		}
		for _, w := range members {
			if w < 0 {
				return fmt.Errorf("domain %q: worker must be >= 0, got %d", name, w)
			}
			if workers > 0 && w >= workers {
				return fmt.Errorf("domain %q: worker %d does not exist on a %d-worker cluster", name, w, workers)
			}
			if prev, ok := owner[w]; ok {
				return fmt.Errorf("domain %q: worker %d already belongs to domain %q", name, w, prev)
			}
			owner[w] = name
		}
	}
	return nil
}

// Empty reports whether the schedule injects nothing.
func (s *Schedule) Empty() bool { return s == nil || len(s.Events) == 0 }

// majorityGroup returns the index of the partition side that keeps its
// capacity: the largest group, ties resolved to the first listed.
func majorityGroup(groups [][]int) int {
	maj := 0
	for gi, g := range groups {
		if len(g) > len(groups[maj]) {
			maj = gi
		}
	}
	return maj
}

// Factors fills out with the capacity factor of each of the workers in
// service at instant now, in [0, 1] per worker, and returns it (grown when
// cap(out) < workers, so a caller-held buffer is reused allocation-free in
// steady state).  Events aimed at a worker index >= workers target a
// worker that is not in service and change nothing.  rec is the
// deployment's engine recovery model; it only affects checkpoint-restore
// events, whose restore tail keeps the restarted worker at zero capacity
// for rec.Restore(RestartAfter).  Effects compose multiplicatively per
// worker; a worker killed by overlapping events is simply down (0×0 = 0).
// A nil or empty schedule yields all ones.
func (s *Schedule) Factors(now time.Duration, workers int, rec Recovery, out []float64) []float64 {
	if workers < 0 {
		workers = 0
	}
	if cap(out) < workers {
		out = make([]float64, workers)
	}
	out = out[:workers]
	for i := range out {
		out[i] = 1
	}
	if s == nil {
		return out
	}
	for i := range s.Events {
		e := &s.Events[i]
		if !e.active(now, rec) {
			continue
		}
		switch e.Kind {
		case KindKillWorker, KindCheckpointRestore:
			if e.Worker < workers {
				out[e.Worker] = 0
			}
		case KindStall:
			for j := range out {
				out[j] *= e.Factor
			}
		case KindSlowWorker:
			if e.Worker < workers {
				out[e.Worker] *= e.Factor
			}
		case KindPartition:
			maj := majorityGroup(e.Groups)
			for gi, g := range e.Groups {
				if gi == maj {
					continue
				}
				for _, w := range g {
					if w < workers {
						out[w] *= e.Factor
					}
				}
			}
		case KindDomainOutage:
			for _, w := range s.Domains[e.Domain] {
				if w < workers {
					out[w] *= e.Factor
				}
			}
		}
	}
	return out
}

// Scale applies the schedule at now to a tuple budget: it fills buf with
// Factors over the workers in service under the deployment's recovery
// model and multiplies n by the vector's mean, flooring the result (a
// partially-alive cluster never pulls more than its share).  It returns
// the scaled budget and the (possibly grown) buffer, so the engine
// runtime's hot path stays allocation-free.
func (s *Schedule) Scale(n int, now time.Duration, workers int, rec Recovery, buf []float64) (int, []float64) {
	if s == nil || len(s.Events) == 0 || n <= 0 || workers <= 0 {
		return n, buf
	}
	buf = s.Factors(now, workers, rec, buf)
	sum := 0.0
	for _, v := range buf {
		sum += v
	}
	f := sum / float64(workers)
	if f >= 1 {
		return n, buf
	}
	return int(float64(n) * f), buf
}
