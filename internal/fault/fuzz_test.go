package fault

import (
	"encoding/json"
	"testing"
	"time"
)

// FuzzScheduleValidate feeds arbitrary JSON through the exact decode →
// Validate → evaluate path the coordinator's validateSpec uses for the
// faults block: nothing a client submits may panic the control plane, and
// any schedule Validate accepts must evaluate to bounded factors.
func FuzzScheduleValidate(f *testing.F) {
	seeds := []string{
		`{"events":[]}`,
		`{"events":[{"kind":"kill-worker","worker":1,"at":30000000000,"restart_after":10000000000}]}`,
		`{"events":[{"kind":"kill-worker","worker":0,"at":1000000000}]}`,
		`{"events":[{"kind":"stall","at":10000000000,"for":5000000000,"factor":0.25}]}`,
		`{"events":[{"kind":"partition","at":15000000000,"for":8000000000,"groups":[[0,1,2],[3]]}]}`,
		`{"events":[{"kind":"partition","at":0,"factor":0.5,"groups":[[0],[1,2]]}]}`,
		`{"events":[{"kind":"slow-worker","worker":2,"at":32000000000,"for":8000000000,"factor":0.4}]}`,
		`{"events":[{"kind":"checkpoint-restore","worker":1,"at":50000000000,"restart_after":5000000000}]}`,
		`{"events":[{"kind":"meteor","at":0}]}`,
		`{"events":[{"kind":"partition","at":0,"groups":[[0,0],[1]]}]}`,
		`{"events":[{"kind":"kill-worker","worker":-9,"at":-5}]}`,
		`{"events":null}`,
		`{}`,
		`[]`,
		`{"events":[{"kind":"stall","at":9223372036854775807,"for":9223372036854775807}]}`,
		`{"events":[{"kind":"stall","at":1000000000,"for":9223372036854775807,"factor":0.5}]}`,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	rec := Recovery{Kind: RecoveryCheckpoint, CheckpointInterval: 10 * time.Second, RestoreCost: 2 * time.Second}
	f.Fuzz(func(t *testing.T, data []byte) {
		var s Schedule
		if err := json.Unmarshal(data, &s); err != nil {
			return
		}
		const workers = 4
		if err := s.Validate(workers); err != nil {
			return
		}
		var buf []float64
		for _, now := range []time.Duration{0, time.Second, 30 * time.Second, time.Hour} {
			buf = s.Factors(now, workers, rec, buf)
			for w, v := range buf {
				if v < 0 || v > 1 || v != v {
					t.Fatalf("Factors(%v)[%d] = %v out of [0,1] for valid schedule %s", now, w, v, data)
				}
			}
			var n int
			if n, buf = s.Scale(1000, now, workers, rec, buf); n < 0 || n > 1000 {
				t.Fatalf("Scale(1000, %v) = %d out of range for valid schedule %s", now, n, data)
			}
		}
	})
}

// FuzzRescaleValidate feeds arbitrary JSON through the rescale plan's
// decode → Validate → evaluate path: nothing a client submits may panic,
// and any plan Validate accepts must evaluate to a bounded worker count and
// a capacity factor in [0, 1] under every engine cost model.
func FuzzRescaleValidate(f *testing.F) {
	seeds := []string{
		`{"steps":[]}`,
		`{"steps":[{"at":30000000000,"workers":6}]}`,
		`{"steps":[{"at":30000000000,"workers":6},{"at":60000000000,"workers":2}]}`,
		`{"steps":[{"at":0,"workers":6}]}`,
		`{"steps":[{"at":30000000000,"workers":0}]}`,
		`{"steps":[{"at":30000000000,"workers":2048}]}`,
		`{"steps":[{"at":60000000000,"workers":6},{"at":30000000000,"workers":2}]}`,
		`{"steps":[{"at":-5,"workers":-9}]}`,
		`{"steps":null}`,
		`{}`,
		`[]`,
		`{"steps":[{"at":9223372036854775807,"workers":1024}]}`,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	models := []Rescale{
		{},
		{Kind: RescaleSavepoint, Base: 4 * time.Second, PerWorker: 500 * time.Millisecond, Stall: 0},
		{Kind: RescaleRebalance, Base: time.Second, PerWorker: 250 * time.Millisecond, Stall: 0},
		{Kind: RescaleDynamicAlloc, Base: 500 * time.Millisecond, PerWorker: 100 * time.Millisecond, Stall: 1},
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var p RescalePlan
		if err := json.Unmarshal(data, &p); err != nil {
			return
		}
		if err := p.Validate(); err != nil {
			return
		}
		const base = 4
		peak := p.MaxWorkers(base)
		if peak < base || peak > MaxPlanWorkers {
			t.Fatalf("MaxWorkers = %d out of [%d, %d] for valid plan %s", peak, base, MaxPlanWorkers, data)
		}
		for _, model := range models {
			for _, now := range []time.Duration{0, time.Second, 30 * time.Second, time.Hour} {
				w, factor := p.ActiveAt(now, base, model)
				if w < 1 || w > peak {
					t.Fatalf("ActiveAt(%v) workers = %d out of [1, %d] for valid plan %s", now, w, peak, data)
				}
				if factor < 0 || factor > 1 || factor != factor {
					t.Fatalf("ActiveAt(%v) factor = %v out of [0,1] for valid plan %s", now, factor, data)
				}
				if got := p.WorkersAt(now, base); got != w {
					t.Fatalf("WorkersAt(%v) = %d disagrees with ActiveAt's %d for valid plan %s", now, got, w, data)
				}
			}
		}
	})
}
