package engine

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/tuple"
)

// refHotKeys is the hash-table tracker HotKeyTracker replaced, kept as the
// reference model: counts by key in a map, decay halving every count and
// dropping the ones that reach zero.
type refHotKeys struct {
	counts     map[int64]int64
	total, hot int64
}

func (r *refHotKeys) observe(key, weight int64) {
	r.counts[key] += weight
	r.total += weight
	if c := r.counts[key]; c > r.hot {
		r.hot = c
	}
}

func (r *refHotKeys) decay() {
	r.total, r.hot = 0, 0
	for k, c := range r.counts {
		c /= 2
		if c == 0 {
			delete(r.counts, k)
			continue
		}
		r.counts[k] = c
		r.total += c
		r.hot = max(r.hot, c)
	}
}

func (r *refHotKeys) share() float64 {
	if r.total == 0 {
		return 0
	}
	return float64(r.hot) / float64(r.total)
}

// TestHotKeyTrackerMatchesReference drives the tracker and the reference
// model through random sequences of Observe, Decay and Reset over keys
// from the whole domain, both ends included, with weights from zero to
// large; the hot share must agree exactly after every step.
func TestHotKeyTrackerMatchesReference(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		rng := sim.NewKernel(seed).RNG("hotkeys")
		h := NewHotKeyTracker()
		ref := &refHotKeys{counts: map[int64]int64{}}
		// A few hot keys recur so counts build up and decay away; the rest
		// spread over the whole domain.
		hot := []int64{0, tuple.KeyDomain - 1, int64(rng.Intn(tuple.KeyDomain))}
		for step := 0; step < 5000; step++ {
			switch op := rng.Intn(100); {
			case op < 2:
				h.Reset()
				ref = &refHotKeys{counts: map[int64]int64{}}
			case op < 10:
				h.Decay()
				ref.decay()
			default:
				key := int64(rng.Intn(tuple.KeyDomain))
				if rng.Bool(0.6) {
					key = hot[rng.Intn(len(hot))]
				}
				var weight int64
				switch rng.Intn(4) {
				case 0:
					weight = 0
				case 1:
					weight = 1
				case 2:
					weight = int64(rng.Intn(100))
				default:
					weight = int64(rng.Intn(1 << 20))
				}
				h.Observe(key, weight)
				ref.observe(key, weight)
			}
			if got, want := h.HotShare(), ref.share(); got != want {
				t.Fatalf("seed %d step %d: hot share %v, reference %v", seed, step, got, want)
			}
		}
	}
}

// TestHotKeyTrackerRejectsKeysOutsideDomain pins that a key outside
// [0, tuple.KeyDomain) panics naming the key rather than growing the counts
// without bound or indexing out of range.
func TestHotKeyTrackerRejectsKeysOutsideDomain(t *testing.T) {
	for _, key := range []int64{-1, tuple.KeyDomain} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("key %d accepted", key)
				}
			}()
			NewHotKeyTracker().Observe(key, 1)
		}()
	}
}

// BenchmarkHotKeyObserve measures the per-event hot-key feed of
// Runtime.Pull: Observe over 100 keys with a Decay every 1,000 events, the
// runtime's cadence.  The tracker is warmed before the timer, so it must
// report 0 allocs/op.
func BenchmarkHotKeyObserve(b *testing.B) {
	const keys, decayEvery = 100, 1000
	h := NewHotKeyTracker()
	for i := 0; i < 10*decayEvery; i++ {
		h.Observe(int64(i%keys), 100)
		if (i+1)%decayEvery == 0 {
			h.Decay()
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Observe(int64(i*7%keys), 100)
		if (i+1)%decayEvery == 0 {
			h.Decay()
		}
	}
}
