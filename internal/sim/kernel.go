// Package sim provides a deterministic discrete-event simulation kernel.
//
// Every experiment in this repository runs on virtual time: a Kernel owns a
// virtual clock and a priority queue of scheduled events.  Components
// (generators, queues, engine models, metric recorders) schedule callbacks at
// absolute virtual times; Run drains the queue in timestamp order and
// advances the clock.  Because all randomness is drawn from named, seeded
// RNG streams (see rng.go), a simulation is reproducible bit-for-bit across
// runs and platforms, which makes the paper's latency time series exactly
// regenerable in CI.
//
// The kernel is intentionally single-goroutine: determinism matters more
// than parallel speed-up here, and a single run of the largest experiment
// simulates minutes of virtual time in well under a second of wall time.
//
// The scheduler stores events by value: an arena of event records addressed
// by stable node ids, a free list recycling ids, and a 4-ary heap of ids
// ordered by (at, seq).  Steady-state Schedule/fire traffic therefore
// allocates nothing — no boxed events, no container/heap interface calls —
// which matters because every simulated tuple batch, window firing and
// sample tick passes through here (see DESIGN-PERF.md §7).
package sim

import (
	"fmt"
	"time"
)

// Time is a point in virtual time, expressed as a duration since the start
// of the simulation.  The zero Time is the simulation epoch.
type Time = time.Duration

// event is one scheduled callback, stored by value in the kernel's arena.
// Events with equal timestamps fire in the order they were scheduled (FIFO
// among ties, via seq) so that simulations remain deterministic regardless
// of heap internals.
type event struct {
	at   Time
	seq  uint64
	fn   func()
	dead bool
}

// Handle identifies a scheduled event so it can be cancelled.  It addresses
// the event's arena slot and carries the scheduling sequence number; the
// slot is recycled after the event fires, and the sequence check makes a
// stale handle's Cancel a no-op instead of killing the slot's new tenant.
type Handle struct {
	k   *Kernel
	id  int32
	seq uint64
}

// Cancel prevents the event from firing.  Cancelling an already-fired or
// already-cancelled event is a no-op.
func (h Handle) Cancel() {
	if h.k == nil {
		return
	}
	if e := &h.k.arena[h.id]; e.seq == h.seq {
		e.dead = true
	}
}

// Kernel is a discrete-event simulation executor.
type Kernel struct {
	now Time
	// arena holds event records by value; heap and free address into it.
	arena []event
	// free lists recycled arena slots (LIFO keeps the hot slots hot).
	free []int32
	// heap is a 4-ary min-heap of arena ids ordered by (at, seq).
	heap   []int32
	seq    uint64
	seed   uint64
	rngs   map[string]*RNG
	halted bool
}

// NewKernel returns a kernel whose clock starts at zero and whose RNG
// streams derive from seed.  The same seed always produces the same
// simulation.
func NewKernel(seed uint64) *Kernel {
	return &Kernel{seed: seed, rngs: make(map[string]*RNG)}
}

// Reset rewinds the kernel to the state NewKernel(seed) would produce,
// keeping the grown arena, heap and free-list capacity and reseeding the
// existing RNG streams in place.  A simulation run on a reset kernel is
// bit-identical to one on a fresh kernel: the clock, sequence counter and
// every named stream restart exactly as constructed.  Probe arenas
// (driver.Probe) use this to recycle the scheduler across runs.
func (k *Kernel) Reset(seed uint64) {
	// Drop fired/pending closures so the arena pins nothing from the
	// previous run.
	for i := range k.arena {
		k.arena[i].fn = nil
	}
	k.arena = k.arena[:0]
	k.free = k.free[:0]
	k.heap = k.heap[:0]
	k.now = 0
	k.seq = 0
	k.seed = seed
	k.halted = false
	for name, r := range k.rngs {
		r.Reseed(seed, name)
	}
}

// Now returns the current virtual time.
func (k *Kernel) Now() Time { return k.now }

// Seed returns the seed every named stream derives from.  Components that
// replay a stream drawn once per process (the generator's draw tape) key
// it by this seed: NewRNG(k.Seed(), name) is the stream k.RNG(name) yields.
func (k *Kernel) Seed() uint64 { return k.seed }

// At schedules fn to run at absolute virtual time at.  Scheduling in the
// past (before Now) panics: it would silently corrupt causality.
func (k *Kernel) At(at Time, fn func()) Handle {
	if at < k.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", at, k.now))
	}
	k.seq++
	var id int32
	if n := len(k.free); n > 0 {
		id = k.free[n-1]
		k.free = k.free[:n-1]
	} else {
		k.arena = append(k.arena, event{})
		id = int32(len(k.arena) - 1)
	}
	k.arena[id] = event{at: at, seq: k.seq, fn: fn}
	k.heapPush(id)
	return Handle{k: k, id: id, seq: k.seq}
}

// After schedules fn to run d after the current virtual time.
func (k *Kernel) After(d time.Duration, fn func()) Handle {
	if d < 0 {
		d = 0
	}
	return k.At(k.now+d, fn)
}

// Every schedules fn at now+d, now+2d, ... until either the returned
// Ticker is stopped or the kernel halts.  fn receives the firing time.
func (k *Kernel) Every(d time.Duration, fn func(now Time)) *Ticker {
	if d <= 0 {
		panic("sim: Every requires a positive period")
	}
	t := &Ticker{k: k, period: d, fn: fn}
	// One closure is built here and re-pushed on every firing, so the
	// steady-state ticker traffic — every engine tick, generator tick and
	// sample interval passes through it — allocates nothing per firing.
	t.tick = func() {
		if t.stopped {
			return
		}
		t.fn(t.k.now)
		if !t.stopped && !t.k.halted {
			t.arm(t.k.now + t.period)
		}
	}
	t.arm(k.now + d)
	return t
}

// Ticker is a repeating scheduled callback created by Every.
type Ticker struct {
	k       *Kernel
	period  time.Duration
	fn      func(Time)
	tick    func()
	h       Handle
	stopped bool
}

func (t *Ticker) arm(at Time) {
	t.h = t.k.At(at, t.tick)
}

// Stop cancels future firings.
func (t *Ticker) Stop() {
	t.stopped = true
	t.h.Cancel()
}

// less orders heap entries by (at, seq).
func (k *Kernel) less(a, b int32) bool {
	ea, eb := &k.arena[a], &k.arena[b]
	if ea.at != eb.at {
		return ea.at < eb.at
	}
	return ea.seq < eb.seq
}

// heapPush appends id and sifts it up the 4-ary heap.
func (k *Kernel) heapPush(id int32) {
	k.heap = append(k.heap, id)
	i := len(k.heap) - 1
	for i > 0 {
		parent := (i - 1) / 4
		if !k.less(k.heap[i], k.heap[parent]) {
			break
		}
		k.heap[i], k.heap[parent] = k.heap[parent], k.heap[i]
		i = parent
	}
}

// heapPop removes and returns the minimum id.
func (k *Kernel) heapPop() int32 {
	top := k.heap[0]
	last := len(k.heap) - 1
	k.heap[0] = k.heap[last]
	k.heap = k.heap[:last]
	if last > 0 {
		k.siftDown(0)
	}
	return top
}

// siftDown restores heap order below i.
func (k *Kernel) siftDown(i int) {
	n := len(k.heap)
	for {
		min := i
		first := 4*i + 1
		end := first + 4
		if end > n {
			end = n
		}
		for c := first; c < end; c++ {
			if k.less(k.heap[c], k.heap[min]) {
				min = c
			}
		}
		if min == i {
			return
		}
		k.heap[i], k.heap[min] = k.heap[min], k.heap[i]
		i = min
	}
}

// recycle returns an arena slot to the free list.  The event's fn is
// dropped so the kernel does not pin fired closures (and whatever they
// capture) until the slot's next use.
func (k *Kernel) recycle(id int32) {
	k.arena[id].fn = nil
	k.free = append(k.free, id)
}

// Run executes events in timestamp order until the queue is empty or the
// clock would pass until.  The clock is left at until (or at the time of the
// last event if the queue empties first and that is later).
func (k *Kernel) Run(until Time) {
	k.halted = false
	for len(k.heap) > 0 && !k.halted {
		top := k.heap[0]
		e := &k.arena[top]
		if e.at > until {
			break
		}
		at, fn, dead := e.at, e.fn, e.dead
		k.heapPop()
		k.recycle(top)
		if dead {
			continue
		}
		k.now = at
		fn()
	}
	if k.now < until {
		k.now = until
	}
}

// Step fires exactly the next pending event (skipping cancelled ones) and
// returns true, or returns false if the queue is empty.  Useful in tests.
func (k *Kernel) Step() bool {
	for len(k.heap) > 0 {
		top := k.heap[0]
		e := &k.arena[top]
		at, fn, dead := e.at, e.fn, e.dead
		k.heapPop()
		k.recycle(top)
		if dead {
			continue
		}
		k.now = at
		fn()
		return true
	}
	return false
}

// Halt stops Run after the currently executing event returns.
func (k *Kernel) Halt() { k.halted = true }

// Pending reports the number of live scheduled events.
func (k *Kernel) Pending() int {
	n := 0
	for _, id := range k.heap {
		if !k.arena[id].dead {
			n++
		}
	}
	return n
}

// RNG returns the named deterministic random stream, creating it on first
// use.  Streams with distinct names are statistically independent; the same
// (seed, name) pair always yields the same sequence.  Components should use
// one stream per concern (e.g. "storm.gc", "gen.keys") so that adding a new
// consumer never perturbs existing draws.
func (k *Kernel) RNG(name string) *RNG {
	if r, ok := k.rngs[name]; ok {
		return r
	}
	r := NewRNG(k.seed, name)
	k.rngs[name] = r
	return r
}
