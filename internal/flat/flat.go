// Package flat implements the deterministic open-addressing hash tables
// the simulator's keyed paths run on: the buffered windows' panes keyed
// by pane end and the hash join's build index keyed by join key.  State
// keyed by gemPackID alone (pane partials, hot-key counts) does not use
// it: keys lie in [0, tuple.KeyDomain), so that state is a slice indexed
// by key (DESIGN-PERF.md §8.4).
//
// Go's built-in map randomizes iteration order, which forced every keyed
// consumer to sort before emitting, and its bucket churn is the last
// structural allocation source in the measurement loop.  flat.Table fixes
// both by construction:
//
//   - Entries live by value in one insertion-ordered dense slab
//     ([]entry); an open-addressed, linearly probed power-of-two index
//     maps keys to slab positions.  Iteration walks the slab, so the
//     order is the insertion order — deterministic regardless of hash
//     quality, capacity history or Go release.
//   - Delete marks the slab entry dead (a tombstone) and tombstones the
//     index slot; the next rehash (growth or tombstone pressure) compacts
//     live entries, preserving their relative order.
//   - Reset empties the table but keeps both the slab and the index at
//     their grown capacity, which is what lets a reused probe run (see
//     driver.Probe) perform near-zero allocation in the steady state.
//
// The table is not safe for concurrent use, like everything else inside
// one simulation run.  See DESIGN-PERF.md §8 for the memory model.
package flat

// Key is the table key: one or two int64 words.  Scalar callers use K,
// composite callers (key × window-end) use K2.
type Key struct{ A, B int64 }

// K packs a scalar int64 key.
func K(a int64) Key { return Key{A: a} }

// K2 packs a composite (a, b) key.
func K2(a, b int64) Key { return Key{A: a, B: b} }

// hash mixes both key words splitmix64-style.  The hash only places keys
// in the probe sequence; contents and iteration order never depend on it.
func (k Key) hash() uint64 {
	x := uint64(k.A)*0x9e3779b97f4a7c15 ^ uint64(k.B)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// index slot states: >= 0 is a dense-slab position.
const (
	slotEmpty int32 = -1
	slotDead  int32 = -2
)

// entry is one dense-slab record.
type entry[V any] struct {
	key  Key
	dead bool
	val  V
}

// Table maps Key to V with deterministic, insertion-ordered iteration.
// The zero value is ready to use.  Re-inserting a deleted key appends it
// at the end of the order, like a fresh insertion.
type Table[V any] struct {
	index   []int32 // power-of-two; slotEmpty / slotDead / dense position
	entries []entry[V]
	live    int // live entries in the slab
	dead    int // tombstoned entries in the slab
}

// Len returns the number of live entries.
func (t *Table[V]) Len() int { return t.live }

// Get returns the value stored under k.
func (t *Table[V]) Get(k Key) (V, bool) {
	if p := t.lookup(k); p != nil {
		return p.val, true
	}
	var zero V
	return zero, false
}

func (t *Table[V]) lookup(k Key) *entry[V] {
	if len(t.index) == 0 {
		return nil
	}
	mask := uint64(len(t.index) - 1)
	for i := k.hash() & mask; ; i = (i + 1) & mask {
		switch s := t.index[i]; s {
		case slotEmpty:
			return nil
		case slotDead:
			// Keep probing through tombstones.
		default:
			if e := &t.entries[s]; e.key == k {
				return e
			}
		}
	}
}

// Upsert returns a pointer to the value stored under k, inserting a
// zero-valued entry (at the end of the iteration order) if absent.
// inserted reports whether the entry is new.  The pointer is valid until
// the next Upsert, Put or Reset.
func (t *Table[V]) Upsert(k Key) (v *V, inserted bool) {
	t.maybeRehash()
	mask := uint64(len(t.index) - 1)
	reuse := int64(-1)
	for i := k.hash() & mask; ; i = (i + 1) & mask {
		switch s := t.index[i]; s {
		case slotEmpty:
			if reuse >= 0 {
				i = uint64(reuse)
			}
			var zero V
			t.entries = append(t.entries, entry[V]{key: k, val: zero})
			t.index[i] = int32(len(t.entries) - 1)
			t.live++
			return &t.entries[len(t.entries)-1].val, true
		case slotDead:
			if reuse < 0 {
				reuse = int64(i)
			}
		default:
			if e := &t.entries[s]; e.key == k {
				return &e.val, false
			}
		}
	}
}

// Put stores v under k.
func (t *Table[V]) Put(k Key, v V) {
	p, _ := t.Upsert(k)
	*p = v
}

// Delete removes k and reports whether it was present.  Deleting during
// Range is allowed (the slab does not move).
func (t *Table[V]) Delete(k Key) bool {
	if len(t.index) == 0 {
		return false
	}
	mask := uint64(len(t.index) - 1)
	for i := k.hash() & mask; ; i = (i + 1) & mask {
		switch s := t.index[i]; s {
		case slotEmpty:
			return false
		case slotDead:
		default:
			if e := &t.entries[s]; e.key == k {
				e.dead = true
				var zero V
				e.val = zero // drop references so the slab pins nothing
				t.index[i] = slotDead
				t.live--
				t.dead++
				return true
			}
		}
	}
}

// Range calls fn for every live entry in insertion order.  fn may Delete
// entries (including the current one) but must not Put or Upsert, which
// can move the slab.  Iteration stops early if fn returns false.
func (t *Table[V]) Range(fn func(k Key, v *V) bool) {
	for i := range t.entries {
		e := &t.entries[i]
		if e.dead {
			continue
		}
		if !fn(e.key, &e.val) {
			return
		}
	}
}

// Reset empties the table, keeping the slab and index at their grown
// capacity.  Values are zeroed so the slab pins no references.
func (t *Table[V]) Reset() {
	clear(t.entries) // zero values and keys; len unchanged until truncate
	t.entries = t.entries[:0]
	for i := range t.index {
		t.index[i] = slotEmpty
	}
	t.live, t.dead = 0, 0
}

// maybeRehash grows or compacts before an insertion when the index is
// beyond its 2/3 load ceiling (live + tombstones).  Returns true if it
// rehashed.
func (t *Table[V]) maybeRehash() bool {
	if len(t.index) == 0 {
		t.rehash(8)
		return true
	}
	if (t.live+t.dead+1)*3 >= len(t.index)*2 {
		size := len(t.index)
		if (t.live+1)*3 >= size {
			// Genuinely full of live entries: double.  Otherwise the
			// pressure is tombstones; same-size rehash purges them.
			size *= 2
		}
		t.rehash(size)
		return true
	}
	return false
}

// rehash compacts the slab (dropping dead entries, preserving live
// order) and rebuilds the index at the given power-of-two size.
func (t *Table[V]) rehash(size int) {
	if t.dead > 0 {
		kept := t.entries[:0]
		for i := range t.entries {
			if !t.entries[i].dead {
				kept = append(kept, t.entries[i])
			}
		}
		// Zero the tail so dropped entries pin no references.
		tail := t.entries[len(kept):]
		clear(tail)
		t.entries = kept
		t.dead = 0
	}
	if cap(t.index) >= size {
		t.index = t.index[:size]
	} else {
		t.index = make([]int32, size)
	}
	for i := range t.index {
		t.index[i] = slotEmpty
	}
	mask := uint64(size - 1)
	for pos := range t.entries {
		i := t.entries[pos].key.hash() & mask
		for t.index[i] != slotEmpty {
			i = (i + 1) & mask
		}
		t.index[i] = int32(pos)
	}
}
