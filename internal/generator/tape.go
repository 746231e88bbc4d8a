package generator

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/sim"
	"repro/internal/tuple"
)

// The draw tape.  Every RNG-derived column of a generated row (stream,
// user, key, price and the disorder shift of its event time) is a pure
// function of the kernel seed, the draw-steering config fields and the row
// index: the generator consumes its "generator" stream in strict row
// order, and only the event time depends on the rate.  Runs repeat seeds
// all the time (the engines of one steady comparison share a seed, and
// probe n of every search cell runs at the same probe seed), so a tape
// draws each stream once per process and every generator replays it:
// common random numbers, with the same bytes the draws would have made.
//
// A tape is keyed by the seed plus the draw-steering fields (tapeKey).  It
// publishes rows in immutable chunks and extends under its mutex, so
// concurrent runs on one seed read it together.  All cached tapes share
// one byte budget with LRU eviction, and one tape may retain at most a
// quarter of it.  A reader that needs rows past what its tape may retain
// (capped or evicted) snapshots the tape's drawer at the tape's end and
// continues drawing privately; a key distribution the tape cannot key by
// value gets an uncached tape whose reader draws privately from row 0.
// Either way the rows are the ones the stream yields (DESIGN-PERF §10).

const (
	// tapeChunkRows is the number of rows in one tape chunk.
	tapeChunkRows = 1 << 14
	// tapeBudget bounds the bytes all cached tapes retain together.  Table I
	// quick's eight tapes, 2.75 M rows, take about 24 MiB of it.
	tapeBudget = 32 << 20
	// tapeMaxEntries bounds the number of cached tapes, most of which
	// retain chunks; the few that never extended hold only their drawer.
	tapeMaxEntries = 256
	// purchaseBytes is the size of one reservoir entry.
	purchaseBytes = 16
)

// tapes is the process-wide tape cache every generator reads from.
var tapes = newTapeCache(tapeBudget, tapeBudget/4)

// draws is the config that steers a stream's draws, normalized so that
// configs which draw alike compare equal: the ads fields count only when
// ads are drawn, the disorder fields only when disorder is.
type draws struct {
	users        int
	maxPrice     int
	adsShare     float64
	matchProb    float64
	disorderProb float64
	disorderMax  time.Duration
}

func drawsOf(cfg Config) draws {
	d := draws{users: cfg.Users, maxPrice: int(cfg.MaxPrice)}
	if d.maxPrice <= 0 {
		d.maxPrice = 100
	}
	if cfg.AdsShare > 0 {
		d.adsShare, d.matchProb = cfg.AdsShare, cfg.MatchProb
	}
	if cfg.DisorderProb > 0 {
		d.disorderProb, d.disorderMax = cfg.DisorderProb, cfg.DisorderMax
	}
	return d
}

// drawer produces a tape's rows: the generator's RNG stream, its bound key
// distribution and the purchase reservoir that makes ads joinable.  It
// always stands at a chunk boundary, so a copy of it (copyTo) continues
// the stream exactly where the tape stops.
type drawer struct {
	draws
	rng  sim.RNG
	keys KeyDist

	// reservoir is a small ring of recently generated purchase identities
	// used to make ads joinable with controllable probability.  Only ads
	// read it, so a purchases-only drawer never fills it.
	reservoir []purchaseID
	resNext   int
}

type purchaseID struct{ user, pack int64 }

const reservoirSize = 4096

// copyTo makes dst a snapshot of d, reusing dst's reservoir storage.
func (d *drawer) copyTo(dst *drawer) {
	res := dst.reservoir[:0]
	*dst = *d
	dst.reservoir = append(res, d.reservoir...)
}

// fill draws the chunk's rows in strict row order: every draw comes off
// the stream in exactly the order the historical row-at-a-time generator
// consumed it (TestGeneratorDrawOrder pins this).
func (d *drawer) fill(ch *chunk) {
	rng := &d.rng
	if d.adsShare == 0 && d.disorderProb == 0 {
		// Purchases-only in-order fast path: the aggregation grids'
		// steady state.  Draw order per row: user, key, price.
		for i := range ch.user {
			ch.stream[i] = tuple.Purchases
			ch.user[i] = int32(rng.Intn(d.users))
			ch.key[i] = uint16(d.keys.Next(rng))
			ch.price[i] = uint16(rng.Intn(d.maxPrice)) + 1
		}
		return
	}
	for i := range ch.user {
		if d.disorderProb > 0 {
			ch.shift[i] = 0
			if rng.Bool(d.disorderProb) {
				ch.shift[i] = time.Duration(rng.Float64() * float64(d.disorderMax))
			}
		}
		if d.adsShare > 0 && rng.Bool(d.adsShare) {
			ch.stream[i] = tuple.Ads
			ch.price[i] = 0
			if len(d.reservoir) > 0 && rng.Bool(d.matchProb) {
				// A matching ad: propose a gem pack the user recently
				// bought (the paper's use-case joins ads to resulting
				// purchases; the correlation direction is symmetric for
				// the benchmark's purposes).
				p := d.reservoir[rng.Intn(len(d.reservoir))]
				ch.user[i] = int32(p.user)
				ch.key[i] = uint16(p.pack)
			} else {
				ch.user[i] = int32(rng.Intn(d.users))
				ch.key[i] = uint16(d.keys.Next(rng))
			}
			continue
		}
		ch.stream[i] = tuple.Purchases
		u := int64(rng.Intn(d.users))
		k := d.keys.Next(rng)
		ch.user[i] = int32(u)
		ch.key[i] = uint16(k)
		ch.price[i] = uint16(rng.Intn(d.maxPrice)) + 1
		if d.adsShare > 0 {
			d.remember(purchaseID{user: u, pack: k})
		}
	}
}

func (d *drawer) remember(p purchaseID) {
	if len(d.reservoir) < reservoirSize {
		d.reservoir = append(d.reservoir, p)
		return
	}
	d.reservoir[d.resNext] = p
	if d.resNext++; d.resNext == reservoirSize {
		d.resNext = 0
	}
}

// chunkBytes returns the bytes one chunk retains.  Users fit int32,
// prices uint16 and keys uint16 (Config.Validate, checkedKeys); the
// disorder column is present only when the stream draws disorder.
func chunkBytes(disorder bool) int64 {
	row := 1 + 4 + 2 + 2 // stream, user, key, price
	if disorder {
		row += 8
	}
	return int64(row) * tapeChunkRows
}

// chunk is tapeChunkRows drawn rows in compact columns.  A published chunk
// is never written again.
type chunk struct {
	stream []tuple.StreamID
	user   []int32
	key    []uint16
	price  []uint16
	shift  []time.Duration // nil without disorder
}

func newChunk(disorder bool) *chunk {
	ch := &chunk{
		stream: make([]tuple.StreamID, tapeChunkRows),
		user:   make([]int32, tapeChunkRows),
		key:    make([]uint16, tapeChunkRows),
		price:  make([]uint16, tapeChunkRows),
	}
	if disorder {
		ch.shift = make([]time.Duration, tapeChunkRows)
	}
	return ch
}

// copyTo copies the chunk's rows [off, off+n) into dst's drawn columns at
// rows [at, at+n) and shifts those rows' event times back by the stored
// disorder shift, clamped at the epoch.
func (ch *chunk) copyTo(dst tuple.Cols, at, off, n int) {
	copy(dst.Stream[at:at+n], ch.stream[off:off+n])
	users := dst.UserID[at : at+n]
	for i, v := range ch.user[off : off+n] {
		users[i] = int64(v)
	}
	keys := dst.GemPackID[at : at+n]
	for i, v := range ch.key[off : off+n] {
		keys[i] = int64(v)
	}
	prices := dst.Price[at : at+n]
	for i, v := range ch.price[off : off+n] {
		prices[i] = int64(v)
	}
	if ch.shift != nil {
		times := dst.EventTime[at : at+n]
		for i, s := range ch.shift[off : off+n] {
			if s != 0 {
				times[i] = max(times[i]-s, 0)
			}
		}
	}
}

// tapeKey identifies a stream: the seed, the key distribution by value
// (see tapeKeys) and the rest of the draw-steering config.
type tapeKey struct {
	seed uint64
	keys any
	draws
}

// tapeKeys returns the value a key distribution is keyed by, and whether
// it may share a tape at all.  The distributions this package defines are
// pure functions of their fields, so they key by value (a Zipf by (N, S),
// without its sampler).  Any other KeyDist may carry state a tape cannot
// see, or not be comparable, so it gets a private tape.
func tapeKeys(d KeyDist) (any, bool) {
	switch d := d.(type) {
	case NormalKeys, UniformKeys, SingleKey:
		return d, true
	case *ZipfKeys:
		return zipfKey{d.N, d.S}, true
	}
	return nil, false
}

type zipfKey struct {
	n int
	s float64
}

// checkedKeys wraps a KeyDist this package does not define, which
// Config.Validate cannot bound, and panics on its first key outside
// [0, tuple.KeyDomain): the tape's key column is 16 bits wide and the
// engines index per-key state by key.
type checkedKeys struct{ KeyDist }

func (d checkedKeys) Next(r *sim.RNG) int64 {
	k := d.KeyDist.Next(r)
	if k < 0 || k >= tuple.KeyDomain {
		panic(fmt.Sprintf("generator: %T drew key %d outside [0, %d)", d.KeyDist, k, tuple.KeyDomain))
	}
	return k
}

// tape is one stream's published rows and the drawer standing at their end.
type tape struct {
	mu       sync.Mutex
	chunks   []*chunk
	d        drawer
	disorder bool

	// Guarded by cache.mu.  cache is nil for a private tape.
	cache   *tapeCache
	key     tapeKey
	bytes   int64
	lastUse uint64
	evicted bool
}

// newTape returns an empty tape for the stream (seed, cfg).  It binds its
// own key sampler, so a config shared by concurrently executing runs never
// shares sampler state.
func newTape(seed uint64, cfg Config, c *tapeCache) *tape {
	keys := cfg.Keys
	if b, ok := keys.(boundKeyDist); ok {
		keys = b.bound()
	}
	if _, defined := tapeKeys(keys); !defined {
		keys = checkedKeys{keys}
	}
	t := &tape{
		d:        drawer{draws: drawsOf(cfg), keys: keys},
		disorder: cfg.DisorderProb > 0,
		cache:    c,
	}
	t.d.rng.Reseed(seed, "generator")
	return t
}

// read returns chunk i, drawing it if the tape may grow that far.  A reader
// reads chunks in order, so an unpublished i is the next chunk to draw;
// when the tape may not draw it (capped, evicted or private), read copies
// the drawer, which stands at row i·tapeChunkRows, into priv and returns
// nil.
func (t *tape) read(i int, priv *drawer) *chunk {
	t.mu.Lock()
	defer t.mu.Unlock()
	if i < len(t.chunks) {
		if t.cache != nil {
			t.cache.touch(t)
		}
		return t.chunks[i]
	}
	if t.cache != nil && t.cache.reserve(t) {
		ch := newChunk(t.disorder)
		t.d.fill(ch)
		t.chunks = append(t.chunks, ch)
		return ch
	}
	t.d.copyTo(priv)
	return nil
}

// nextBytes returns what drawing the next chunk adds to the tape's
// retained bytes; the first chunk of a joinable stream also counts the
// reservoir its drawer may fill.
func (t *tape) nextBytes() int64 {
	b := chunkBytes(t.disorder)
	if len(t.chunks) == 0 && t.d.adsShare > 0 {
		b += reservoirSize * purchaseBytes
	}
	return b
}

// tapeCache holds the process's tapes within one byte budget.
type tapeCache struct {
	mu       sync.Mutex
	tapes    map[tapeKey]*tape
	budget   int64 // bytes all cached tapes retain together
	capBytes int64 // bytes one tape may retain
	bytes    int64
	clock    uint64
}

func newTapeCache(budget, capBytes int64) *tapeCache {
	return &tapeCache{tapes: make(map[tapeKey]*tape), budget: budget, capBytes: capBytes}
}

// tapeFor returns the tape of the stream (seed, cfg), creating it empty.
func (c *tapeCache) tapeFor(seed uint64, cfg Config) *tape {
	keys, shared := tapeKeys(cfg.Keys)
	if !shared {
		return newTape(seed, cfg, nil)
	}
	key := tapeKey{seed: seed, keys: keys, draws: drawsOf(cfg)}
	c.mu.Lock()
	defer c.mu.Unlock()
	t := c.tapes[key]
	if t == nil {
		for len(c.tapes) >= tapeMaxEntries {
			c.evictLRU(nil)
		}
		t = newTape(seed, cfg, c)
		t.key = key
		c.tapes[key] = t
	}
	c.use(t)
	return t
}

// use marks t used: eviction picks the tape read least recently, so a
// tape a long run is still reading outlives the idle ones.  The caller
// holds c.mu.
func (c *tapeCache) use(t *tape) {
	c.clock++
	t.lastUse = c.clock
}

func (c *tapeCache) touch(t *tape) {
	c.mu.Lock()
	c.use(t)
	c.mu.Unlock()
}

// reserve accounts t's next chunk, evicting least recently used tapes to
// stay within the budget.  It refuses once t is evicted or would pass the
// per-tape cap.  The caller holds t.mu.
func (c *tapeCache) reserve(t *tape) bool {
	need := t.nextBytes()
	c.mu.Lock()
	defer c.mu.Unlock()
	if t.evicted || t.bytes+need > c.capBytes {
		return false
	}
	for c.bytes+need > c.budget {
		if !c.evictLRU(t) {
			return false
		}
	}
	t.bytes += need
	c.bytes += need
	c.use(t)
	return true
}

// evictLRU drops the least recently used tape other than keep.  Readers
// holding it keep its published chunks and continue privately past them.
func (c *tapeCache) evictLRU(keep *tape) bool {
	var victim *tape
	for _, t := range c.tapes {
		if t != keep && (victim == nil || t.lastUse < victim.lastUse) {
			victim = t
		}
	}
	if victim == nil {
		return false
	}
	delete(c.tapes, victim.key)
	victim.evicted = true
	c.bytes -= victim.bytes
	return true
}

// cursor is a generator's read position on its tape.  Past what the tape
// may retain it draws privately, from a copy of the tape's drawer into a
// chunk of its own; both are reused across runs.
type cursor struct {
	t       *tape
	row     int    // next row to read
	ch      *chunk // the chunk holding row, when row < end
	end     int    // row just past ch
	private bool
	priv    drawer
	own     *chunk
}

func (c *cursor) reset(t *tape) {
	c.t, c.row, c.ch, c.end, c.private = t, 0, nil, 0, false
}

// read fills dst's drawn columns with the next len(dst.Stream) rows and
// applies their disorder shifts to dst's event times.
func (c *cursor) read(dst tuple.Cols) {
	for at, n := 0, len(dst.Stream); at < n; {
		if c.row == c.end {
			c.advance()
		}
		m := min(n-at, c.end-c.row)
		c.ch.copyTo(dst, at, c.row-(c.end-tapeChunkRows), m)
		c.row += m
		at += m
	}
}

// advance moves the cursor onto the chunk starting at row.
func (c *cursor) advance() {
	c.end = c.row + tapeChunkRows
	if !c.private {
		if c.ch = c.t.read(c.row/tapeChunkRows, &c.priv); c.ch != nil {
			return
		}
		c.private = true
	}
	if c.own == nil || (c.own.shift != nil) != c.t.disorder {
		c.own = newChunk(c.t.disorder)
	}
	c.priv.fill(c.own)
	c.ch = c.own
}
