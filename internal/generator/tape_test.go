package generator

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/queue"
	"repro/internal/sim"
	"repro/internal/tuple"
)

// useTapes makes c the process's tape cache for the rest of the test.
func useTapes(t testing.TB, c *tapeCache) {
	old := tapes
	tapes = c
	t.Cleanup(func() { tapes = old })
}

// tapeConfig generates 40,000 rows a second, so a one-second run reads
// three chunks.
func tapeConfig() Config {
	cfg := baseConfig()
	cfg.Rate = ConstantRate(4_000_000)
	return cfg
}

// sliceKeys is a KeyDist that is not comparable: as a map key it would
// panic.
type sliceKeys struct{ ks []int64 }

func (d sliceKeys) Next(r *sim.RNG) int64 { return d.ks[r.Intn(len(d.ks))] }
func (d sliceKeys) Cardinality() int      { return len(d.ks) }

// TestTapeRunIdentity runs every draw path against the row-at-a-time
// reference over a cold cache, a warm cache, a tape a longer run already
// extended, and a tape capped at one chunk, whose reader draws the rest
// privately.  Each must yield the reference's events and leave its
// drawer in phase with the reference's stream.
func TestTapeRunIdentity(t *testing.T) {
	const runFor = time.Second
	configs := map[string]func(*Config){
		"zipf":       func(c *Config) { c.Keys = &ZipfKeys{N: 50, S: 1.4} },
		"single-key": func(c *Config) { c.Keys = SingleKey{K: 42} },
		// The widest key the tape's uint16 column holds.
		"wide-key": func(c *Config) { c.Keys = SingleKey{K: tuple.KeyDomain - 1} },
		"private":  func(c *Config) { c.Keys = sliceKeys{ks: []int64{3, 1, 4, 1, 5}} },
	}
	for name, mutate := range drawOrderConfigs {
		configs[name] = mutate
	}
	for name, mutate := range configs {
		cfg := tapeConfig()
		mutate(&cfg)
		check := func(t *testing.T, private bool) {
			g, got := runGenerator(t, 7, cfg, runFor)
			checkDrawOrder(t, 7, cfg, runFor, g, got)
			if g.cur.private != private {
				t.Fatalf("reader drew privately: %v, want %v", g.cur.private, private)
			}
		}
		shared := name != "private"
		t.Run(name+"/cold-then-warm", func(t *testing.T) {
			useTapes(t, newTapeCache(tapeBudget, tapeBudget/4))
			check(t, !shared)
			check(t, !shared)
		})
		t.Run(name+"/extended", func(t *testing.T) {
			useTapes(t, newTapeCache(tapeBudget, tapeBudget/4))
			runGenerator(t, 7, cfg, 2*runFor)
			check(t, !shared)
		})
		t.Run(name+"/past-cap", func(t *testing.T) {
			useTapes(t, newTapeCache(tapeBudget, chunkBytes(cfg.DisorderProb > 0)+reservoirSize*purchaseBytes))
			check(t, true)
		})
	}
}

// TestTapeKeyDomain pins the tape's 16-bit key column: a key distribution
// this package defines is rejected by Validate once its range passes
// tuple.KeyDomain, and any other distribution is caught at its first key
// outside the domain, before the key could be stored truncated.
func TestTapeKeyDomain(t *testing.T) {
	cfg := tapeConfig()
	cfg.Keys = SingleKey{K: 1 << 40}
	if err := cfg.Validate(); err == nil {
		t.Fatal("a single key of 1<<40 passed validation")
	}
	if _, err := New(sim.NewKernel(1), cfg, queue.NewGroup("g", cfg.Instances, 0)); err == nil {
		t.Fatal("a generator was built over a single key of 1<<40")
	}

	cfg.Keys = sliceKeys{ks: []int64{7, tuple.KeyDomain - 1}}
	g, got := runGenerator(t, 3, cfg, 100*time.Millisecond)
	checkDrawOrder(t, 3, cfg, 100*time.Millisecond, g, got)

	for _, bad := range []int64{tuple.KeyDomain, -1} {
		cfg.Keys = sliceKeys{ks: []int64{7, bad}}
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, fmt.Sprintf("drew key %d outside [0, %d)", bad, tuple.KeyDomain)) {
					t.Fatalf("key %d: want a panic naming the key and the domain, got %q", bad, msg)
				}
			}()
			runGenerator(t, 3, cfg, 100*time.Millisecond)
		}()
	}
}

// TestTapeKeys pins which configs share a tape: Zipf literals that agree
// on (N, S), and configs that differ only in fields that steer no draw;
// a non-comparable distribution gets a private tape the cache never holds.
func TestTapeKeys(t *testing.T) {
	c := newTapeCache(tapeBudget, tapeBudget/4)
	cfg := tapeConfig()
	cfg.Keys = &ZipfKeys{N: 50, S: 1.4}
	a := c.tapeFor(9, cfg)
	cfg.Keys = &ZipfKeys{N: 50, S: 1.4}
	cfg.Rate, cfg.Instances, cfg.MatchProb, cfg.DisorderMax = ConstantRate(1), 16, 0.9, time.Second
	if c.tapeFor(9, cfg) != a {
		t.Fatal("Zipf literals with equal (N, S) and configs alike in every draw-steering field must share a tape")
	}
	cfg.Keys = &ZipfKeys{N: 50, S: 1.5}
	if c.tapeFor(9, cfg) == a {
		t.Fatal("Zipf literals with different S share a tape")
	}
	cfg.Keys = &ZipfKeys{N: 50, S: 1.4}
	if c.tapeFor(10, cfg) == a {
		t.Fatal("different seeds share a tape")
	}
	cfg.Keys = sliceKeys{ks: []int64{1, 2}}
	if p := c.tapeFor(9, cfg); p.cache != nil || len(c.tapes) != 3 {
		t.Fatal("a non-comparable key distribution must get a private tape outside the cache")
	}
}

// TestTapeConcurrentReaders runs three generators at once, two of them on
// one tape, each extending it as it goes; every one must yield the
// reference's events.  `make race` runs it under the race detector.
func TestTapeConcurrentReaders(t *testing.T) {
	useTapes(t, newTapeCache(tapeBudget, tapeBudget/4))
	const runFor = time.Second
	cfg := tapeConfig()
	cfg.AdsShare, cfg.MatchProb = 0.3, 0.5
	seeds := []uint64{11, 11, 12}
	gens := make([]*Generator, len(seeds))
	kernels := make([]*sim.Kernel, len(seeds))
	got := make([][]tuple.Event, len(seeds))
	for i, seed := range seeds {
		gcfg := cfg
		gcfg.Tap = func(e *tuple.Event) { got[i] = append(got[i], *e) }
		kernels[i] = sim.NewKernel(seed)
		g, err := New(kernels[i], gcfg, queue.NewGroup("g", cfg.Instances, 0))
		if err != nil {
			t.Fatal(err)
		}
		gens[i] = g
	}
	var wg sync.WaitGroup
	for i := range seeds {
		wg.Add(1)
		go func() {
			defer wg.Done()
			gens[i].Start()
			kernels[i].Run(runFor)
		}()
	}
	wg.Wait()
	if gens[0].cur.t != gens[1].cur.t {
		t.Fatal("generators on one seed must read one tape")
	}
	for i, seed := range seeds {
		checkDrawOrder(t, seed, cfg, runFor, gens[i], got[i])
	}
}

// TestTapeBudget fills a cache of three chunks, one tape capped at two,
// with one-second runs on eight seeds while the first seed's generator is
// paused after its first chunk.  Retained bytes must stay within the
// budget and match what the cached tapes hold, and the paused generator,
// whose tape is evicted meanwhile, must still yield the reference's rows.
func TestTapeBudget(t *testing.T) {
	cfg := tapeConfig()
	one := chunkBytes(cfg.DisorderProb > 0)
	c := newTapeCache(3*one, 2*one)
	useTapes(t, c)
	const runFor = time.Second

	k := sim.NewKernel(1)
	var paused []tuple.Event
	pcfg := cfg
	pcfg.Tap = func(e *tuple.Event) { paused = append(paused, *e) }
	g, err := New(k, pcfg, queue.NewGroup("g", cfg.Instances, 0))
	if err != nil {
		t.Fatal(err)
	}
	g.Start()
	k.Run(runFor / 4)
	first := g.cur.t

	for seed := uint64(2); seed <= 8; seed++ {
		runGenerator(t, seed, cfg, runFor)
		c.mu.Lock()
		var held int64
		for _, tp := range c.tapes {
			held += tp.bytes
		}
		if c.bytes > c.budget || held != c.bytes {
			c.mu.Unlock()
			t.Fatalf("after seed %d: %d bytes retained (tapes hold %d), budget %d", seed, c.bytes, held, c.budget)
		}
		c.mu.Unlock()
	}
	if !first.evicted {
		t.Fatal("the paused generator's tape outlived seven newer ones in a three-chunk budget")
	}
	k.Run(runFor)
	checkDrawOrder(t, 1, cfg, runFor, g, paused)
	if !g.cur.private {
		t.Fatal("a reader past an evicted tape's end must draw privately")
	}
}

// BenchmarkTapeDraw measures drawing one tape chunk of the purchases-only
// aggregation stream: the per-row cost every replaying run saves.
func BenchmarkTapeDraw(b *testing.B) {
	tp := newTape(1, baseConfig(), nil)
	ch := newChunk(tp.disorder)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tp.d.fill(ch)
	}
}
