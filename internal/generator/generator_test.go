package generator

import (
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/queue"
	"repro/internal/sim"
	"repro/internal/tuple"
)

func baseConfig() Config {
	return Config{
		Instances:      4,
		Tick:           10 * time.Millisecond,
		EventsPerTuple: 100,
		Rate:           ConstantRate(400_000),
		Keys:           NormalKeys{N: 1000},
		Users:          100_000,
		MaxPrice:       100,
	}
}

func TestConfigValidation(t *testing.T) {
	good := baseConfig()
	if err := good.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	cases := []func(*Config){
		func(c *Config) { c.Instances = 0 },
		func(c *Config) { c.Tick = 0 },
		func(c *Config) { c.EventsPerTuple = 0 },
		func(c *Config) { c.Rate = nil },
		func(c *Config) { c.Keys = nil },
		func(c *Config) { c.Users = 0 },
		func(c *Config) { c.AdsShare = 1.0 },
		func(c *Config) { c.MatchProb = 1.5 },
		// The draw tape's user and price columns are 32 and 16 bits wide.
		func(c *Config) { c.Users = math.MaxInt32 + 1 },
		func(c *Config) { c.MaxPrice = math.MaxUint16 + 1 },
		// Keys lie in [0, tuple.KeyDomain): the tape's key column is 16
		// bits wide and engines index per-key state by key.
		func(c *Config) { c.Keys = NormalKeys{N: tuple.KeyDomain + 1} },
		func(c *Config) { c.Keys = UniformKeys{N: tuple.KeyDomain + 1} },
		func(c *Config) { c.Keys = &ZipfKeys{N: tuple.KeyDomain + 1, S: 1.2} },
		func(c *Config) { c.Keys = SingleKey{K: tuple.KeyDomain} },
		func(c *Config) { c.Keys = SingleKey{K: -1} },
	}
	for i, mutate := range cases {
		c := baseConfig()
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Fatalf("case %d: invalid config accepted", i)
		}
	}
	for _, keys := range []KeyDist{
		NormalKeys{N: tuple.KeyDomain - 1}, UniformKeys{N: tuple.KeyDomain},
		&ZipfKeys{N: tuple.KeyDomain - 1, S: 1.2}, SingleKey{K: tuple.KeyDomain - 1},
	} {
		c := baseConfig()
		c.Keys = keys
		if err := c.Validate(); err != nil {
			t.Fatalf("%#v: a distribution within the key domain rejected: %v", keys, err)
		}
	}
	c := baseConfig()
	c.Keys = NormalKeys{N: tuple.KeyDomain + 1}
	if err := c.Validate(); err == nil || !strings.Contains(err.Error(), "65536") {
		t.Fatalf("the key-domain error must state the bound, got %v", err)
	}
}

func TestNewRequiresMatchingQueues(t *testing.T) {
	k := sim.NewKernel(1)
	if _, err := New(k, baseConfig(), queue.NewGroup("g", 2, 0)); err == nil {
		t.Fatal("instance/queue mismatch accepted")
	}
}

func TestGeneratorRateExact(t *testing.T) {
	// Over a long run the generated weight must match rate × time almost
	// exactly (the carry accumulator guarantees it).
	k := sim.NewKernel(1)
	cfg := baseConfig()
	qs := queue.NewGroup("g", cfg.Instances, 0)
	g, err := New(k, cfg, qs)
	if err != nil {
		t.Fatal(err)
	}
	g.Start()
	k.Run(10 * time.Second)
	want := 400_000.0 * 10
	got := float64(g.TotalWeight())
	if math.Abs(got-want)/want > 0.001 {
		t.Fatalf("generated weight %v, want ~%v", got, want)
	}
	if qs.TotalIn() != g.TotalWeight() {
		t.Fatalf("queue accounting mismatch: %d vs %d", qs.TotalIn(), g.TotalWeight())
	}
}

func TestGeneratorEventTimesOrderedPerQueue(t *testing.T) {
	k := sim.NewKernel(1)
	cfg := baseConfig()
	qs := queue.NewGroup("g", cfg.Instances, 0)
	g, _ := New(k, cfg, qs)
	g.Start()
	k.Run(time.Second)
	for i := 0; i < qs.Size(); i++ {
		q := qs.Queue(i)
		last := time.Duration(-1)
		for {
			e, ok := q.Pop()
			if !ok {
				break
			}
			if e.EventTime < last {
				t.Fatalf("queue %d out of event-time order: %v after %v", i, e.EventTime, last)
			}
			if e.EventTime < 0 || e.EventTime > time.Second {
				t.Fatalf("event time outside run: %v", e.EventTime)
			}
			last = e.EventTime
		}
	}
}

func TestGeneratorEventFields(t *testing.T) {
	k := sim.NewKernel(1)
	cfg := baseConfig()
	qs := queue.NewGroup("g", cfg.Instances, 0)
	g, _ := New(k, cfg, qs)
	g.Start()
	k.Run(time.Second)
	n := 0
	for _, q := range qs.Queues() {
		for {
			e, ok := q.Pop()
			if !ok {
				break
			}
			n++
			if e.Stream != tuple.Purchases {
				t.Fatal("aggregation workload must be all purchases")
			}
			if e.Price < 1 || e.Price > 100 {
				t.Fatalf("price out of range: %d", e.Price)
			}
			if e.GemPackID < 0 || e.GemPackID >= 1000 {
				t.Fatalf("key out of range: %d", e.GemPackID)
			}
			if e.UserID < 0 || e.UserID >= 100_000 {
				t.Fatalf("user out of range: %d", e.UserID)
			}
			if e.Weight != 100 {
				t.Fatalf("weight: %d", e.Weight)
			}
		}
	}
	if n == 0 {
		t.Fatal("nothing generated")
	}
}

func TestGeneratorAdsShareAndSelectivity(t *testing.T) {
	k := sim.NewKernel(1)
	cfg := baseConfig()
	cfg.AdsShare = 0.5
	cfg.MatchProb = 0.8
	qs := queue.NewGroup("g", cfg.Instances, 0)
	g, _ := New(k, cfg, qs)
	g.Start()
	k.Run(5 * time.Second)

	purchases := map[int64]bool{}
	var ads []tuple.Event
	nP, nA := 0, 0
	for _, q := range qs.Queues() {
		for {
			e, ok := q.Pop()
			if !ok {
				break
			}
			if e.Stream == tuple.Ads {
				nA++
				ads = append(ads, e)
				if e.Price != 0 {
					t.Fatal("ads must not carry a price")
				}
			} else {
				nP++
				purchases[e.JoinKey()] = true
			}
		}
	}
	share := float64(nA) / float64(nA+nP)
	if math.Abs(share-0.5) > 0.02 {
		t.Fatalf("ads share: got %v want ~0.5", share)
	}
	// With MatchProb=0.8 most ads must reference an existing purchase
	// identity; with 100k users × 1000 packs random collisions are rare.
	matched := 0
	for _, a := range ads {
		if purchases[a.JoinKey()] {
			matched++
		}
	}
	frac := float64(matched) / float64(len(ads))
	if frac < 0.7 {
		t.Fatalf("join selectivity too low: %v", frac)
	}
}

func TestGeneratorSingleKeySkew(t *testing.T) {
	k := sim.NewKernel(1)
	cfg := baseConfig()
	cfg.Keys = SingleKey{K: 42}
	qs := queue.NewGroup("g", cfg.Instances, 0)
	g, _ := New(k, cfg, qs)
	g.Start()
	k.Run(time.Second)
	for _, q := range qs.Queues() {
		for {
			e, ok := q.Pop()
			if !ok {
				break
			}
			if e.GemPackID != 42 {
				t.Fatalf("single-key workload produced key %d", e.GemPackID)
			}
		}
	}
}

func TestStepScheduleAndPaperFluctuation(t *testing.T) {
	s := StepSchedule{{From: 0, Rate: 100}, {From: time.Minute, Rate: 50}}
	if s.RateAt(0) != 100 || s.RateAt(59*time.Second) != 100 {
		t.Fatal("first step rate wrong")
	}
	if s.RateAt(time.Minute) != 50 || s.RateAt(time.Hour) != 50 {
		t.Fatal("second step rate wrong")
	}
	if (StepSchedule{{From: time.Second, Rate: 5}}).RateAt(0) != 0 {
		t.Fatal("before first step the rate must be 0")
	}

	p := PaperFluctuation(9*time.Minute, 840_000, 280_000)
	if p.RateAt(0) != 840_000 {
		t.Fatal("fluctuation must start high")
	}
	if p.RateAt(4*time.Minute) != 280_000 {
		t.Fatal("fluctuation middle must be low")
	}
	if p.RateAt(7*time.Minute) != 840_000 {
		t.Fatal("fluctuation must return high")
	}
}

func TestStepScheduleDrivesGenerator(t *testing.T) {
	k := sim.NewKernel(1)
	cfg := baseConfig()
	cfg.Rate = StepSchedule{{From: 0, Rate: 100_000}, {From: time.Second, Rate: 300_000}}
	qs := queue.NewGroup("g", cfg.Instances, 0)
	g, _ := New(k, cfg, qs)
	g.Start()
	k.Run(2 * time.Second)
	want := 100_000.0 + 300_000.0
	got := float64(g.TotalWeight())
	if math.Abs(got-want)/want > 0.01 {
		t.Fatalf("stepped weight %v, want ~%v", got, want)
	}
}

func TestKeyDistributions(t *testing.T) {
	r := sim.NewRNG(5, "kd")
	norm := NormalKeys{N: 100}
	counts := make([]int, 100)
	for i := 0; i < 100_000; i++ {
		v := norm.Next(r)
		if v < 0 || v >= 100 {
			t.Fatalf("normal key out of range: %d", v)
		}
		counts[v]++
	}
	// The middle must be much denser than the edges.
	if counts[50] < counts[2]*3 {
		t.Fatalf("normal keys not centered: mid=%d edge=%d", counts[50], counts[2])
	}
	if norm.Cardinality() != 100 {
		t.Fatal("cardinality")
	}

	uni := UniformKeys{N: 10}
	for i := 0; i < 1000; i++ {
		if v := uni.Next(r); v < 0 || v >= 10 {
			t.Fatalf("uniform key out of range: %d", v)
		}
	}

	z := &ZipfKeys{N: 100, S: 1.3}
	zc := make([]int, 100)
	for i := 0; i < 100_000; i++ {
		zc[z.Next(r)]++
	}
	if zc[0] < zc[10] {
		t.Fatal("zipf head must dominate")
	}
	if z.Cardinality() != 100 || (SingleKey{}).Cardinality() != 1 {
		t.Fatal("cardinality")
	}
}

func TestGeneratorStop(t *testing.T) {
	k := sim.NewKernel(1)
	cfg := baseConfig()
	qs := queue.NewGroup("g", cfg.Instances, 0)
	g, _ := New(k, cfg, qs)
	g.Start()
	k.Run(time.Second)
	w := g.TotalWeight()
	g.Stop()
	k.Run(2 * time.Second)
	if g.TotalWeight() != w {
		t.Fatal("generator kept producing after Stop")
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	run := func() int64 {
		k := sim.NewKernel(77)
		cfg := baseConfig()
		cfg.AdsShare = 0.3
		cfg.MatchProb = 0.5
		qs := queue.NewGroup("g", cfg.Instances, 0)
		g, _ := New(k, cfg, qs)
		g.Start()
		k.Run(time.Second)
		var sig int64
		for _, q := range qs.Queues() {
			for {
				e, ok := q.Pop()
				if !ok {
					break
				}
				sig = sig*31 + e.UserID + e.GemPackID*7 + e.Price*13 + int64(e.EventTime)
			}
		}
		return sig
	}
	if run() != run() {
		t.Fatal("generator is not deterministic for a fixed seed")
	}
}

func TestGeneratorDisorder(t *testing.T) {
	k := sim.NewKernel(1)
	cfg := baseConfig()
	cfg.DisorderProb = 0.5
	cfg.DisorderMax = 2 * time.Second
	qs := queue.NewGroup("g", cfg.Instances, 0)
	g, _ := New(k, cfg, qs)
	g.Start()
	k.Run(5 * time.Second)

	outOfOrder := 0
	total := 0
	for _, q := range qs.Queues() {
		last := time.Duration(-1)
		for {
			e, ok := q.Pop()
			if !ok {
				break
			}
			total++
			if e.EventTime < last {
				outOfOrder++
			} else {
				last = e.EventTime
			}
			if e.EventTime < 0 {
				t.Fatalf("negative event time: %v", e.EventTime)
			}
		}
	}
	if total == 0 {
		t.Fatal("nothing generated")
	}
	frac := float64(outOfOrder) / float64(total)
	if frac < 0.05 {
		t.Fatalf("disorder injection too weak: %.3f out-of-order", frac)
	}
}

func TestGeneratorDisorderValidation(t *testing.T) {
	c := baseConfig()
	c.DisorderProb = 1.5
	if c.Validate() == nil {
		t.Fatal("disorder prob > 1 accepted")
	}
	c = baseConfig()
	c.DisorderProb = 0.5 // without DisorderMax
	if c.Validate() == nil {
		t.Fatal("disorder without max shift accepted")
	}
}

func TestStepScheduleValidate(t *testing.T) {
	good := StepSchedule{{From: 0, Rate: 1}, {From: time.Second, Rate: 2}, {From: time.Minute, Rate: 3}}
	if err := good.Validate(); err != nil {
		t.Fatalf("ordered schedule rejected: %v", err)
	}
	bad := StepSchedule{{From: time.Second, Rate: 1}, {From: time.Second, Rate: 2}}
	if bad.Validate() == nil {
		t.Fatal("duplicate step times accepted")
	}
	rev := StepSchedule{{From: time.Minute, Rate: 1}, {From: 0, Rate: 2}}
	if rev.Validate() == nil {
		t.Fatal("reversed step order accepted")
	}
	// The validation is wired into Config.Validate so a generator can
	// never be built on an unordered schedule (RateAt binary-searches it).
	cfg := baseConfig()
	cfg.Rate = rev
	if cfg.Validate() == nil {
		t.Fatal("config with unordered schedule accepted")
	}
}

func TestStepScheduleBinarySearchMatchesScan(t *testing.T) {
	s := StepSchedule{
		{From: 0, Rate: 10}, {From: 3 * time.Second, Rate: 20},
		{From: 9 * time.Second, Rate: 5}, {From: 40 * time.Second, Rate: 80},
	}
	// Reference: the pre-optimization linear scan.
	scan := func(t time.Duration) float64 {
		rate := 0.0
		for _, st := range s {
			if st.From <= t {
				rate = st.Rate
			} else {
				break
			}
		}
		return rate
	}
	for d := -2 * time.Second; d < time.Minute; d += 250 * time.Millisecond {
		if got, want := s.RateAt(d), scan(d); got != want {
			t.Fatalf("RateAt(%v) = %v, scan says %v", d, got, want)
		}
	}
}

// TestZipfKeysPerRunIsolation pins the satellite fix: two generators built
// from the SAME shared ZipfKeys config value must produce identical key
// streams for identical seeds — each run binds its own sampler instead of
// racing to lazily initialize the shared one.
func TestZipfKeysPerRunIsolation(t *testing.T) {
	shared := &ZipfKeys{N: 50, S: 1.4}
	run := func() int64 {
		k := sim.NewKernel(99)
		cfg := baseConfig()
		cfg.Keys = shared
		qs := queue.NewGroup("g", cfg.Instances, 0)
		g, err := New(k, cfg, qs)
		if err != nil {
			t.Fatal(err)
		}
		g.Start()
		k.Run(time.Second)
		var sig int64
		for _, q := range qs.Queues() {
			for {
				e, ok := q.Pop()
				if !ok {
					break
				}
				sig = sig*31 + e.GemPackID
			}
		}
		return sig
	}
	first := run()
	for i := 0; i < 3; i++ {
		if run() != first {
			t.Fatal("shared ZipfKeys config leaks sampler state between runs")
		}
	}
	if shared.z != nil {
		t.Fatal("generator must not initialize the shared instance's sampler")
	}
}

// refDrawer is a straight-line row-at-a-time reimplementation of the
// generator's draw sequence: the exact order the historical makeEvent
// consumed randomness, one event at a time, with its own reservoir.
type refDrawer struct {
	rng       *sim.RNG
	cfg       Config
	reservoir []purchaseID
	resNext   int
}

// draw fills e's drawn fields from the next row's draws; e.EventTime must
// hold the row's undisordered event time.
func (r *refDrawer) draw(e *tuple.Event) {
	rng, cfg := r.rng, r.cfg
	maxPrice := cfg.MaxPrice
	if maxPrice <= 0 {
		maxPrice = 100
	}
	if cfg.DisorderProb > 0 && rng.Bool(cfg.DisorderProb) {
		e.EventTime -= time.Duration(rng.Float64() * float64(cfg.DisorderMax))
		if e.EventTime < 0 {
			e.EventTime = 0
		}
	}
	if cfg.AdsShare > 0 && rng.Bool(cfg.AdsShare) {
		e.Stream = tuple.Ads
		if len(r.reservoir) > 0 && rng.Bool(cfg.MatchProb) {
			p := r.reservoir[rng.Intn(len(r.reservoir))]
			e.UserID, e.GemPackID = p.user, p.pack
		} else {
			e.UserID = int64(rng.Intn(cfg.Users))
			e.GemPackID = cfg.Keys.Next(rng)
		}
		return
	}
	e.Stream = tuple.Purchases
	e.UserID = int64(rng.Intn(cfg.Users))
	e.GemPackID = cfg.Keys.Next(rng)
	e.Price = int64(rng.Intn(int(maxPrice))) + 1
	p := purchaseID{user: e.UserID, pack: e.GemPackID}
	if len(r.reservoir) < reservoirSize {
		r.reservoir = append(r.reservoir, p)
		return
	}
	r.reservoir[r.resNext] = p
	r.resNext = (r.resNext + 1) % reservoirSize
}

// referenceGenerate generates runFor of events row by row from r, with
// the tick's carry and event-time spread.
func referenceGenerate(r *refDrawer, runFor time.Duration) []tuple.Event {
	var (
		cfg    = r.cfg
		events []tuple.Event
		carry  float64
	)
	for now := cfg.Tick; now <= runFor; now += cfg.Tick {
		intervalStart := now - cfg.Tick
		rate := cfg.Rate.RateAt(intervalStart)
		if rate <= 0 {
			continue
		}
		budget := rate*cfg.Tick.Seconds()/float64(cfg.EventsPerTuple) + carry
		n := int(budget)
		carry = budget - float64(n)
		for i := 0; i < n; i++ {
			e := tuple.Event{
				EventTime: intervalStart + time.Duration((float64(i)+0.5)/float64(n)*float64(cfg.Tick)),
				Weight:    cfg.EventsPerTuple,
			}
			r.draw(&e)
			events = append(events, e)
		}
	}
	return events
}

// runGenerator runs a generator of cfg on a kernel of seed for runFor and
// returns it with every event it generated.
func runGenerator(t testing.TB, seed uint64, cfg Config, runFor time.Duration) (*Generator, []tuple.Event) {
	k := sim.NewKernel(seed)
	var got []tuple.Event
	cfg.Tap = func(e *tuple.Event) { got = append(got, *e) }
	g, err := New(k, cfg, queue.NewGroup("g", cfg.Instances, 0))
	if err != nil {
		t.Fatal(err)
	}
	g.Start()
	k.Run(runFor)
	return g, got
}

// drawEnd returns the drawer that produced g's last rows, as the row it
// stands at and its RNG state: the tape's drawer while g reads the tape,
// g's private copy once g draws past what the tape retains.
func drawEnd(g *Generator) (int, sim.RNG) {
	c := &g.cur
	if c.private {
		return c.end, c.priv.rng
	}
	c.t.mu.Lock()
	defer c.t.mu.Unlock()
	return len(c.t.chunks) * tapeChunkRows, c.t.d.rng
}

// checkDrawOrder compares got, the events of a generator of cfg on a
// kernel of seed over runFor, against the reference's: they must produce
// identical events AND leave the generator's drawer in an identical RNG
// state after drawing the same rows, which pins that the draws come off
// the stream in exactly the reference's order.
func checkDrawOrder(t *testing.T, seed uint64, cfg Config, runFor time.Duration, g *Generator, got []tuple.Event) {
	t.Helper()
	refRNG := sim.NewKernel(seed).RNG("generator")
	ref := &refDrawer{rng: refRNG, cfg: cfg}
	want := referenceGenerate(ref, runFor)
	if len(got) != len(want) {
		t.Fatalf("event count diverged: got %d want %d", len(got), len(want))
	}
	for i := range want {
		e := got[i]
		e.IngestTime = 0 // not set by either path, but be explicit
		if e != want[i] {
			t.Fatalf("event %d diverged:\n got  %+v\n want %+v", i, e, want[i])
		}
	}
	// The streams must stay aligned AFTER generation too: an equal prefix
	// with extra draws consumed would silently shift every later artifact.
	// The drawer draws whole chunks, so the reference first draws on to
	// the row the drawer stands at.
	rows, rng := drawEnd(g)
	for i := len(want); i < rows; i++ {
		var e tuple.Event
		ref.draw(&e)
	}
	for i := 0; i < 4; i++ {
		if a, b := rng.Uint64(), refRNG.Uint64(); a != b {
			t.Fatalf("RNG streams out of phase after generation at row %d (draw %d: %x vs %x)", rows, i, a, b)
		}
	}
}

// drawOrderConfigs are the draw paths: the purchases-only fast path, the
// joinable ads stream and the disorder shift, alone and together.
var drawOrderConfigs = map[string]func(*Config){
	"purchases-only": func(c *Config) {},
	"ads-match": func(c *Config) {
		c.AdsShare, c.MatchProb = 0.3, 0.5
	},
	"disordered": func(c *Config) {
		c.DisorderProb, c.DisorderMax = 0.2, 50*time.Millisecond
	},
	"ads-match-disordered": func(c *Config) {
		c.AdsShare, c.MatchProb = 0.3, 0.5
		c.DisorderProb, c.DisorderMax = 0.2, 50*time.Millisecond
	},
}

// TestGeneratorDrawOrder pins the RNG draw order of the columnar tick:
// bit-identity of every committed artifact depends on the generator
// consuming randomness in exactly the historical per-event sequence, so a
// refactor that reorders draws (e.g. batching a drawn column) must fail
// here even if the aggregate distributions look right.
func TestGeneratorDrawOrder(t *testing.T) {
	const runFor = 500 * time.Millisecond
	for name, mutate := range drawOrderConfigs {
		t.Run(name, func(t *testing.T) {
			cfg := baseConfig()
			mutate(&cfg)
			g, got := runGenerator(t, 42, cfg, runFor)
			checkDrawOrder(t, 42, cfg, runFor, g, got)
		})
	}
}

// BenchmarkGeneratorTick measures the per-tick generation hot path —
// drawn columns copied from the stream's draw tape, staged in a pooled
// batch, and scattered into the queue rings — with a consumer draining so
// the rings stay at steady state.  It runs over a warm tape: a first
// generator on the same seed draws a lap of ticks onto the tape, and the
// timed one rebinds to row 0 every lap, so it never draws (the draw cost
// is BenchmarkTapeDraw's).  It must report 0 allocs/op once slabs have
// grown.
func BenchmarkGeneratorTick(b *testing.B) {
	cfg := baseConfig()
	cfg.Rate = ConstantRate(4_000_000) // 400 tuples per 10ms tick at weight 100
	const lap = 1000                   // 400,000 rows: within one tape's cap
	runGenerator(b, 1, cfg, lap*cfg.Tick)

	k := sim.NewKernel(1)
	qs := queue.NewGroup("g", cfg.Instances, 0)
	g, err := New(k, cfg, qs)
	if err != nil {
		b.Fatal(err)
	}
	drain := tuple.NewBatch(4096)
	now := sim.Time(0)
	// Warm the rings and slabs.
	for i := 0; i < 100; i++ {
		now += cfg.Tick
		g.tick(now)
	}
	drain.Reset()
	qs.PopBatch(drain, 1<<30)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%lap == 0 {
			if err := g.Rebind(k, cfg, qs); err != nil {
				b.Fatal(err)
			}
		}
		now += cfg.Tick
		g.tick(now)
		drain.Reset()
		qs.PopBatch(drain, 1<<30)
	}
}
