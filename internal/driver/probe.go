package driver

import (
	"sync"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/generator"
	"repro/internal/metrics"
	"repro/internal/queue"
	"repro/internal/sim"
)

// Probe is a run instance and the only way a run is built: one complete
// set of simulation components — kernel, cluster model, driver queues,
// generator fleet, engine arena (runtime, window state, scratch queues)
// and metrics storage — that Run recycles between runs instead of
// rebuilding.  RunContext runs once on a new Probe; the
// sustainable-throughput search runs dozens of probe simulations per
// deployment, and with recycled Probes the steady-state probes after the
// first perform near-zero setup allocation (see DESIGN-PERF.md §8).
//
// A run on a recycled Probe is bit-identical to a run on a new one: every
// recycled component resets to exactly its freshly-constructed state
// (kernel clock/sequence/RNG streams, queue rings, window tables,
// metrics), and only capacity — ring sizes, table slabs, series backing
// arrays — is carried over.  A broker run builds its broker and the
// broker's output queues anew each time.
//
// Ownership: the Result returned by Run, and everything it references
// (latency histograms, every series), lives in the probe's arena and is
// valid only until the next Run.  Callers that keep a Result — the
// searcher keeps the best probe's — must keep its Probe idle for as long
// as they read the Result.  A Probe must not be used from two goroutines
// at once.
type Probe struct {
	k      *sim.Kernel
	cl     *cluster.Cluster
	queues *queue.Group
	gen    *generator.Generator
	mem    *engine.Mem

	evLat, procLat                                         *metrics.Histogram
	evSeries, procSeries, evMaxSeries, thrSeries, qdSeries *metrics.Series

	// Shape of the recycled queue fleet; a mismatching config rebuilds it.
	instances int
	capPer    int64
}

// NewProbe returns a probe with an empty engine arena and metrics
// storage; the components that depend on a run's shape materialize on
// its first Run.
func NewProbe() *Probe {
	return &Probe{
		mem:         engine.NewMem(),
		evLat:       metrics.NewHistogram(),
		procLat:     metrics.NewHistogram(),
		evSeries:    metrics.NewSeries("event_latency_s"),
		procSeries:  metrics.NewSeries("processing_latency_s"),
		evMaxSeries: metrics.NewSeries("event_latency_max_s"),
		thrSeries:   metrics.NewSeries("ingest_rate_ev_s"),
		qdSeries:    metrics.NewSeries("queue_depth_events"),
	}
}

// components resets (or first builds) the kernel, cluster and queues for
// a run of cfg.  cfg must already carry defaults.  The cluster is
// provisioned for the rescale plan's maximum worker count (the plan-free
// maximum is cfg.Workers itself) and starts with only cfg.Workers in
// service; the engine runtime walks the active count along the plan every
// tick.
func (p *Probe) components(cfg Config) error {
	if p.k == nil {
		p.k = sim.NewKernel(cfg.Seed)
	} else {
		p.k.Reset(cfg.Seed)
	}
	if provisioned := cfg.Rescale.MaxWorkers(cfg.Workers); p.cl == nil || p.cl.Provisioned() != provisioned {
		cl, err := cluster.New(cluster.DefaultConfig(provisioned))
		if err != nil {
			return err
		}
		p.cl = cl
	} else {
		p.cl.Reset()
	}
	p.cl.SetActive(cfg.Workers)
	if p.queues == nil || p.instances != cfg.GeneratorInstances || p.capPer != cfg.QueueCapPerInstance {
		p.queues = queue.NewGroup("gen", cfg.GeneratorInstances, cfg.QueueCapPerInstance)
		p.instances = cfg.GeneratorInstances
		p.capPer = cfg.QueueCapPerInstance
	} else {
		p.queues.Reset()
	}
	return nil
}

// generatorFor rebinds (or first builds) the generator fleet.
func (p *Probe) generatorFor(k *sim.Kernel, genCfg generator.Config, queues *queue.Group) (*generator.Generator, error) {
	if p.gen == nil {
		p.gen = new(generator.Generator)
	}
	if err := p.gen.Rebind(k, genCfg, queues); err != nil {
		return nil, err
	}
	return p.gen, nil
}

// metricsInto points res at the probe's reset metrics storage.
func (p *Probe) metricsInto(res *Result) {
	p.evLat.Reset()
	p.procLat.Reset()
	p.evSeries.Reset()
	p.procSeries.Reset()
	p.evMaxSeries.Reset()
	p.thrSeries.Reset()
	p.qdSeries.Reset()
	res.EventLatency = p.evLat
	res.ProcLatency = p.procLat
	res.EventLatencySeries = p.evSeries
	res.ProcLatencySeries = p.procSeries
	res.EventLatencyMaxSeries = p.evMaxSeries
	res.ThroughputSeries = p.thrSeries
	res.QueueDepthSeries = p.qdSeries
}

// probePool is the searcher's free list of probes.  Speculative rounds
// run several probes concurrently (each on its own Probe); the pool is
// the only cross-goroutine touch point, hence the mutex.
type probePool struct {
	mu   sync.Mutex
	free []*Probe
}

// acquire pops a recycled probe or builds a fresh one.
func (pp *probePool) acquire() *Probe {
	pp.mu.Lock()
	defer pp.mu.Unlock()
	if n := len(pp.free); n > 0 {
		p := pp.free[n-1]
		pp.free[n-1] = nil
		pp.free = pp.free[:n-1]
		return p
	}
	return NewProbe()
}

// release hands a probe back once its Result is no longer referenced:
// a mispredicted speculation branch, a consumed unsustainable verdict,
// or a replaced best result.  nil is a no-op.
func (pp *probePool) release(p *Probe) {
	if p == nil {
		return
	}
	pp.mu.Lock()
	pp.free = append(pp.free, p)
	pp.mu.Unlock()
}
