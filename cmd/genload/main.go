// Command genload is the standalone external load generator: it runs the
// paper's distributed data generator (Section III-A) against in-memory
// driver queues on virtual time and emits either the generated events
// themselves (one JSON object per line) or per-second generation
// statistics.  It exercises exactly the driver-side data path a real
// engine binding would consume.
//
// Usage:
//
//	genload -rate 100000 -for 10s -events | head
//	genload -rate 840000 -for 60s -fluctuate -low 280000
//	genload -rate 500000 -for 30s -ads 0.3 -match 0.05 -keys zipf
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/generator"
	"repro/internal/queue"
	"repro/internal/sim"
	"repro/internal/tuple"
)

// eventJSON is the wire shape of one emitted event.
type eventJSON struct {
	Stream    string `json:"stream"`
	UserID    int64  `json:"userID"`
	GemPackID int64  `json:"gemPackID"`
	Price     int64  `json:"price,omitempty"`
	EventTime int64  `json:"eventTimeMs"`
	Weight    int64  `json:"weight"`
}

func main() {
	var (
		rate      = flag.Float64("rate", 100_000, "generation rate, real events/second")
		low       = flag.Float64("low", 0, "low rate for -fluctuate (default rate/3)")
		runFor    = flag.Duration("for", 10*time.Second, "virtual generation duration")
		instances = flag.Int("instances", 16, "parallel generator instances")
		weight    = flag.Int64("weight", 100, "real events per simulated tuple")
		adsShare  = flag.Float64("ads", 0, "fraction of events on the ADS stream")
		match     = flag.Float64("match", 0.05, "probability an ad matches a recent purchase")
		keys      = flag.String("keys", "normal", "gemPackID distribution: normal | uniform | zipf | single")
		nKeys     = flag.Int("nkeys", 1000, "gemPackID cardinality, at most 65536")
		fluctuate = flag.Bool("fluctuate", false, "use the Experiment 5 high-low-high schedule")
		events    = flag.Bool("events", false, "emit every event as JSON instead of statistics")
		seed      = flag.Uint64("seed", 42, "generator seed")
	)
	flag.Parse()

	var dist generator.KeyDist
	switch *keys {
	case "normal":
		dist = generator.NormalKeys{N: *nKeys}
	case "uniform":
		dist = generator.UniformKeys{N: *nKeys}
	case "zipf":
		dist = &generator.ZipfKeys{N: *nKeys, S: 1.2}
	case "single":
		dist = generator.SingleKey{K: 1}
	default:
		fatalf("unknown -keys %q", *keys)
	}

	var schedule generator.RateSchedule = generator.ConstantRate(*rate)
	if *fluctuate {
		l := *low
		if l <= 0 {
			l = *rate / 3
		}
		schedule = generator.PaperFluctuation(*runFor, *rate, l)
	}

	k := sim.NewKernel(*seed)
	queues := queue.NewGroup("gen", *instances, 0)
	gen, err := generator.New(k, generator.Config{
		Instances:      *instances,
		Tick:           10 * time.Millisecond,
		EventsPerTuple: *weight,
		Rate:           schedule,
		Keys:           dist,
		Users:          100_000,
		AdsShare:       *adsShare,
		MatchProb:      *match,
		MaxPrice:       100,
	}, queues)
	if err != nil {
		fatalf("%v", err)
	}

	out := bufio.NewWriter(os.Stdout)
	defer out.Flush()
	enc := json.NewEncoder(out)

	// Drain queue by queue in batches — the per-partition consumption
	// pattern an external engine binding would use; each instance's
	// stream is emitted in event-time order.
	batch := tuple.NewBatch(4096)
	drain := func(now sim.Time) (n int, w int64) {
		for _, q := range queues.Queues() {
			for {
				batch.Reset()
				if q.PopBatch(batch, 4096) == 0 {
					break
				}
				c := batch.Columns()
				for i := 0; i < batch.Len(); i++ {
					n++
					w += c.Weight[i]
					if *events {
						enc.Encode(eventJSON{
							Stream:    c.Stream[i].String(),
							UserID:    c.UserID[i],
							GemPackID: c.GemPackID[i],
							Price:     c.Price[i],
							EventTime: int64(c.EventTime[i] / time.Millisecond),
							Weight:    c.Weight[i],
						})
					}
				}
			}
		}
		return
	}

	k.Every(time.Second, func(now sim.Time) {
		n, w := drain(now)
		if !*events {
			fmt.Fprintf(out, "t=%-6v tuples=%-8d events=%-10d rate=%.3g ev/s\n",
				now, n, w, float64(w))
		}
	})
	gen.Start()
	k.Run(*runFor)
	gen.Stop()
	if n, w := drain(k.Now()); !*events && n > 0 {
		fmt.Fprintf(out, "tail    tuples=%-8d events=%d\n", n, w)
	}
	if !*events {
		fmt.Fprintf(out, "total generated: %d real events over %v (avg %.3g ev/s)\n",
			gen.TotalWeight(), *runFor, float64(gen.TotalWeight())/runFor.Seconds())
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "genload: "+format+"\n", args...)
	os.Exit(1)
}
