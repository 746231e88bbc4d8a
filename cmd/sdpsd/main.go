// Command sdpsd is the experiment coordinator daemon: it owns the job
// queue, the run registry and the content-addressed artifact store, serves
// the control REST API (see internal/ctl), and optionally hosts in-process
// agents so a single machine is a complete deployment.
//
// Usage:
//
//	sdpsd -listen 127.0.0.1:8372 -data ./sdpsd-data -agents 2
//
// Remote agents join with `sdpsctl agent -coord http://host:8372`; clients
// submit and fetch runs with `sdpsctl submit/status/watch/fetch`.
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/ctl"
)

func main() {
	var (
		listen      = flag.String("listen", "127.0.0.1:8372", "address to serve the control API on")
		data        = flag.String("data", "./sdpsd-data", "artifact/run store directory")
		agents      = flag.Int("agents", 0, "number of in-process agents to host")
		leaseTTL    = flag.Duration("lease-ttl", 30*time.Second, "cell lease TTL; an agent silent this long forfeits its leases")
		maxAttempts = flag.Int("max-attempts", 3, "executions per cell (failures + expiries) before the run fails")
		cacheSize   = flag.Int("cell-cache", 4096, "finished-cell result cache entries shared by the in-process agents (0 disables)")
		warmStart   = flag.Bool("warm-start", false, "seed sustainable-throughput searches from prior brackets in the cell cache (faster, but artifacts are no longer byte-identical to cold runs)")
	)
	flag.Parse()
	if *warmStart && *cacheSize <= 0 {
		fatalf("-warm-start requires a cell cache: set -cell-cache > 0")
	}

	store, err := ctl.NewStore(*data)
	if err != nil {
		fatalf("%v", err)
	}
	coord, err := ctl.NewCoordinator(store, ctl.CoordinatorOptions{
		LeaseTTL:    *leaseTTL,
		MaxAttempts: *maxAttempts,
	})
	if err != nil {
		fatalf("%v", err)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	coord.Start(ctx)

	var cache *ctl.ResultCache
	if *cacheSize > 0 {
		cache = ctl.NewResultCache(*cacheSize)
	}
	for i := 0; i < *agents; i++ {
		a := &ctl.Agent{Name: fmt.Sprintf("local-%d", i), API: coord, Cache: cache, WarmStart: *warmStart}
		go func() {
			if err := a.Run(ctx); err != nil {
				fmt.Fprintf(os.Stderr, "sdpsd: agent %s: %v\n", a.Name, err)
			}
		}()
	}

	// ReadHeaderTimeout bounds a client that trickles its request
	// headers, and the API caps every request body it reads.  There is
	// deliberately no WriteTimeout: event watches stream for a run's
	// lifetime and lease long polls hold their response until work is
	// queued, so a write deadline would cut both off.  They end with the
	// client's connection or the coordinator's shutdown instead.
	srv := &http.Server{
		Addr:              *listen,
		Handler:           ctl.NewHandler(coord),
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "sdpsd: listening on %s, store %s, %d in-process agent(s), %d run(s) resumed\n",
		*listen, *data, *agents, len(coord.Runs()))

	select {
	case err := <-errc:
		fatalf("serve: %v", err)
	case <-ctx.Done():
		shutCtx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
		defer cancel()
		_ = srv.Shutdown(shutCtx)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "sdpsd: "+format+"\n", args...)
	os.Exit(1)
}
