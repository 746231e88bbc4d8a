package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand/v2"
	"net/http/httptest"
	"time"

	"repro/internal/core"
	"repro/internal/ctl"
	// Registers the grid experiments (table1 among them).
	_ "repro/internal/scenario"
)

// The deployment is the smallest sdpsd runs (sdpsd -agents 1): one
// in-process agent with a result cache.  The agent keeps sdpsd's idle
// re-poll period (the agent default, ctlPoll), so an operation includes
// the wait until the agent notices the submitted run, as it does for a
// user of sdpsd.  With two agents the wait is for the first of them to
// re-poll, and their relative phase drifts from run to run; it moved
// op_p50_ms between 21 and 29 ms over runs of one seed.
//
// An idle agent re-polls from the moment the previous run ended, so a
// client that resubmits at once would always land at the same point of
// its period.  The client therefore thinks for a time in [0, ctlPoll)
// before each submission, which lands it anywhere in the period, as a
// user's submission does.  The think times step through the period by the
// golden ratio from a seeded start, so any run of them covers the period
// evenly: the latency quantiles then do not carry the sampling noise of
// random phases.
const ctlPoll = 50 * time.Millisecond

// ctlBench is an sdpsd-shaped deployment — coordinator, file store, HTTP
// API on a loopback port, an in-process agent — plus an HTTP client.
type ctlBench struct {
	spec   ctl.RunSpec
	srv    *httptest.Server
	client *ctl.Client
	cancel context.CancelFunc
	// agentDone is closed when the agent has exited.
	agentDone chan struct{}
	// phase is the last think time as a fraction of ctlPoll.
	phase float64
	// want is the artifact of the cold run made during set-up.
	want     []byte
	mismatch error
}

// setupCtl starts the deployment and runs Table I once cold, which fills
// the agent's result cache.
func setupCtl(seed uint64, dir string) (instance, error) {
	store, err := ctl.NewStore(dir)
	if err != nil {
		return nil, err
	}
	coord, err := ctl.NewCoordinator(store, ctl.CoordinatorOptions{})
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	b := &ctlBench{
		spec:      ctl.RunSpec{Experiment: "table1", Seed: seed, Scale: "quick"},
		srv:       httptest.NewServer(ctl.NewHandler(coord)),
		cancel:    cancel,
		agentDone: make(chan struct{}),
		phase:     rand.New(rand.NewPCG(seed, 0)).Float64(),
	}
	b.client = ctl.NewClient(b.srv.URL)
	coord.Start(ctx)
	agent := &ctl.Agent{Name: "local-0", API: coord, Cache: ctl.NewResultCache(4096)}
	go func() {
		defer close(b.agentDone)
		_ = agent.Run(ctx) // returns only once ctx is cancelled
	}()
	art, _, err := b.submit()
	if err != nil {
		b.close()
		return nil, err
	}
	b.want = art
	return b, nil
}

// submit submits the run, watches it to a terminal status and fetches its
// artifact.
func (b *ctlBench) submit() ([]byte, map[string]time.Duration, error) {
	spans := make(map[string]time.Duration, 3)
	start := time.Now()
	info, err := b.client.Submit(b.spec)
	spans["submit"] = time.Since(start)
	if err != nil {
		return nil, nil, fmt.Errorf("submit: %w", err)
	}

	start = time.Now()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	var last ctl.Event
	if err := b.client.Watch(ctx, info.ID, func(ev ctl.Event) { last = ev }); err != nil {
		return nil, nil, fmt.Errorf("watch %s: %w", info.ID, err)
	}
	spans["wait"] = time.Since(start)
	if last.Status != ctl.RunDone {
		return nil, nil, fmt.Errorf("run %s ended %s: %s", info.ID, last.Status, last.Error)
	}

	start = time.Now()
	art, err := b.client.Artifact(info.ID)
	spans["fetch"] = time.Since(start)
	if err != nil {
		return nil, nil, fmt.Errorf("fetch %s: %w", info.ID, err)
	}
	return art, spans, nil
}

func (b *ctlBench) think() {
	b.phase = math.Mod(b.phase+goldenStep, 1)
	time.Sleep(time.Duration(b.phase * float64(ctlPoll)))
}

// goldenStep is 1/φ, the step of the most even additive sequence mod 1.
const goldenStep = 0.6180339887498949

func (b *ctlBench) op() (map[string]time.Duration, error) {
	art, spans, err := b.submit()
	if err != nil {
		return nil, err
	}
	if !bytes.Equal(art, b.want) {
		if b.mismatch == nil {
			b.mismatch = fmt.Errorf("resubmitted artifact differs from the cold run's (%d vs %d bytes)", len(art), len(b.want))
		}
		return nil, b.mismatch
	}
	return spans, nil
}

// check compares the cold distributed artifact with a direct in-process
// run of the same experiment, which must be byte-identical.
func (b *ctlBench) check() error {
	if b.mismatch != nil {
		return b.mismatch
	}
	exp, opts, err := ctl.ResolveSpec(b.spec)
	if err != nil {
		return err
	}
	out, err := exp.Run(opts)
	if err != nil {
		return err
	}
	direct, err := core.NewArtifact(exp, opts, out).Encode()
	if err != nil {
		return err
	}
	if !bytes.Equal(direct, b.want) {
		return fmt.Errorf("distributed artifact (%d bytes) differs from the direct run (%d bytes)", len(b.want), len(direct))
	}
	return nil
}

// close stops the agent and the coordinator's sweeper and waits for the
// agent to exit before shutting the HTTP server down.
func (b *ctlBench) close() {
	b.cancel()
	<-b.agentDone
	b.srv.Close()
}
