package ctl

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
)

// CoordinatorOptions tune the control plane.
type CoordinatorOptions struct {
	// LeaseTTL is how long a leased cell may go without a heartbeat
	// before it is re-queued (default 30s).
	LeaseTTL time.Duration
	// MaxAttempts bounds executions per cell — explicit failures and
	// lease expiries both count — before the run is failed (default 3).
	MaxAttempts int
	// Resolve maps experiment IDs to experiments (default core.Lookup;
	// tests inject synthetic registries).
	Resolve func(id string) (core.Experiment, error)
	// Clock is the time source (default time.Now; tests inject a manual
	// clock to drive lease expiry deterministically).
	Clock func() time.Time
}

func (o CoordinatorOptions) withDefaults() CoordinatorOptions {
	if o.LeaseTTL <= 0 {
		o.LeaseTTL = 30 * time.Second
	}
	if o.MaxAttempts <= 0 {
		o.MaxAttempts = 3
	}
	if o.Resolve == nil {
		o.Resolve = core.Lookup
	}
	if o.Clock == nil {
		o.Clock = time.Now
	}
	return o
}

// Coordinator owns the job queue, the run registry and the artifact store.
// All state transitions happen under one mutex; the work inside it is
// bookkeeping plus artefact assembly (string formatting), never a
// simulation.
type Coordinator struct {
	store *Store
	opt   CoordinatorOptions

	mu     sync.Mutex
	runs   map[string]*run
	order  []string // run IDs in submission order
	queue  []cellRef
	leases map[string]*lease
	agents map[string]*agentState
	seq    int // run sequence
	lseq   int // lease sequence
	aseq   int // agent sequence

	subs   map[int]*subscriber
	subSeq int

	// wake is closed and replaced whenever cells are queued, releasing
	// every Lease blocked on an empty queue.
	wake chan struct{}
	// blocked counts the Leases waiting on wake (tests wait on it).
	blocked atomic.Int32
	// stopped is closed when the Start context ends.
	stopped  chan struct{}
	stopOnce sync.Once
}

type cellRef struct {
	runID string
	idx   int
}

// run is the in-memory state of one run: manifest plus the enumerated
// cells and their collected results.
type run struct {
	m       RunManifest
	exp     core.Experiment
	opts    core.Options
	cells   []core.Cell
	results [][]byte
	done    int
	status  []CellStatus
	agent   []string // last agent to touch each cell
}

type lease struct {
	id      string
	runID   string
	idx     int
	agentID string
	expires time.Time
}

type agentState struct {
	id       string
	name     string
	lastSeen time.Time
}

type subscriber struct {
	runID string // "" = all runs
	ch    chan Event
}

// NewCoordinator opens the store's runs and resumes every non-terminal
// one: cells with a stored result are reloaded from the object store, the
// rest are re-queued, and the write-ahead journal is replayed on top.  A
// live run's manifest is written only at submit, so the journal is what
// carries its completed cells, counted attempts, leases and registered
// agents across the restart.  A crash therefore loses at most the
// in-flight cell executions, never completed results or counted attempts.
func NewCoordinator(store *Store, opt CoordinatorOptions) (*Coordinator, error) {
	c := &Coordinator{
		store:   store,
		opt:     opt.withDefaults(),
		runs:    map[string]*run{},
		leases:  map[string]*lease{},
		agents:  map[string]*agentState{},
		subs:    map[int]*subscriber{},
		wake:    make(chan struct{}),
		stopped: make(chan struct{}),
	}
	manifests, err := store.LoadRuns()
	if err != nil {
		return nil, err
	}
	for _, m := range manifests {
		if err := c.resume(m); err != nil {
			return nil, err
		}
	}
	if err := c.replayJournal(); err != nil {
		return nil, err
	}
	if err := c.settleResumed(); err != nil {
		return nil, err
	}
	return c, nil
}

// resume rebuilds one run's in-memory state from its manifest.
func (c *Coordinator) resume(m *RunManifest) error {
	var n int
	if _, err := fmt.Sscanf(m.ID, "run-%d", &n); err == nil && n > c.seq {
		c.seq = n
	}
	r := &run{m: *m}
	c.runs[m.ID] = r
	c.order = append(c.order, m.ID)

	exp, o, err := validateSpec(c.opt.Resolve, m.Spec)
	if err != nil {
		if !r.m.Status.Terminal() {
			r.m.Status = RunFailed
			r.m.Error = fmt.Sprintf("resume: %v", err)
			return c.store.SaveRun(&r.m)
		}
		return nil // terminal record of an experiment this binary no longer knows
	}
	r.exp, r.opts = exp, o
	r.cells = exp.Cells(o)
	if len(r.cells) != len(r.m.Cells) {
		r.m.Status = RunFailed
		r.m.Error = fmt.Sprintf("resume: experiment %s now enumerates %d cells, manifest has %d",
			m.Spec.Experiment, len(r.cells), len(r.m.Cells))
		return c.store.SaveRun(&r.m)
	}
	r.results = make([][]byte, len(r.cells))
	r.status = make([]CellStatus, len(r.cells))
	r.agent = make([]string, len(r.cells))
	if r.m.Status.Terminal() {
		// Terminal runs never assemble again: status comes straight from
		// the manifest and their objects stay untouched (a corrupt one
		// surfaces on Artifact fetch, not at startup).
		for i := range r.m.Cells {
			if r.m.Cells[i].ResultSHA != "" {
				r.status[i] = CellDone
				r.done++
			} else {
				r.status[i] = CellPending
			}
		}
		return nil
	}
	dirty := false
	for i := range r.m.Cells {
		r.status[i] = CellPending
		sha := r.m.Cells[i].ResultSHA
		if sha == "" {
			continue
		}
		data, err := c.store.GetObject(sha)
		switch {
		case err == nil:
			r.results[i] = data
			r.status[i] = CellDone
			r.done++
		case errors.Is(err, ErrCorrupt):
			// Quarantine the bad object and recompute the cell instead
			// of refusing to resume the run.
			if qerr := c.store.QuarantineObject(sha); qerr != nil {
				return fmt.Errorf("resume %s: %w", m.ID, qerr)
			}
			r.m.Cells[i].ResultSHA = ""
			dirty = true
		case errors.Is(err, ErrNotFound):
			// The result object vanished (e.g. a partial restore):
			// recompute the cell.
			r.m.Cells[i].ResultSHA = ""
			dirty = true
		default:
			return fmt.Errorf("resume %s: %w", m.ID, err)
		}
	}
	if dirty {
		if err := c.store.SaveRun(&r.m); err != nil {
			return err
		}
	}
	if r.done == len(r.cells) {
		// Crashed between the last cell and assembly.
		return c.finishLocked(r)
	}
	for i := range r.cells {
		if r.status[i] == CellPending {
			c.queue = append(c.queue, cellRef{runID: m.ID, idx: i})
		}
	}
	return nil
}

// Start runs the lease-expiry sweeper until ctx is done.  Sweeps also
// happen opportunistically on every Lease/Heartbeat, so Start is only
// needed to reclaim leases while no agent calls in.  When ctx ends, every
// blocked Lease returns at once.
func (c *Coordinator) Start(ctx context.Context) {
	go func() {
		t := time.NewTicker(c.opt.LeaseTTL / 2)
		defer t.Stop()
		for {
			select {
			case <-ctx.Done():
				c.stopOnce.Do(func() { close(c.stopped) })
				return
			case <-t.C:
				c.mu.Lock()
				c.sweepLocked(c.opt.Clock())
				c.mu.Unlock()
			}
		}
	}()
}

// Submit validates the spec, enumerates its cells once, persists the
// manifest and queues every cell.
func (c *Coordinator) Submit(spec RunSpec) (RunInfo, error) {
	spec, err := spec.Normalize()
	if err != nil {
		return RunInfo{}, err
	}
	exp, o, err := validateSpec(c.opt.Resolve, spec)
	if err != nil {
		return RunInfo{}, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.seq++
	cells := exp.Cells(o)
	r := &run{
		m: RunManifest{
			ID:     shortID("run", c.seq),
			Spec:   spec,
			Status: RunQueued,
			Cells:  make([]CellManifest, len(cells)),
		},
		exp:     exp,
		opts:    o,
		cells:   cells,
		results: make([][]byte, len(cells)),
		status:  make([]CellStatus, len(cells)),
		agent:   make([]string, len(cells)),
	}
	for i := range cells {
		r.m.Cells[i].ID = cells[i].ID
		r.status[i] = CellPending
	}
	if err := c.store.SaveRun(&r.m); err != nil {
		return RunInfo{}, err
	}
	c.runs[r.m.ID] = r
	c.order = append(c.order, r.m.ID)
	for i := range r.cells {
		c.queue = append(c.queue, cellRef{runID: r.m.ID, idx: i})
	}
	c.wakeLocked()
	c.emitLocked(Event{Type: "run", RunID: r.m.ID, Status: r.m.Status, Total: len(r.cells)})
	return c.infoLocked(r, false), nil
}

// Runs snapshots every run in submission order.
func (c *Coordinator) Runs() []RunInfo {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]RunInfo, 0, len(c.order))
	for _, id := range c.order {
		out = append(out, c.infoLocked(c.runs[id], false))
	}
	return out
}

// Run snapshots one run, including per-cell detail.
func (c *Coordinator) Run(id string) (RunInfo, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	r, ok := c.runs[id]
	if !ok {
		return RunInfo{}, fmt.Errorf("%w: run %s", ErrNotFound, id)
	}
	return c.infoLocked(r, true), nil
}

// Artifact returns a finished run's canonical artifact bytes.
func (c *Coordinator) Artifact(id string) ([]byte, error) {
	c.mu.Lock()
	r, ok := c.runs[id]
	var sha string
	var status RunStatus
	if ok {
		sha, status = r.m.ArtifactSHA, r.m.Status
	}
	c.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w: run %s", ErrNotFound, id)
	}
	if sha == "" {
		return nil, fmt.Errorf("ctl: run %s has no artifact (status %s)", id, status)
	}
	return c.store.GetObject(sha)
}

// Manifest returns a copy of a run's in-memory manifest — the cell →
// result-object map read-side consumers (sdpsreport --from, sdpsctl fetch
// --dir) use to re-assemble artifacts from the store.  It is current even
// mid-run, when the on-disk manifest still shows the run as submitted.
func (c *Coordinator) Manifest(id string) (*RunManifest, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	r, ok := c.runs[id]
	if !ok {
		return nil, fmt.Errorf("%w: run %s", ErrNotFound, id)
	}
	m := r.m
	m.Cells = append([]CellManifest(nil), r.m.Cells...)
	return &m, nil
}

// Object serves a stored object (cell result or artifact) by address.
func (c *Coordinator) Object(sha string) ([]byte, error) {
	return c.store.GetObject(sha)
}

// Abort cancels a run: queued cells are dropped, live leases are revoked
// (their late Complete/Fail calls get ErrStaleLease, so nothing is
// re-queued) and the run moves to RunFailed with an "aborted" reason.
// Aborting a terminal run is a conflict.
func (c *Coordinator) Abort(id, reason string) (RunInfo, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	r, ok := c.runs[id]
	if !ok {
		return RunInfo{}, fmt.Errorf("%w: run %s", ErrNotFound, id)
	}
	if r.m.Status.Terminal() {
		return RunInfo{}, fmt.Errorf("%w: run %s is already %s", ErrConflict, id, r.m.Status)
	}
	msg := "aborted"
	if reason != "" {
		msg += ": " + reason
	}
	c.journal(JournalEntry{Op: opAbort, Run: id, Reason: msg})
	for lid, l := range c.leases {
		if l.runID == id {
			delete(c.leases, lid)
		}
	}
	if err := c.failLocked(r, msg); err != nil {
		return RunInfo{}, err
	}
	return c.infoLocked(r, true), nil
}

// Register implements AgentAPI.
func (c *Coordinator) Register(name string) (string, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.aseq++
	id := shortID("agent", c.aseq)
	if name == "" {
		name = id
	}
	c.journal(JournalEntry{Op: opAgent, Agent: id, Name: name})
	c.agents[id] = &agentState{id: id, name: name, lastSeen: c.opt.Clock()}
	return id, nil
}

// Heartbeat implements AgentAPI: refreshes the agent and extends its
// leases by one TTL.
func (c *Coordinator) Heartbeat(agentID string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	a, ok := c.agents[agentID]
	if !ok {
		return fmt.Errorf("%w: agent %s", ErrNotFound, agentID)
	}
	now := c.opt.Clock()
	a.lastSeen = now
	for _, l := range c.leases {
		if l.agentID == agentID {
			l.expires = now.Add(c.opt.LeaseTTL)
		}
	}
	c.sweepLocked(now)
	return nil
}

// Lease implements AgentAPI.  Each attempt sweeps expired leases and
// hands the head of the queue to the agent under a fresh TTL.  On an empty
// queue it blocks, without holding c.mu, until cells are queued, wait
// passes, ctx ends or the Start context ends; only the first wakes it to
// try again.  wait <= 0 never blocks.
func (c *Coordinator) Lease(ctx context.Context, agentID string, wait time.Duration) (*LeaseTask, error) {
	var timeout <-chan time.Time
	for {
		c.mu.Lock()
		task, wake, err := c.leaseLocked(agentID)
		c.mu.Unlock()
		if task != nil || err != nil || wait <= 0 {
			return task, err
		}
		if timeout == nil {
			t := time.NewTimer(wait)
			defer t.Stop()
			timeout = t.C
		}
		c.blocked.Add(1)
		woken := false
		select {
		case <-wake:
			woken = true
		case <-timeout:
		case <-ctx.Done():
		case <-c.stopped:
		}
		c.blocked.Add(-1)
		if !woken {
			return nil, nil
		}
	}
}

// leaseLocked makes one lease attempt.  On an empty queue it returns the
// current wake channel, which the next queued cell closes.
func (c *Coordinator) leaseLocked(agentID string) (*LeaseTask, <-chan struct{}, error) {
	a, ok := c.agents[agentID]
	if !ok {
		return nil, nil, fmt.Errorf("%w: agent %s", ErrNotFound, agentID)
	}
	now := c.opt.Clock()
	a.lastSeen = now
	c.sweepLocked(now)
	for len(c.queue) > 0 {
		ref := c.queue[0]
		c.queue = c.queue[1:]
		r := c.runs[ref.runID]
		if r == nil || r.m.Status.Terminal() || r.status[ref.idx] != CellPending {
			continue // dropped run, or a cell completed by a slow earlier lease
		}
		c.lseq++
		l := &lease{
			id:      shortID("lease", c.lseq),
			runID:   ref.runID,
			idx:     ref.idx,
			agentID: agentID,
			expires: now.Add(c.opt.LeaseTTL),
		}
		c.journal(JournalEntry{Op: opLease, Lease: l.id, Agent: agentID, Run: ref.runID, Cell: ref.idx})
		c.leases[l.id] = l
		r.status[ref.idx] = CellLeased
		r.agent[ref.idx] = a.name
		if r.m.Status == RunQueued {
			r.m.Status = RunRunning
			c.emitLocked(Event{Type: "run", RunID: r.m.ID, Status: r.m.Status, Done: r.done, Total: len(r.cells)})
		}
		c.emitLocked(Event{
			Type: "cell", RunID: r.m.ID, Status: r.m.Status,
			Cell: r.cells[ref.idx].ID, CellStatus: CellLeased, Agent: a.name,
			Done: r.done, Total: len(r.cells),
		})
		return &LeaseTask{
			LeaseID:   l.id,
			RunID:     ref.runID,
			Spec:      r.m.Spec,
			CellIndex: ref.idx,
			CellID:    r.cells[ref.idx].ID,
			TTL:       c.opt.LeaseTTL,
		}, nil, nil
	}
	return nil, c.wake, nil
}

// Complete implements AgentAPI: stores the cell result and, when it was
// the last one, assembles and stores the artifact.  The journal entry is
// the completion's only durable record until the run's manifest is written
// at a terminal status, so an append error fails the call before anything
// changes.  The lease stays live; agents do not retry, so the cell is
// re-queued once the lease expires, one TTL after its agent's last
// heartbeat (a heartbeat extends every lease the agent holds).
func (c *Coordinator) Complete(leaseID string, result []byte) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	l, ok := c.leases[leaseID]
	if !ok {
		return ErrStaleLease
	}
	r := c.runs[l.runID]
	if r.m.Status.Terminal() || r.status[l.idx] == CellDone {
		delete(c.leases, leaseID)
		return ErrStaleLease
	}
	sha, err := c.store.PutObject(result)
	if err != nil {
		// Keep the lease: the cell stays recoverable — once its agent
		// stops heartbeating, the TTL expires and the cell is re-queued.
		return err
	}
	// Journal after the object exists but before any memory mutation: a
	// restart replays this entry and recovers the result from the store.
	if err := c.store.AppendJournal(JournalEntry{Op: opComplete, Lease: leaseID, Run: l.runID, Cell: l.idx, SHA: sha}); err != nil {
		return err
	}
	delete(c.leases, leaseID)
	r.results[l.idx] = result
	r.status[l.idx] = CellDone
	r.m.Cells[l.idx].ResultSHA = sha
	r.done++
	c.emitLocked(Event{
		Type: "cell", RunID: r.m.ID, Status: r.m.Status,
		Cell: r.cells[l.idx].ID, CellStatus: CellDone, Agent: r.agent[l.idx],
		Done: r.done, Total: len(r.cells),
	})
	if r.done == len(r.cells) {
		return c.finishLocked(r)
	}
	return nil
}

// Fail implements AgentAPI: counts the attempt and either re-queues the
// cell or fails the run.
func (c *Coordinator) Fail(leaseID string, reason string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	l, ok := c.leases[leaseID]
	if !ok {
		return ErrStaleLease
	}
	r := c.runs[l.runID]
	if r.m.Status.Terminal() || r.status[l.idx] == CellDone {
		delete(c.leases, leaseID)
		return ErrStaleLease
	}
	return c.retryLocked(r, l, reason)
}

// retryLocked counts one failed attempt for a leased cell, drops the lease
// and re-queues the cell or fails the run.  The journal entry is the
// attempt's only durable record until a terminal manifest write, so an
// append error is returned before anything changes: the lease stays, and
// once it expires every sweep tries to count the attempt again.
func (c *Coordinator) retryLocked(r *run, l *lease, reason string) error {
	idx := l.idx
	attempts := r.m.Cells[idx].Attempts + 1
	if err := c.store.AppendJournal(JournalEntry{Op: opFail, Run: r.m.ID, Cell: idx, Attempts: attempts, Reason: reason}); err != nil {
		return err
	}
	delete(c.leases, l.id)
	r.m.Cells[idx].Attempts = attempts
	if attempts >= c.opt.MaxAttempts {
		return c.failLocked(r, fmt.Sprintf("cell %s failed %d times: last: %s",
			r.cells[idx].ID, attempts, reason))
	}
	r.status[idx] = CellPending
	c.queue = append(c.queue, cellRef{runID: r.m.ID, idx: idx})
	c.wakeLocked()
	c.emitLocked(Event{
		Type: "cell", RunID: r.m.ID, Status: r.m.Status,
		Cell: r.cells[idx].ID, CellStatus: CellPending, Agent: r.agent[idx],
		Done: r.done, Total: len(r.cells), Error: reason,
	})
	return nil
}

// wakeLocked releases every Lease blocked on an empty queue.
func (c *Coordinator) wakeLocked() {
	close(c.wake)
	c.wake = make(chan struct{})
}

// sweepLocked re-queues the cells of every expired lease (retryLocked
// wakes blocked Leases).
func (c *Coordinator) sweepLocked(now time.Time) {
	for id, l := range c.leases {
		if !now.After(l.expires) {
			continue
		}
		r := c.runs[l.runID]
		if r == nil || r.m.Status.Terminal() || r.status[l.idx] != CellLeased {
			delete(c.leases, id)
			continue
		}
		// On a journal error retryLocked keeps the lease, so the next
		// sweep counts the attempt again.
		_ = c.retryLocked(r, l, fmt.Sprintf("lease expired (agent %s gone?)", r.agent[l.idx]))
	}
}

// finishLocked assembles a fully-collected run into its artifact.
func (c *Coordinator) finishLocked(r *run) error {
	out, err := r.exp.Assemble(r.opts, r.results)
	if err != nil {
		return c.failLocked(r, fmt.Sprintf("assemble: %v", err))
	}
	data, err := core.NewArtifact(r.exp, r.opts, out).Encode()
	if err != nil {
		return c.failLocked(r, fmt.Sprintf("encode artifact: %v", err))
	}
	sha, err := c.store.PutObject(data)
	if err != nil {
		return c.failLocked(r, fmt.Sprintf("store artifact: %v", err))
	}
	r.m.ArtifactSHA = sha
	r.m.Status = RunDone
	c.emitLocked(Event{Type: "run", RunID: r.m.ID, Status: RunDone, Done: r.done, Total: len(r.cells)})
	return c.store.SaveRun(&r.m)
}

// failLocked moves a run to the failed state and drops its queued cells.
func (c *Coordinator) failLocked(r *run, msg string) error {
	r.m.Status = RunFailed
	r.m.Error = msg
	kept := c.queue[:0]
	for _, ref := range c.queue {
		if ref.runID != r.m.ID {
			kept = append(kept, ref)
		}
	}
	c.queue = kept
	c.emitLocked(Event{Type: "run", RunID: r.m.ID, Status: RunFailed, Done: r.done, Total: len(r.cells), Error: msg})
	return c.store.SaveRun(&r.m)
}

// infoLocked snapshots a run.
func (c *Coordinator) infoLocked(r *run, detail bool) RunInfo {
	info := RunInfo{
		ID:          r.m.ID,
		Spec:        r.m.Spec,
		Status:      r.m.Status,
		Error:       r.m.Error,
		CellsTotal:  len(r.m.Cells),
		CellsDone:   r.done,
		ArtifactSHA: r.m.ArtifactSHA,
	}
	if detail {
		info.Cells = make([]CellInfo, len(r.m.Cells))
		for i := range r.m.Cells {
			st := CellPending
			if len(r.status) > i && r.status[i] != "" {
				st = r.status[i]
			} else if r.m.Cells[i].ResultSHA != "" {
				st = CellDone
			}
			info.Cells[i] = CellInfo{
				ID:       r.m.Cells[i].ID,
				Status:   st,
				Attempts: r.m.Cells[i].Attempts,
			}
			if len(r.agent) > i {
				info.Cells[i].Agent = r.agent[i]
			}
		}
	}
	return info
}

// Subscribe returns a channel of progress events for one run (or all runs
// when runID is "").  The channel is buffered and lossy under backpressure:
// a slow watcher drops intermediate events, never blocks the control
// plane.  Call the returned cancel to unsubscribe.
func (c *Coordinator) Subscribe(runID string) (<-chan Event, func()) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.subSeq++
	id := c.subSeq
	sub := &subscriber{runID: runID, ch: make(chan Event, 256)}
	c.subs[id] = sub
	return sub.ch, func() {
		c.mu.Lock()
		defer c.mu.Unlock()
		if s, ok := c.subs[id]; ok {
			delete(c.subs, id)
			close(s.ch)
		}
	}
}

func (c *Coordinator) emitLocked(ev Event) {
	terminal := ev.Type == "run" && ev.Status.Terminal()
	for _, s := range c.subs {
		if s.runID != "" && s.runID != ev.RunID {
			continue
		}
		select {
		case s.ch <- ev:
		default:
			// Lossy for progress events: drop rather than stall the
			// coordinator.  Terminal run events must be delivered or
			// watchers hang, so evict the oldest queued event instead;
			// emits are serialized by c.mu, so after draining one slot
			// the send cannot fail.
			if terminal {
				select {
				case <-s.ch:
				default:
				}
				select {
				case s.ch <- ev:
				default:
				}
			}
		}
	}
}

// AgentNames lists registered agents ("name (id)") for status displays.
func (c *Coordinator) AgentNames() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]string, 0, len(c.agents))
	for _, a := range c.agents {
		out = append(out, fmt.Sprintf("%s (%s)", a.name, a.id))
	}
	sort.Strings(out)
	return out
}
