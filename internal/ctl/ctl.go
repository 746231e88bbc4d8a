// Package ctl is the distributed experiment controller: a coordinator that
// turns registered experiments (internal/core) into schedulable jobs, and
// agents that execute individual experiment cells under lease.
//
// The architecture mirrors the paper's driver/SUT separation one level up:
// the coordinator owns the job queue, the run registry and the
// content-addressed artifact store; agents — in-process goroutines for
// tests and single-machine deployments, HTTP clients for real ones —
// register, heartbeat, lease cells, execute them via internal/core and
// report the canonical cell encoding back.  A dropped agent's leases
// expire and the cells are re-queued, so a run completes as long as any
// agent survives, and the assembled artefact is byte-identical to a direct
// single-process `sdpsbench` invocation with the same seed (both paths
// fold the same canonical cell encodings with the same Assemble).
//
// See DESIGN-CTL.md for the lease protocol, the store layout and the
// failure model.
package ctl

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/scenario"
)

// RunSpec is what a client submits: which experiment, at which seed and
// scale.  It is also the provenance half of the artifact encoding.
//
// Experiment names a registered experiment; alternatively Scenario carries
// a full declarative scenario spec inline, so user-defined scenarios
// travel over the wire and run distributed without being registered
// anywhere.  Replicate > 1 expands the run to one cell per
// (seed, experiment cell), scheduling replications across agents.
type RunSpec struct {
	Experiment string `json:"experiment"`
	Seed       uint64 `json:"seed,omitempty"`
	Scale      string `json:"scale,omitempty"`
	// Scenario, when non-nil, is compiled with internal/scenario instead
	// of resolving Experiment against the registry; Experiment is then
	// display-only (the scenario's name).
	Scenario *scenario.Spec `json:"scenario,omitempty"`
	// Replicate is the number of replication seeds (0 or 1 = single run).
	Replicate int `json:"replicate,omitempty"`
}

// Options resolves the spec into defaulted core options.
func (s RunSpec) Options() (core.Options, error) {
	sc, err := core.ParseScale(s.Scale)
	if err != nil {
		return core.Options{}, err
	}
	return core.Options{Seed: s.Seed, Scale: sc}.WithDefaults(), nil
}

// Normalize returns the spec with defaults made explicit, so persisted
// manifests and artifacts name their exact configuration.
func (s RunSpec) Normalize() (RunSpec, error) {
	o, err := s.Options()
	if err != nil {
		return s, err
	}
	s.Seed = o.Seed
	s.Scale = o.Scale.String()
	if s.Replicate < 0 {
		return s, fmt.Errorf("ctl: replicate must be >= 0, got %d", s.Replicate)
	}
	if s.Replicate == 1 {
		s.Replicate = 0 // one seed is a plain run
	}
	if s.Scenario != nil {
		if err := s.Scenario.Validate(); err != nil {
			return s, err
		}
		if s.Replicate > 1 && s.Scenario.Seeds > 1 {
			return s, fmt.Errorf("ctl: scenario %s already declares %d replication seeds; drop the replicate flag",
				s.Scenario.Name, s.Scenario.Seeds)
		}
		s.Experiment = s.Scenario.Name
	}
	return s, nil
}

// RunStatus is a run's lifecycle state.
type RunStatus string

const (
	RunQueued  RunStatus = "queued"  // submitted, no cell finished yet
	RunRunning RunStatus = "running" // at least one cell done or leased
	RunDone    RunStatus = "done"    // all cells done, artifact stored
	RunFailed  RunStatus = "failed"  // a cell exhausted its attempts or assembly failed
)

// Terminal reports whether the status can no longer change.
func (s RunStatus) Terminal() bool { return s == RunDone || s == RunFailed }

// CellStatus is one cell's scheduling state.
type CellStatus string

const (
	CellPending CellStatus = "pending" // queued, waiting for an agent
	CellLeased  CellStatus = "leased"  // held by an agent under TTL
	CellDone    CellStatus = "done"    // result stored
)

// CellManifest is the persisted state of one cell within a run manifest.
type CellManifest struct {
	ID string `json:"id"`
	// ResultSHA addresses the cell's canonical result in the object
	// store; non-empty means done (and is what makes runs resumable).
	ResultSHA string `json:"result_sha,omitempty"`
	// Attempts counts executions that did not produce a result: explicit
	// agent failures and expired leases.
	Attempts int `json:"attempts,omitempty"`
}

// RunManifest is the persisted state of a run — everything the coordinator
// needs to resume it after a restart.  The coordinator writes it at submit,
// at a terminal status and when a restart folds the journal in; in between,
// completed cells, counted attempts, leases and registered agents live in
// the write-ahead journal (journal.go), which a restart replays over the
// resumed manifests.
type RunManifest struct {
	ID          string         `json:"id"`
	Spec        RunSpec        `json:"spec"`
	Status      RunStatus      `json:"status"`
	Error       string         `json:"error,omitempty"`
	Cells       []CellManifest `json:"cells"`
	ArtifactSHA string         `json:"artifact_sha,omitempty"`
}

// CellInfo is one cell's live state in a status snapshot.
type CellInfo struct {
	ID       string     `json:"id"`
	Status   CellStatus `json:"status"`
	Agent    string     `json:"agent,omitempty"`
	Attempts int        `json:"attempts,omitempty"`
}

// RunInfo is the status snapshot served to clients.
type RunInfo struct {
	ID          string     `json:"id"`
	Spec        RunSpec    `json:"spec"`
	Status      RunStatus  `json:"status"`
	Error       string     `json:"error,omitempty"`
	CellsTotal  int        `json:"cells_total"`
	CellsDone   int        `json:"cells_done"`
	Cells       []CellInfo `json:"cells,omitempty"`
	ArtifactSHA string     `json:"artifact_sha,omitempty"`
}

// LeaseTask is the work order an agent receives: one cell of one run.
// CellIndex addresses the cell in the experiment's deterministic
// enumeration; CellID double-checks that agent and coordinator agree on it
// (it catches version skew between their binaries).
type LeaseTask struct {
	LeaseID   string  `json:"lease_id"`
	RunID     string  `json:"run_id"`
	Spec      RunSpec `json:"spec"`
	CellIndex int     `json:"cell_index"`
	CellID    string  `json:"cell_id"`
	// TTL is the lease's time-to-live: how long the agent may go without
	// a heartbeat before the coordinator re-queues the cell.  Agents cap
	// their heartbeat period and error backoff to a fraction of it.
	TTL time.Duration `json:"ttl,omitempty"`
}

// Event is one progress notification, streamed to watchers over SSE.
type Event struct {
	Type string `json:"type"` // "run" (status change) | "cell"
	// RunID names the run the event belongs to.
	RunID  string    `json:"run_id"`
	Status RunStatus `json:"status"`
	// Cell/CellStatus/Agent are set on "cell" events.
	Cell       string     `json:"cell,omitempty"`
	CellStatus CellStatus `json:"cell_status,omitempty"`
	Agent      string     `json:"agent,omitempty"`
	Done       int        `json:"done"`
	Total      int        `json:"total"`
	Error      string     `json:"error,omitempty"`
}

// ErrStaleLease is returned when a Complete/Fail names a lease the
// coordinator no longer honours (expired and re-queued, or the run ended).
// Agents treat it as "discard the result and move on".
var ErrStaleLease = errors.New("ctl: stale lease")

// ErrNotFound is returned for unknown run, agent or lease IDs.
var ErrNotFound = errors.New("ctl: not found")

// ErrConflict is returned when an operation does not apply to the target's
// current state (e.g. aborting a run that already finished).
var ErrConflict = errors.New("ctl: conflict")

// ErrCorrupt is returned when a stored object's bytes no longer hash to
// their address.  The coordinator reacts by quarantining the object and
// recomputing the owning cell instead of failing the run.
var ErrCorrupt = errors.New("ctl: corrupt object")

// AgentAPI is the coordinator surface an agent needs.  *Coordinator
// implements it for in-process agents; *Client implements it over
// HTTP+JSON for remote ones.
type AgentAPI interface {
	// Register announces the agent and returns its coordinator-assigned ID.
	Register(name string) (string, error)
	// Heartbeat refreshes the agent's liveness and extends its leases.
	Heartbeat(agentID string) error
	// Lease asks for work.  It returns a task as soon as one is queued,
	// or nil once wait has passed with none; wait <= 0 does not block.  It
	// also returns nil early when ctx ends, or when the coordinator shuts
	// down.
	Lease(ctx context.Context, agentID string, wait time.Duration) (*LeaseTask, error)
	// Complete delivers a cell's canonical result encoding.
	Complete(leaseID string, result []byte) error
	// Fail reports that the cell's execution errored.
	Fail(leaseID string, reason string) error
}

// ResolveSpec resolves a persisted RunSpec into its experiment and
// defaulted options against the process experiment registry — the same
// resolution path the coordinator and agents use, exported for read-side
// consumers (internal/compare) that re-assemble artifacts from stored cell
// results without executing anything.
func ResolveSpec(spec RunSpec) (core.Experiment, core.Options, error) {
	return validateSpec(core.Lookup, spec)
}

// validateSpec resolves the spec into a runnable experiment: an inline
// scenario compiles through internal/scenario, anything else resolves
// against the experiment registry, and a replication request wraps the
// result in core.Replicated (one cell per seed).  Coordinator and agents
// share this one resolution path, which is what guarantees they agree on
// the cell enumeration for any spec that travels the wire.
func validateSpec(resolve func(string) (core.Experiment, error), spec RunSpec) (core.Experiment, core.Options, error) {
	var exp core.Experiment
	var err error
	if spec.Scenario != nil {
		exp, err = scenario.Compile(*spec.Scenario)
	} else {
		exp, err = resolve(spec.Experiment)
	}
	if err != nil {
		return core.Experiment{}, core.Options{}, err
	}
	o, err := spec.Options()
	if err != nil {
		return core.Experiment{}, core.Options{}, err
	}
	if spec.Replicate > 1 {
		exp = core.Replicated(exp, spec.Replicate)
	}
	return exp, o, nil
}

// shortID formats sequence numbers as stable, sortable IDs.
func shortID(prefix string, n int) string { return fmt.Sprintf("%s-%04d", prefix, n) }
