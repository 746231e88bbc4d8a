package ctl

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// The coordinator's write-ahead journal.
//
// A run's manifest is written whole only at submit, at a terminal status
// and when a restart folds the journal in.  Every transition in between —
// a completed cell, a counted attempt, a live lease, a registered agent, a
// requested abort — is one appended journal line: the coordinator appends
// the entry *before* mutating memory, and a restart replays the journal
// over the resumed manifests.  Each fact thus has one durable record while
// the run is live.  Appends are plain writes with no fsync, so the
// guarantee is process-crash durability, not power-loss durability.
//
// The format is JSON Lines (one JournalEntry per line) in
// <data>/journal.jsonl.  Appends are O_APPEND writes of complete lines; a
// crash mid-append leaves at most one torn final line, which LoadJournal
// treats as the end of the journal.  Replay is idempotent: entries already
// reflected in a manifest (a complete whose SHA the manifest records, an
// attempt count it already reached) are no-ops, so journal and manifest
// can overlap arbitrarily.  After replay the journal is compacted down to
// the still-volatile state (registered agents, live leases).
//
// A complete or fail entry is the only mid-run record of its fact, so its
// append error fails the Complete or Fail call before memory changes.  The
// agent, lease and abort appends are best-effort: a lost registration or
// lease costs a re-registration or a duplicate execution after a restart,
// and an abort also writes the failed run's manifest.  Losing the journal
// altogether re-executes the finished cells of unfinished runs; the
// results are the same deterministic bytes, so nothing is corrupted.

// Journal operations.
const (
	opAgent    = "agent"    // an agent registered
	opLease    = "lease"    // a cell was leased
	opComplete = "complete" // a cell result was stored
	opFail     = "fail"     // an attempt was counted (pre-requeue/fail)
	opAbort    = "abort"    // a run abort was requested
)

// JournalEntry is one journaled state transition.
type JournalEntry struct {
	Op       string `json:"op"`
	Agent    string `json:"agent,omitempty"`
	Name     string `json:"name,omitempty"`
	Lease    string `json:"lease,omitempty"`
	Run      string `json:"run,omitempty"`
	Cell     int    `json:"cell,omitempty"`
	Attempts int    `json:"attempts,omitempty"`
	SHA      string `json:"sha,omitempty"`
	Reason   string `json:"reason,omitempty"`
}

func (s *Store) journalPath() string { return filepath.Join(s.dir, "journal.jsonl") }

// AppendJournal appends one entry to the write-ahead journal.  A failed
// write (a full disk, say) may leave part of the line behind; it is cut
// off again, so a later append never merges with the fragment into one
// undecodable line that would end the journal for LoadJournal.
func (s *Store) AppendJournal(e JournalEntry) error {
	s.jmu.Lock()
	defer s.jmu.Unlock()
	if s.jf == nil {
		f, err := os.OpenFile(s.journalPath(), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return fmt.Errorf("ctl: open journal: %w", err)
		}
		fi, err := f.Stat()
		if err != nil {
			f.Close()
			return fmt.Errorf("ctl: open journal: %w", err)
		}
		s.jf, s.jsize = f, fi.Size()
	}
	data, err := json.Marshal(e)
	if err != nil {
		return fmt.Errorf("ctl: journal entry: %w", err)
	}
	n, err := s.jf.Write(append(data, '\n'))
	if err != nil {
		err = fmt.Errorf("ctl: append journal: %w", err)
		if terr := os.Truncate(s.journalPath(), s.jsize); terr != nil {
			err = errors.Join(err, fmt.Errorf("ctl: cut torn journal line: %w", terr))
		}
		s.jf.Close()
		s.jf = nil // reopened on the next append
		return err
	}
	s.jsize += int64(n)
	return nil
}

// LoadJournal reads every complete entry.  A missing journal is empty; an
// undecodable line (the torn tail of a crash mid-append) ends the journal
// there.
func (s *Store) LoadJournal() ([]JournalEntry, error) {
	data, err := os.ReadFile(s.journalPath())
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, fmt.Errorf("ctl: load journal: %w", err)
	}
	var out []JournalEntry
	for _, line := range bytes.Split(data, []byte{'\n'}) {
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		var e JournalEntry
		if err := json.Unmarshal(line, &e); err != nil {
			break // torn tail: everything before it already replayed
		}
		out = append(out, e)
	}
	return out, nil
}

// CompactJournal atomically replaces the journal with the given entries
// (the still-volatile state after a replay has folded the rest into
// manifests).
func (s *Store) CompactJournal(entries []JournalEntry) error {
	s.jmu.Lock()
	defer s.jmu.Unlock()
	if s.jf != nil {
		s.jf.Close()
		s.jf = nil
	}
	var buf bytes.Buffer
	for _, e := range entries {
		data, err := json.Marshal(e)
		if err != nil {
			return fmt.Errorf("ctl: journal entry: %w", err)
		}
		buf.Write(data)
		buf.WriteByte('\n')
	}
	tmp := s.journalPath() + ".tmp"
	if err := os.WriteFile(tmp, buf.Bytes(), 0o644); err != nil {
		return fmt.Errorf("ctl: compact journal: %w", err)
	}
	if err := os.Rename(tmp, s.journalPath()); err != nil {
		return fmt.Errorf("ctl: compact journal: %w", err)
	}
	return nil
}

// journal appends a best-effort write-ahead entry: the agent, lease and
// abort entries, whose loss a restart survives (see the package note).
func (c *Coordinator) journal(e JournalEntry) { _ = c.store.AppendJournal(e) }

// replayJournal applies the write-ahead journal over the state resume()
// rebuilt from manifests.  Called once from NewCoordinator, before any
// concurrent access.
func (c *Coordinator) replayJournal() error {
	entries, err := c.store.LoadJournal()
	if err != nil {
		return err
	}
	now := c.opt.Clock()
	dirty := map[string]bool{}
	for _, e := range entries {
		switch e.Op {
		case opAgent:
			var n int
			if _, err := fmt.Sscanf(e.Agent, "agent-%d", &n); err == nil && n > c.aseq {
				c.aseq = n
			}
			if _, ok := c.agents[e.Agent]; !ok {
				c.agents[e.Agent] = &agentState{id: e.Agent, name: e.Name, lastSeen: now}
			}
		case opLease:
			var n int
			if _, err := fmt.Sscanf(e.Lease, "lease-%d", &n); err == nil && n > c.lseq {
				c.lseq = n
			}
			r := c.runs[e.Run]
			if r == nil || r.m.Status.Terminal() || e.Cell < 0 || e.Cell >= len(r.status) {
				continue
			}
			if r.status[e.Cell] == CellDone {
				continue
			}
			// Restore the lease object but leave the cell pending and
			// queued: a surviving agent's Complete against the old lease
			// ID still lands, while a dead agent costs nothing — the cell
			// is leased again from the queue, and the duplicate execution
			// is harmless because cell results are deterministic bytes
			// (the second Complete just gets ErrStaleLease).
			c.leases[e.Lease] = &lease{
				id: e.Lease, runID: e.Run, idx: e.Cell,
				agentID: e.Agent, expires: now.Add(c.opt.LeaseTTL),
			}
		case opComplete:
			delete(c.leases, e.Lease)
			r := c.runs[e.Run]
			if r == nil || e.Cell < 0 || e.Cell >= len(r.status) {
				continue
			}
			if r.m.Status.Terminal() || r.status[e.Cell] == CellDone {
				continue
			}
			data, err := c.store.GetObject(e.SHA)
			if err != nil {
				if errors.Is(err, ErrCorrupt) {
					_ = c.store.QuarantineObject(e.SHA)
				}
				continue // result lost or corrupt: recompute the cell
			}
			r.results[e.Cell] = data
			r.status[e.Cell] = CellDone
			r.m.Cells[e.Cell].ResultSHA = e.SHA
			r.done++
			dirty[e.Run] = true
		case opFail:
			for lid, l := range c.leases {
				if l.runID == e.Run && l.idx == e.Cell {
					delete(c.leases, lid)
				}
			}
			r := c.runs[e.Run]
			if r == nil || r.m.Status.Terminal() || e.Cell < 0 || e.Cell >= len(r.status) {
				continue
			}
			if r.status[e.Cell] == CellDone {
				continue
			}
			if e.Attempts > r.m.Cells[e.Cell].Attempts {
				r.m.Cells[e.Cell].Attempts = e.Attempts
				dirty[e.Run] = true
			}
			if r.m.Cells[e.Cell].Attempts >= c.opt.MaxAttempts {
				if err := c.failLocked(r, fmt.Sprintf("cell %s failed %d times: last: %s",
					r.cells[e.Cell].ID, r.m.Cells[e.Cell].Attempts, e.Reason)); err != nil {
					return err
				}
				delete(dirty, e.Run) // failLocked saved the manifest
			}
		case opAbort:
			r := c.runs[e.Run]
			if r == nil || r.m.Status.Terminal() {
				continue
			}
			for lid, l := range c.leases {
				if l.runID == e.Run {
					delete(c.leases, lid)
				}
			}
			if err := c.failLocked(r, e.Reason); err != nil {
				return err
			}
			delete(dirty, e.Run)
		}
	}
	for id := range dirty {
		if err := c.store.SaveRun(&c.runs[id].m); err != nil {
			return err
		}
	}
	return nil
}

// settleResumed finishes any run the journal replay completed and compacts
// the journal down to the still-volatile state: registered agents and live
// leases.  Called once from NewCoordinator, after replayJournal.
func (c *Coordinator) settleResumed() error {
	for _, id := range c.order {
		r := c.runs[id]
		if r.m.Status.Terminal() || r.cells == nil {
			continue
		}
		if r.done == len(r.cells) {
			if err := c.finishLocked(r); err != nil {
				return err
			}
		}
	}
	var keep []JournalEntry
	for _, a := range c.agents {
		keep = append(keep, JournalEntry{Op: opAgent, Agent: a.id, Name: a.name})
	}
	for _, l := range c.leases {
		keep = append(keep, JournalEntry{Op: opLease, Lease: l.id, Agent: l.agentID, Run: l.runID, Cell: l.idx})
	}
	// Maps iterate in random order; keep the compacted journal stable.
	sort.Slice(keep, func(i, j int) bool {
		if keep[i].Op != keep[j].Op {
			return keep[i].Op < keep[j].Op
		}
		if keep[i].Agent != keep[j].Agent {
			return keep[i].Agent < keep[j].Agent
		}
		return keep[i].Lease < keep[j].Lease
	})
	return c.store.CompactJournal(keep)
}
