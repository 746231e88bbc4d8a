package ctl

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// Store is the coordinator's on-disk state: a content-addressed object
// store for cell results and assembled artifacts, plus one manifest file
// per run.  Layout under the data directory:
//
//	objects/ab/cdef1234...   blob addressed by its SHA-256 (hex)
//	runs/run-0001.json       RunManifest, written atomically at submit,
//	                         at a terminal status and at resume
//
// Content addressing gives three properties for free: byte-identical cell
// results (e.g. the same cell re-executed after a lease expiry) deduplicate
// into one object; an artifact's SHA doubles as its integrity check; and a
// restarted coordinator resumes a half-finished run by loading manifests
// and re-queueing exactly the cells without a ResultSHA.
//
// Alongside the manifests lives journal.jsonl, the coordinator's
// write-ahead journal (see journal.go): every transition of a live run
// (completed cells, attempts, leases) is appended there rather than
// rewritten into its manifest, and replayed on restart.
type Store struct {
	dir string
	// mu serialises manifest writes; object writes are naturally
	// idempotent (same SHA, same bytes) and need no lock.
	mu sync.Mutex
	// jmu serialises journal appends; jf is the lazily-opened append
	// handle and jsize the journal's length after the last whole line.
	jmu   sync.Mutex
	jf    *os.File
	jsize int64
}

// NewStore opens (creating if needed) a store rooted at dir.
func NewStore(dir string) (*Store, error) {
	for _, sub := range []string{"objects", "runs"} {
		if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			return nil, fmt.Errorf("ctl: init store: %w", err)
		}
	}
	return &Store{dir: dir}, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

func (s *Store) objectPath(sha string) string {
	return filepath.Join(s.dir, "objects", sha[:2], sha[2:])
}

// PutObject stores the blob and returns its SHA-256 address.  Writing is
// write-to-temp-then-rename, so a crash never leaves a partial object.
func (s *Store) PutObject(data []byte) (string, error) {
	sum := sha256.Sum256(data)
	sha := hex.EncodeToString(sum[:])
	path := s.objectPath(sha)
	if _, err := os.Stat(path); err == nil {
		return sha, nil // dedup: content already present
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return "", fmt.Errorf("ctl: put object: %w", err)
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), ".tmp-*")
	if err != nil {
		return "", fmt.Errorf("ctl: put object: %w", err)
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return "", fmt.Errorf("ctl: put object: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return "", fmt.Errorf("ctl: put object: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return "", fmt.Errorf("ctl: put object: %w", err)
	}
	return sha, nil
}

// GetObject fetches a blob by address and verifies its integrity.
func (s *Store) GetObject(sha string) ([]byte, error) {
	if len(sha) != 64 {
		return nil, fmt.Errorf("ctl: bad object address %q", sha)
	}
	data, err := os.ReadFile(s.objectPath(sha))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, fmt.Errorf("%w: object %s", ErrNotFound, sha)
		}
		return nil, fmt.Errorf("ctl: get object: %w", err)
	}
	if sum := sha256.Sum256(data); hex.EncodeToString(sum[:]) != sha {
		return nil, fmt.Errorf("%w: object %s hash mismatch on disk", ErrCorrupt, sha)
	}
	return data, nil
}

// QuarantineObject moves a corrupt object out of the addressable store into
// quarantine/<sha> so the evidence survives for inspection while the
// address becomes recomputable.  Quarantining an absent object is a no-op.
func (s *Store) QuarantineObject(sha string) error {
	if len(sha) != 64 {
		return fmt.Errorf("ctl: bad object address %q", sha)
	}
	qdir := filepath.Join(s.dir, "quarantine")
	if err := os.MkdirAll(qdir, 0o755); err != nil {
		return fmt.Errorf("ctl: quarantine object: %w", err)
	}
	if err := os.Rename(s.objectPath(sha), filepath.Join(qdir, sha)); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("ctl: quarantine object: %w", err)
	}
	return nil
}

// SaveRun persists a manifest atomically.
func (s *Store) SaveRun(m *RunManifest) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return fmt.Errorf("ctl: save run %s: %w", m.ID, err)
	}
	path := filepath.Join(s.dir, "runs", m.ID+".json")
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("ctl: save run %s: %w", m.ID, err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("ctl: save run %s: %w", m.ID, err)
	}
	return nil
}

// LoadRun reads one persisted manifest by run ID.
func (s *Store) LoadRun(id string) (*RunManifest, error) {
	data, err := os.ReadFile(filepath.Join(s.dir, "runs", id+".json"))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, fmt.Errorf("%w: run %s", ErrNotFound, id)
		}
		return nil, fmt.Errorf("ctl: load run %s: %w", id, err)
	}
	var m RunManifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("ctl: load run %s: %w", id, err)
	}
	return &m, nil
}

// IsStoreDir reports whether dir looks like a coordinator data directory
// (it has a runs/ subdirectory).  Read paths use it to avoid creating
// store scaffolding inside arbitrary directories.
func IsStoreDir(dir string) bool {
	fi, err := os.Stat(filepath.Join(dir, "runs"))
	return err == nil && fi.IsDir()
}

// LoadRuns reads every persisted manifest, sorted by run ID (submission
// order, since IDs embed the submission sequence).
func (s *Store) LoadRuns() ([]*RunManifest, error) {
	entries, err := os.ReadDir(filepath.Join(s.dir, "runs"))
	if err != nil {
		return nil, fmt.Errorf("ctl: load runs: %w", err)
	}
	var out []*RunManifest
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".json") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(s.dir, "runs", e.Name()))
		if err != nil {
			return nil, fmt.Errorf("ctl: load runs: %w", err)
		}
		var m RunManifest
		if err := json.Unmarshal(data, &m); err != nil {
			return nil, fmt.Errorf("ctl: load run %s: %w", e.Name(), err)
		}
		out = append(out, &m)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out, nil
}
