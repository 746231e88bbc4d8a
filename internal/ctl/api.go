package ctl

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"
)

// The REST surface, versioned under /api/v1:
//
//	POST /api/v1/runs                     submit a RunSpec -> RunInfo
//	GET  /api/v1/runs                     list runs
//	GET  /api/v1/runs/{id}                one run, with per-cell detail
//	GET  /api/v1/runs/{id}/artifact       canonical artifact bytes
//	GET  /api/v1/runs/{id}/manifest       persisted RunManifest (cell -> result SHA map)
//	GET  /api/v1/objects/{sha}            stored object bytes (cell result or artifact)
//	GET  /api/v1/runs/{id}/events         SSE progress stream
//	POST /api/v1/runs/{id}/abort          {"reason"} -> RunInfo (run fails, nothing re-queues)
//	POST /api/v1/agents                   {"name"} -> {"agent_id"}
//	POST /api/v1/agents/{id}/heartbeat
//	POST /api/v1/agents/{id}/lease?wait=<dur>
//	                                      -> LeaseTask, or 204 if nothing was
//	                                         queued within wait (a Go duration,
//	                                         clamped to lease-ttl/3; absent = 0)
//	POST /api/v1/leases/{id}/complete     body = canonical cell result
//	POST /api/v1/leases/{id}/fail         {"reason"}
//
// Errors are {"error": "..."} with 400 for malformed requests, 404 for
// unknown IDs, 409 for stale leases (the agent's cue to discard the result
// and lease on) and 413 for a body over its cap.

// POST body caps, past which a request is refused with 413.
const (
	// maxSpecBody bounds a RunSpec, inline scenario included; the shipped
	// scenario specs are a few KiB.
	maxSpecBody = 1 << 20
	// maxSmallBody bounds the register, abort and fail bodies.
	maxSmallBody = 64 << 10
	// maxResultBody bounds a cell result.  The largest the shipped
	// experiments produce is fig10's (24 KiB at quick scale, 76 KiB at
	// full); 8 MiB leaves two orders of magnitude for longer scenarios.
	maxResultBody = 8 << 20
)

// NewHandler serves a coordinator's REST API.
func NewHandler(c *Coordinator) http.Handler {
	mux := http.NewServeMux()

	mux.HandleFunc("POST /api/v1/runs", func(w http.ResponseWriter, r *http.Request) {
		var spec RunSpec
		if !decodeBody(w, r, maxSpecBody, &spec, true) {
			return
		}
		info, err := c.Submit(spec)
		if err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
		writeJSON(w, http.StatusCreated, info)
	})

	mux.HandleFunc("GET /api/v1/runs", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, c.Runs())
	})

	mux.HandleFunc("GET /api/v1/runs/{id}", func(w http.ResponseWriter, r *http.Request) {
		info, err := c.Run(r.PathValue("id"))
		if err != nil {
			writeErr(w, statusFor(err), err)
			return
		}
		writeJSON(w, http.StatusOK, info)
	})

	mux.HandleFunc("GET /api/v1/runs/{id}/artifact", func(w http.ResponseWriter, r *http.Request) {
		data, err := c.Artifact(r.PathValue("id"))
		if err != nil {
			writeErr(w, statusFor(err), err)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		w.Write(data)
	})

	mux.HandleFunc("GET /api/v1/runs/{id}/manifest", func(w http.ResponseWriter, r *http.Request) {
		m, err := c.Manifest(r.PathValue("id"))
		if err != nil {
			writeErr(w, statusFor(err), err)
			return
		}
		writeJSON(w, http.StatusOK, m)
	})

	mux.HandleFunc("GET /api/v1/objects/{sha}", func(w http.ResponseWriter, r *http.Request) {
		data, err := c.Object(r.PathValue("sha"))
		if err != nil {
			writeErr(w, statusFor(err), err)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		w.Write(data)
	})

	mux.HandleFunc("GET /api/v1/runs/{id}/events", func(w http.ResponseWriter, r *http.Request) {
		serveEvents(c, w, r)
	})

	mux.HandleFunc("POST /api/v1/runs/{id}/abort", func(w http.ResponseWriter, r *http.Request) {
		var req struct {
			Reason string `json:"reason"`
		}
		if !decodeBody(w, r, maxSmallBody, &req, false) {
			return
		}
		info, err := c.Abort(r.PathValue("id"), req.Reason)
		if err != nil {
			writeErr(w, statusFor(err), err)
			return
		}
		writeJSON(w, http.StatusOK, info)
	})

	mux.HandleFunc("POST /api/v1/agents", func(w http.ResponseWriter, r *http.Request) {
		var req struct {
			Name string `json:"name"`
		}
		if !decodeBody(w, r, maxSmallBody, &req, false) {
			return
		}
		id, err := c.Register(req.Name)
		if err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
		writeJSON(w, http.StatusCreated, map[string]string{"agent_id": id})
	})

	mux.HandleFunc("POST /api/v1/agents/{id}/heartbeat", func(w http.ResponseWriter, r *http.Request) {
		if err := c.Heartbeat(r.PathValue("id")); err != nil {
			writeErr(w, statusFor(err), err)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	})

	mux.HandleFunc("POST /api/v1/agents/{id}/lease", func(w http.ResponseWriter, r *http.Request) {
		wait, err := leaseWait(r.URL.Query().Get("wait"), c.opt.LeaseTTL)
		if err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
		// The long poll ends with the request, so a client that goes
		// away frees its handler at once.
		task, err := c.Lease(r.Context(), r.PathValue("id"), wait)
		if err != nil {
			writeErr(w, statusFor(err), err)
			return
		}
		if task == nil {
			w.WriteHeader(http.StatusNoContent)
			return
		}
		writeJSON(w, http.StatusOK, task)
	})

	mux.HandleFunc("POST /api/v1/leases/{id}/complete", func(w http.ResponseWriter, r *http.Request) {
		result, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxResultBody))
		if err != nil {
			writeErr(w, bodyStatus(err), err)
			return
		}
		if err := c.Complete(r.PathValue("id"), result); err != nil {
			writeErr(w, statusFor(err), err)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	})

	mux.HandleFunc("POST /api/v1/leases/{id}/fail", func(w http.ResponseWriter, r *http.Request) {
		var req struct {
			Reason string `json:"reason"`
		}
		if !decodeBody(w, r, maxSmallBody, &req, false) {
			return
		}
		if err := c.Fail(r.PathValue("id"), req.Reason); err != nil {
			writeErr(w, statusFor(err), err)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	})

	return mux
}

// decodeBody decodes a JSON request body of at most limit bytes into v,
// answering 400 (413 past the cap) itself when it cannot.  An empty body
// leaves v zero unless required.
func decodeBody(w http.ResponseWriter, r *http.Request, limit int64, v any, required bool) bool {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, limit)).Decode(v)
	if err == nil || (!required && errors.Is(err, io.EOF)) {
		return true
	}
	writeErr(w, bodyStatus(err), fmt.Errorf("bad request body: %w", err))
	return false
}

func bodyStatus(err error) int {
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

// leaseWait parses a lease request's long-poll bound.  It is clamped to a
// third of the lease TTL, so an idle agent still calls in (and so sweeps
// expired leases) several times per TTL.
func leaseWait(q string, ttl time.Duration) (time.Duration, error) {
	if q == "" {
		return 0, nil
	}
	d, err := time.ParseDuration(q)
	if err != nil {
		return 0, fmt.Errorf("bad wait: %w", err)
	}
	if d < 0 {
		return 0, fmt.Errorf("bad wait %q: negative", q)
	}
	return min(d, ttl/3), nil
}

// serveEvents streams a run's progress as server-sent events ("data:"
// lines carrying Event JSON) until the run reaches a terminal status or
// the client goes away.  The first event is a synthetic snapshot so late
// watchers see the current state immediately.
func serveEvents(c *Coordinator, w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	// Subscribe before snapshotting so no transition can fall between.
	events, cancel := c.Subscribe(id)
	defer cancel()
	info, err := c.Run(id)
	if err != nil {
		writeErr(w, statusFor(err), err)
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)

	send := func(ev Event) bool {
		data, err := json.Marshal(ev)
		if err != nil {
			return false
		}
		if _, err := fmt.Fprintf(w, "data: %s\n\n", data); err != nil {
			return false
		}
		if f, ok := w.(http.Flusher); ok {
			f.Flush()
		}
		return !ev.Status.Terminal() || ev.Type != "run"
	}

	if !send(Event{
		Type: "run", RunID: info.ID, Status: info.Status,
		Done: info.CellsDone, Total: info.CellsTotal, Error: info.Error,
	}) {
		return
	}
	for {
		select {
		case <-r.Context().Done():
			return
		case ev, ok := <-events:
			if !ok || !send(ev) {
				return
			}
		}
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func writeErr(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

func statusFor(err error) int {
	switch {
	case errors.Is(err, ErrNotFound):
		return http.StatusNotFound
	case errors.Is(err, ErrStaleLease), errors.Is(err, ErrConflict):
		return http.StatusConflict
	default:
		return http.StatusInternalServerError
	}
}
