package ctl

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"time"
)

// Client talks to a coordinator's REST API.  It implements AgentAPI, so a
// remote Agent is just `(&Agent{API: NewClient(url)}).Run(ctx)`.
//
// Every non-streaming request runs under a per-request timeout, and
// idempotent calls (the GETs and Heartbeat) additionally retry a bounded
// number of times on transport errors — a connection refused or timed out
// may mean the request never reached the coordinator, so retrying is safe
// for them and only them.  Non-idempotent calls (Submit, Lease, Complete,
// Fail, Register) never retry: their failure handling belongs to the agent
// loop and the lease protocol, where a lost response is already survivable.
type Client struct {
	base string
	http *http.Client
	// Timeout bounds each non-streaming request (default 30s; a lease
	// long poll gets its wait on top, and Watch is exempt, it streams
	// for the run's lifetime under its own context).
	Timeout time.Duration
	// Retries is how many extra attempts idempotent calls make on
	// transport errors (default 2).
	Retries int
	sleep   func(time.Duration) // test hook
}

// NewClient returns a client for a coordinator at base
// (e.g. "http://127.0.0.1:8372").
func NewClient(base string) *Client {
	return &Client{
		base:    strings.TrimRight(base, "/"),
		http:    &http.Client{},
		Timeout: 30 * time.Second,
		Retries: 2,
		sleep:   time.Sleep,
	}
}

// transportError marks a failure below the HTTP layer: the request may
// never have reached the coordinator.  Only these are retried.
type transportError struct{ err error }

func (e *transportError) Error() string { return e.err.Error() }
func (e *transportError) Unwrap() error { return e.err }

// encodeBody marshals a request body once, so retries can rebuild readers
// without re-marshalling; raw []byte bodies pass through.
func encodeBody(body any) ([]byte, bool, error) {
	if body == nil {
		return nil, false, nil
	}
	if raw, ok := body.([]byte); ok {
		return raw, true, nil
	}
	data, err := json.Marshal(body)
	if err != nil {
		return nil, false, err
	}
	return data, true, nil
}

// do issues a request once, under the client timeout, and decodes a JSON
// response into out (unless out is nil or the status is 204).
func (c *Client) do(method, path string, body any, out any) error {
	payload, hasBody, err := encodeBody(body)
	if err != nil {
		return err
	}
	return c.doOnce(context.Background(), 0, method, path, payload, hasBody, out)
}

// doRetry is do for idempotent requests: transport errors retry with
// jittered backoff; HTTP-level errors never do.
func (c *Client) doRetry(method, path string, body any, out any) error {
	payload, hasBody, err := encodeBody(body)
	if err != nil {
		return err
	}
	bo := newBackoff(100*time.Millisecond, 2*time.Second)
	var last error
	for i := 0; i <= c.Retries; i++ {
		if i > 0 {
			c.sleep(bo.Next())
		}
		last = c.doOnce(context.Background(), 0, method, path, payload, hasBody, out)
		var te *transportError
		if last == nil || !errors.As(last, &te) {
			return last
		}
	}
	return last
}

// doOnce issues one request under ctx and the client timeout extended by
// extra (a long poll's server-side wait).
func (c *Client) doOnce(ctx context.Context, extra time.Duration, method, path string, payload []byte, hasBody bool, out any) error {
	var rdr io.Reader
	if hasBody {
		rdr = bytes.NewReader(payload)
	}
	if c.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, c.Timeout+extra)
		defer cancel()
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rdr)
	if err != nil {
		return err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return &transportError{err}
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 400 {
		return apiError(resp)
	}
	if out == nil || resp.StatusCode == http.StatusNoContent {
		return nil
	}
	if raw, ok := out.(*[]byte); ok {
		*raw, err = io.ReadAll(resp.Body)
		return err
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// apiError maps an error response back onto the package sentinels, so
// remote and in-process agents handle stale leases identically.
func apiError(resp *http.Response) error {
	var e struct {
		Error string `json:"error"`
	}
	msg := resp.Status
	if json.NewDecoder(resp.Body).Decode(&e) == nil && e.Error != "" {
		msg = e.Error
	}
	// wrap ties the transported message back to a package sentinel without
	// stuttering when the message already carries the sentinel's text.
	wrap := func(sentinel error) error {
		if rest, ok := strings.CutPrefix(msg, sentinel.Error()); ok {
			return fmt.Errorf("%w%s", sentinel, rest)
		}
		return fmt.Errorf("%w: %s", sentinel, msg)
	}
	switch resp.StatusCode {
	case http.StatusNotFound:
		return wrap(ErrNotFound)
	case http.StatusConflict:
		// 409 carries two sentinels; the body says which.  Agents only
		// ever see stale leases, clients mostly see state conflicts.
		if strings.Contains(msg, "stale lease") {
			return wrap(ErrStaleLease)
		}
		return wrap(ErrConflict)
	default:
		return fmt.Errorf("ctl: coordinator: %s", msg)
	}
}

// Submit queues a run.
func (c *Client) Submit(spec RunSpec) (RunInfo, error) {
	var info RunInfo
	err := c.do("POST", "/api/v1/runs", spec, &info)
	return info, err
}

// Runs lists all runs.
func (c *Client) Runs() ([]RunInfo, error) {
	var out []RunInfo
	err := c.doRetry("GET", "/api/v1/runs", nil, &out)
	return out, err
}

// Run fetches one run with per-cell detail.
func (c *Client) Run(id string) (RunInfo, error) {
	var info RunInfo
	err := c.doRetry("GET", "/api/v1/runs/"+id, nil, &info)
	return info, err
}

// Artifact fetches a finished run's canonical artifact bytes.
func (c *Client) Artifact(id string) ([]byte, error) {
	var data []byte
	err := c.doRetry("GET", "/api/v1/runs/"+id+"/artifact", nil, &data)
	return data, err
}

// Manifest fetches a run's persisted manifest (the cell → result-object
// map).  Read-only and idempotent, so it retries on transport errors.
func (c *Client) Manifest(id string) (*RunManifest, error) {
	var m RunManifest
	err := c.doRetry("GET", "/api/v1/runs/"+id+"/manifest", nil, &m)
	if err != nil {
		return nil, err
	}
	return &m, nil
}

// Object fetches a stored object (cell result or artifact) by address.
func (c *Client) Object(sha string) ([]byte, error) {
	var data []byte
	err := c.doRetry("GET", "/api/v1/objects/"+sha, nil, &data)
	return data, err
}

// Abort cancels a queued or running run; the run fails with the reason and
// nothing is re-queued.
func (c *Client) Abort(id, reason string) (RunInfo, error) {
	var info RunInfo
	err := c.do("POST", "/api/v1/runs/"+id+"/abort", map[string]string{"reason": reason}, &info)
	return info, err
}

// Watch streams a run's progress events into fn until the run reaches a
// terminal status (returning nil) or ctx is cancelled (returning its
// error).
func (c *Client) Watch(ctx context.Context, id string, fn func(Event)) error {
	req, err := http.NewRequestWithContext(ctx, "GET", c.base+"/api/v1/runs/"+id+"/events", nil)
	if err != nil {
		return err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 400 {
		return apiError(resp)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		var ev Event
		if err := json.Unmarshal([]byte(line[len("data: "):]), &ev); err != nil {
			return fmt.Errorf("ctl: bad event: %w", err)
		}
		fn(ev)
		if ev.Type == "run" && ev.Status.Terminal() {
			return nil
		}
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	if err := sc.Err(); err != nil {
		return err
	}
	return fmt.Errorf("ctl: event stream ended before the run did")
}

// WatchRetry is Watch with reconnection: a dropped event stream or an
// unreachable coordinator (a restart mid-run, a network blip) re-subscribes
// under jittered exponential backoff instead of silently ending the watch.
// The coordinator's event endpoint opens every stream with a full run
// snapshot, so a reconnect never misses the terminal event: if the run
// finished during the outage, the first event of the new stream ends the
// watch.  Returns nil when the run reaches a terminal status and ctx's
// error on cancellation; HTTP-level rejections (unknown run, conflict)
// surface immediately — they are answers from a healthy coordinator, not
// outages.  The backoff resets whenever a connection delivers at least one
// event, so a long watch that drops twice an hour reconnects quickly both
// times.
func (c *Client) WatchRetry(ctx context.Context, id string, fn func(Event)) error {
	bo := newBackoff(200*time.Millisecond, 5*time.Second)
	for {
		progressed := false
		err := c.Watch(ctx, id, func(ev Event) {
			progressed = true
			fn(ev)
		})
		if err == nil {
			return nil
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
		if errors.Is(err, ErrNotFound) || errors.Is(err, ErrConflict) || errors.Is(err, ErrStaleLease) {
			return err
		}
		if progressed {
			bo.Reset()
		}
		t := time.NewTimer(bo.Next())
		select {
		case <-ctx.Done():
			t.Stop()
			return ctx.Err()
		case <-t.C:
		}
	}
}

// Register implements AgentAPI.
func (c *Client) Register(name string) (string, error) {
	var out struct {
		AgentID string `json:"agent_id"`
	}
	err := c.do("POST", "/api/v1/agents", map[string]string{"name": name}, &out)
	return out.AgentID, err
}

// Heartbeat implements AgentAPI.  Heartbeats are idempotent (they only
// refresh liveness), so they retry on transport errors.
func (c *Client) Heartbeat(agentID string) error {
	return c.doRetry("POST", "/api/v1/agents/"+agentID+"/heartbeat", nil, nil)
}

// Lease implements AgentAPI as a long poll: the coordinator holds the
// request until a cell is queued or wait passes, and the request timeout is
// extended by wait.  Leasing mutates coordinator state, so it never
// retries — the agent loop's backoff owns that.
func (c *Client) Lease(ctx context.Context, agentID string, wait time.Duration) (*LeaseTask, error) {
	path := "/api/v1/agents/" + agentID + "/lease"
	if wait > 0 {
		path += "?" + url.Values{"wait": {wait.String()}}.Encode()
	}
	var task LeaseTask
	if err := c.doOnce(ctx, wait, "POST", path, nil, false, &task); err != nil {
		if ctx.Err() != nil {
			return nil, nil // the agent is stopping, not the coordinator failing
		}
		return nil, err
	}
	if task.LeaseID == "" {
		return nil, nil // 204: nothing was queued within wait
	}
	return &task, nil
}

// Complete implements AgentAPI.
func (c *Client) Complete(leaseID string, result []byte) error {
	return c.do("POST", "/api/v1/leases/"+leaseID+"/complete", result, nil)
}

// Fail implements AgentAPI.
func (c *Client) Fail(leaseID string, reason string) error {
	return c.do("POST", "/api/v1/leases/"+leaseID+"/fail", map[string]string{"reason": reason}, nil)
}
