package ctl

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"testing"
	"time"
)

// FuzzAPIRequests drives the API's request decoding with arbitrary bodies
// and lease waits: the submit, register, abort and fail bodies, and the
// lease long poll's wait query.  Every request must get an answer below
// 500, every 4xx must carry a JSON error, and a lease wait the handler
// cannot parse must be a 400.
func FuzzAPIRequests(f *testing.F) {
	spec, err := json.Marshal(RunSpec{Experiment: "synth", Seed: 3})
	if err != nil {
		f.Fatal(err)
	}
	s := tinyScenario()
	inline, err := json.Marshal(RunSpec{Scenario: &s, Replicate: 2})
	if err != nil {
		f.Fatal(err)
	}
	for _, body := range [][]byte{spec, inline, []byte(`{"name":"a"}`), []byte(`{"reason":"r"}`),
		nil, []byte(`{`), []byte(`null`), []byte(`[]`), []byte(`{"seed":-1}`), []byte(`{"replicate":-5}`)} {
		for route := range uint8(5) {
			f.Add(route, body, "")
		}
	}
	for _, wait := range []string{"50ms", "0", "-1s", "1000h", "abc", "99999999999999h", "1µs", "1.5"} {
		f.Add(uint8(4), []byte(nil), wait)
	}

	exp := testExperiment("synth", 2, nil)
	const ttl = 30 * time.Millisecond // clamps every lease wait to 10ms
	c, _ := newTestCoordinator(f, CoordinatorOptions{Resolve: resolverFor(exp), LeaseTTL: ttl})
	h := NewHandler(c)
	agent, err := c.Register("fuzz")
	if err != nil {
		f.Fatal(err)
	}
	if _, err := c.Submit(RunSpec{Experiment: "synth"}); err != nil {
		f.Fatal(err)
	}

	f.Fuzz(func(t *testing.T, route uint8, body []byte, wait string) {
		var target string
		switch route % 5 {
		case 0:
			target = "/api/v1/runs"
		case 1:
			target = "/api/v1/agents"
		case 2:
			target = "/api/v1/runs/run-0001/abort"
		case 3:
			target = "/api/v1/leases/lease-0001/fail"
		case 4:
			target = "/api/v1/agents/" + agent + "/lease?wait=" + url.QueryEscape(wait)
		}
		rec := httptest.NewRecorder()
		start := time.Now()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, target, bytes.NewReader(body)))
		if rec.Code >= 500 {
			t.Fatalf("POST %s: %d %s", target, rec.Code, rec.Body)
		}
		if rec.Code >= 400 {
			var e struct {
				Error string `json:"error"`
			}
			if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Error == "" {
				t.Fatalf("POST %s: %d without a JSON error: %q", target, rec.Code, rec.Body)
			}
		}
		if route%5 == 4 {
			_, perr := leaseWait(wait, ttl)
			if (perr != nil) != (rec.Code == http.StatusBadRequest) {
				t.Fatalf("wait %q: status %d, parse error %v", wait, rec.Code, perr)
			}
			if took := time.Since(start); took > time.Second {
				t.Fatalf("wait %q held the lease request %v, past its %v clamp", wait, took, ttl/3)
			}
		}
	})
}
