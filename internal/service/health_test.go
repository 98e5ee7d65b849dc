package service_test

import (
	"bytes"
	"context"
	"encoding/json"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/service"
	"repro/internal/store"
)

// TestHealthz: liveness is unconditional — a fresh, cold server answers
// 200 with an uptime.
func TestHealthz(t *testing.T) {
	ts, _ := newTestServer(t)
	var body struct {
		Status  string  `json:"status"`
		UptimeS float64 `json:"uptime_s"`
	}
	get(t, ts.URL+"/v1/healthz", http.StatusOK, &body)
	if body.Status != "ok" {
		t.Errorf("healthz status %q, want ok", body.Status)
	}
	if body.UptimeS < 0 {
		t.Errorf("healthz uptime %g negative", body.UptimeS)
	}
}

// TestReadyzTransitions: a cold server is not ready (shards warming);
// after Warmup finishes it flips ready; losing the store flips it back.
func TestReadyzTransitions(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	srv := service.New(service.Config{Store: st, Workers: 4})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	var notReady struct {
		Ready   bool     `json:"ready"`
		Reasons []string `json:"reasons"`
	}
	get(t, ts.URL+"/v1/readyz", http.StatusServiceUnavailable, &notReady)
	if notReady.Ready {
		t.Fatal("cold server reported ready")
	}
	found := false
	for _, r := range notReady.Reasons {
		if strings.Contains(r, "warming") {
			found = true
		}
	}
	if !found {
		t.Fatalf("cold readyz reasons %v missing warming", notReady.Reasons)
	}

	srv.Warmup(context.Background())
	if !srv.Warmed() {
		t.Fatal("Warmup did not mark the server warmed")
	}
	var ready struct {
		Ready   bool    `json:"ready"`
		UptimeS float64 `json:"uptime_s"`
	}
	get(t, ts.URL+"/v1/readyz", http.StatusOK, &ready)
	if !ready.Ready {
		t.Fatal("warmed server not ready")
	}

	// A store that can no longer take writes must fail readiness while
	// liveness stays green.
	if err := os.RemoveAll(st.Dir()); err != nil {
		t.Fatal(err)
	}
	get(t, ts.URL+"/v1/readyz", http.StatusServiceUnavailable, &notReady)
	found = false
	for _, r := range notReady.Reasons {
		if strings.Contains(r, "store not writable") {
			found = true
		}
	}
	if !found {
		t.Fatalf("readyz reasons %v missing store failure", notReady.Reasons)
	}
	get(t, ts.URL+"/v1/healthz", http.StatusOK, nil)
}

// TestRequestIDCorrelation: an inbound X-Request-ID is honoured and
// echoed; without one the server generates an id; the access-log record
// for the request carries the same id under the "req" key.
func TestRequestIDCorrelation(t *testing.T) {
	ts, _ := newTestServer(t)

	var buf bytes.Buffer
	old := obs.Log
	obs.Log = obs.NewLogger(&buf, slog.LevelInfo)
	defer func() { obs.Log = old }()

	req, err := http.NewRequest("GET", ts.URL+"/v1/healthz", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Request-ID", "rid-test-42")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-ID"); got != "rid-test-42" {
		t.Errorf("inbound request id not echoed: got %q", got)
	}

	// Generated when absent, non-empty and echoed.
	resp2, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.Header.Get("X-Request-ID") == "" {
		t.Error("no generated request id on response")
	}

	// The access log for the first request correlates by id.
	var logged bool
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("access log line is not JSON: %q: %v", line, err)
		}
		if rec["req"] == "rid-test-42" {
			logged = true
			if rec["msg"] != "request" || rec["route"] != "/v1/healthz" {
				t.Errorf("access record shape wrong: %v", rec)
			}
			if rec["status"] != float64(200) {
				t.Errorf("access record status %v, want 200", rec["status"])
			}
		}
	}
	if !logged {
		t.Error("no access-log record carried the inbound request id")
	}
}

// TestServerTimeouts pins the connection timeouts every listener gets: a
// client that never finishes its headers, or an idle keep-alive
// connection, must not hold a connection open forever.
func TestServerTimeouts(t *testing.T) {
	srv := service.NewHTTPServer(http.NotFoundHandler())
	if srv.ReadHeaderTimeout != 10*time.Second {
		t.Errorf("ReadHeaderTimeout = %v, want 10s", srv.ReadHeaderTimeout)
	}
	if srv.IdleTimeout != 2*time.Minute {
		t.Errorf("IdleTimeout = %v, want 2m", srv.IdleTimeout)
	}
	if srv.Handler == nil {
		t.Error("server has no handler")
	}
}

// TestServeShedsOverload: with every worker busy, requests wait up to the
// queue bound (four per worker); a burst beyond it is answered 503 with
// Retry-After at once, readiness reports the full queue, and the waiting
// requests are served once the workers free up.
func TestServeShedsOverload(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	srv := service.New(service.Config{Store: st, Workers: 1})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	url := ts.URL + "/v1/wcet?bench=WorstCaseSort&spm=512"
	get(t, url, http.StatusOK, nil) // build the shard: the queue then only waits

	release := srv.HoldWorkers()
	defer func() {
		if release != nil {
			release()
		}
	}()
	const bound = 4
	codes := make(chan int, bound)
	for range bound {
		go func() {
			resp, err := http.Get(url)
			if err != nil {
				codes <- 0
				return
			}
			resp.Body.Close()
			codes <- resp.StatusCode
		}()
	}
	for deadline := time.Now().Add(10 * time.Second); srv.Queued() < bound; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d requests queued, want %d", srv.Queued(), bound)
		}
	}
	// Without shedding these would wait for the held workers; the client
	// timeout turns that into a failure instead of a hang.
	client := &http.Client{Timeout: 10 * time.Second}
	for range 3 {
		resp, err := client.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
			t.Errorf("request beyond the queue bound: status %d, Retry-After %q; want 503 with Retry-After",
				resp.StatusCode, resp.Header.Get("Retry-After"))
		}
	}
	var notReady struct{ Reasons []string }
	get(t, ts.URL+"/v1/readyz", http.StatusServiceUnavailable, &notReady)
	if !strings.Contains(strings.Join(notReady.Reasons, ";"), "queue depth 4 at bound 4") {
		t.Errorf("readyz reasons %v missing the full queue", notReady.Reasons)
	}

	release()
	release = nil
	for range bound {
		if c := <-codes; c != http.StatusOK {
			t.Errorf("queued request answered %d, want 200", c)
		}
	}
}
