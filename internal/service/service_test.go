package service_test

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/benchprog"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/service"
	"repro/internal/store"
)

func newTestServer(t *testing.T) (*httptest.Server, *store.Store) {
	t.Helper()
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(service.New(service.Config{Store: st, Workers: 4}).Handler())
	t.Cleanup(ts.Close)
	return ts, st
}

func get(t *testing.T, url string, wantCode int, out any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != wantCode {
		t.Fatalf("GET %s: status %d, want %d (body %s)", url, resp.StatusCode, wantCode, body)
	}
	if out != nil {
		if err := json.Unmarshal(body, out); err != nil {
			t.Fatalf("GET %s: bad JSON: %v (body %s)", url, err, body)
		}
	}
}

type measurement struct {
	Benchmark string  `json:"benchmark"`
	SPMSize   uint32  `json:"spm_size"`
	CacheSize uint32  `json:"cache_size"`
	SimCycles uint64  `json:"sim_cycles"`
	WCET      uint64  `json:"wcet"`
	Ratio     float64 `json:"ratio"`
}

// TestServeMatchesCLI: the acceptance property of the service — for every
// memory configuration, /v1/wcet reports exactly the bounds the CLI path
// (a core.Lab over the same benchmark) computes.
func TestServeMatchesCLI(t *testing.T) {
	ts, _ := newTestServer(t)
	lab, err := core.NewLabWithStore(benchprog.WorstCaseSort, nil)
	if err != nil {
		t.Fatal(err)
	}

	var base measurement
	get(t, ts.URL+"/v1/wcet?bench=WorstCaseSort", http.StatusOK, &base)
	wantBase, err := lab.Baseline(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if base.WCET != wantBase.WCET || base.SimCycles != wantBase.SimCycles {
		t.Errorf("baseline: served %d/%d, CLI %d/%d", base.SimCycles, base.WCET, wantBase.SimCycles, wantBase.WCET)
	}

	var spm measurement
	get(t, ts.URL+"/v1/wcet?bench=WorstCaseSort&spm=512", http.StatusOK, &spm)
	wantSPM, err := lab.WithScratchpad(context.Background(), 512)
	if err != nil {
		t.Fatal(err)
	}
	if spm.WCET != wantSPM.WCET || spm.SimCycles != wantSPM.SimCycles || spm.SPMSize != 512 {
		t.Errorf("spm: served %+v, CLI %+v", spm, wantSPM)
	}

	var cm measurement
	get(t, ts.URL+"/v1/wcet?bench=WorstCaseSort&cache=256", http.StatusOK, &cm)
	wantCache, err := lab.WithCache(context.Background(), 256, 1)
	if err != nil {
		t.Fatal(err)
	}
	if cm.WCET != wantCache.WCET || cm.SimCycles != wantCache.SimCycles || cm.CacheSize != 256 {
		t.Errorf("cache: served %+v, CLI %+v", cm, wantCache)
	}
}

// TestServeSweepAndWitness: the sweep endpoint returns one measurement per
// paper capacity and the witness endpoint honours its top bound.
func TestServeSweepAndWitness(t *testing.T) {
	ts, _ := newTestServer(t)

	var sweep []measurement
	get(t, ts.URL+"/v1/sweep?bench=WorstCaseSort&branch=spm", http.StatusOK, &sweep)
	if len(sweep) != len(core.PaperSizes) {
		t.Fatalf("sweep returned %d rows, want %d", len(sweep), len(core.PaperSizes))
	}
	for i, m := range sweep {
		if m.SPMSize != core.PaperSizes[i] {
			t.Errorf("sweep row %d: size %d, want %d", i, m.SPMSize, core.PaperSizes[i])
		}
		if m.WCET < m.SimCycles {
			t.Errorf("sweep row %d: unsound bound %d < %d", i, m.WCET, m.SimCycles)
		}
	}

	// The cache sweep prices all its capacities from one shared pass, and
	// /v1/stats splits the shard's simulations by how they were computed.
	get(t, ts.URL+"/v1/sweep?bench=WorstCaseSort&branch=cache", http.StatusOK, &sweep)
	var stats struct {
		Benchmarks map[string]struct {
			Sims        uint64 `json:"sims"`
			SimsRetimed uint64 `json:"sims_retimed"`
			SimsSwept   uint64 `json:"sims_swept"`
		} `json:"benchmarks"`
	}
	get(t, ts.URL+"/v1/stats", http.StatusOK, &stats)
	if sh := stats.Benchmarks["WorstCaseSort"]; sh.SimsSwept != uint64(len(core.PaperSizes)) ||
		sh.Sims != sh.SimsRetimed+sh.SimsSwept {
		t.Errorf("stats after both sweeps: sims=%d retimed=%d swept=%d, want %d swept and none executed",
			sh.Sims, sh.SimsRetimed, sh.SimsSwept, len(core.PaperSizes))
	}

	var wit struct {
		Benchmark string `json:"benchmark"`
		WCET      uint64 `json:"wcet"`
		Objects   []struct {
			Name    string `json:"name"`
			Benefit int64  `json:"benefit_cycles"`
		} `json:"objects"`
		Blocks []struct {
			Func  string `json:"func"`
			Count uint64 `json:"count"`
		} `json:"blocks"`
	}
	get(t, ts.URL+"/v1/witness?bench=WorstCaseSort&top=3", http.StatusOK, &wit)
	if wit.WCET == 0 || len(wit.Objects) == 0 || len(wit.Objects) > 3 || len(wit.Blocks) > 3 {
		t.Errorf("witness response malformed: %+v", wit)
	}
}

// TestServeErrors: parameter validation and shard resolution produce the
// right status codes, and none of them crash the worker pool.
func TestServeErrors(t *testing.T) {
	ts, _ := newTestServer(t)
	cases := []struct {
		url  string
		code int
	}{
		{"/v1/wcet", http.StatusBadRequest},                                     // missing bench
		{"/v1/wcet?bench=Nope", http.StatusNotFound},                            // unknown benchmark
		{"/v1/wcet?bench=WorstCaseSort&spm=64&cache=64", http.StatusBadRequest}, // exclusive params
		{"/v1/wcet?bench=WorstCaseSort&spm=banana", http.StatusBadRequest},      // unparsable size
		{"/v1/wcet?bench=WorstCaseSort&spm=65536", http.StatusBadRequest},       // above SPMMax
		{"/v1/wcet?bench=WorstCaseSort&cache=64&assoc=0", http.StatusBadRequest},
		{"/v1/sweep?bench=WorstCaseSort&branch=bogus", http.StatusBadRequest},
		{"/v1/witness?bench=WorstCaseSort&top=-1", http.StatusBadRequest},
	}
	for _, c := range cases {
		var e struct {
			Error string `json:"error"`
		}
		get(t, ts.URL+c.url, c.code, &e)
		if e.Error == "" {
			t.Errorf("GET %s: no error message", c.url)
		}
	}
	// The pool must still serve after the failures above.
	var m measurement
	get(t, ts.URL+"/v1/wcet?bench=WorstCaseSort&spm=128", http.StatusOK, &m)
	if m.WCET == 0 {
		t.Error("server wedged after error responses")
	}
}

// TestServeRejectsBadCache: /v1/wcet validates the cache configuration
// before building a shard or taking a worker slot. With every worker held,
// each bad configuration still answers 400 at once with Validate's
// message, is counted as a failure and runs no stage.
func TestServeRejectsBadCache(t *testing.T) {
	srv := service.New(service.Config{Workers: 1})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	release := srv.HoldWorkers()
	defer release()
	// A request that waited for a worker would time out here, not hang.
	client := &http.Client{Timeout: 10 * time.Second}
	cases := []struct {
		query string
		cfg   cache.Config
	}{
		{"cache=100", cache.Config{Size: 100, Assoc: 1}},
		{"cache=0", cache.Config{Size: 0, Assoc: 1}},
		{"cache=1024&assoc=3", cache.Config{Size: 1024, Assoc: 3}},
		{"cache=1024&assoc=268435456", cache.Config{Size: 1024, Assoc: 1 << 28}},
	}
	for i, c := range cases {
		want := c.cfg.Validate()
		if want == nil {
			t.Fatalf("%s: %+v is valid", c.query, c.cfg)
		}
		resp, err := client.Get(ts.URL + "/v1/wcet?bench=G.721&" + c.query)
		if err != nil {
			t.Fatal(err)
		}
		var e struct {
			Error string `json:"error"`
		}
		err = json.NewDecoder(resp.Body).Decode(&e)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusBadRequest || e.Error != want.Error() {
			t.Errorf("%s: status %d, error %q (%v); want 400, %q", c.query, resp.StatusCode, e.Error, err, want)
		}
		if _, failures := srv.RequestTotals(); failures != uint64(i+1) {
			t.Errorf("%s: %d failures counted, want %d", c.query, failures, i+1)
		}
	}
	var st struct {
		Benchmarks map[string]json.RawMessage `json:"benchmarks"`
	}
	get(t, ts.URL+"/v1/stats", http.StatusOK, &st)
	if len(st.Benchmarks) != 0 {
		t.Errorf("rejected requests built shards %v", st.Benchmarks)
	}
}

// TestServeRejectsBadQueryAtOnce: /v1/sweep and /v1/witness check every
// query parameter before building a shard or taking a worker slot. With
// every worker held, each bad query still answers 400 at once and builds
// no shard.
func TestServeRejectsBadQueryAtOnce(t *testing.T) {
	srv := service.New(service.Config{Workers: 1})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	release := srv.HoldWorkers()
	defer release()
	// A request that waited for a worker would time out here, not hang.
	client := &http.Client{Timeout: 10 * time.Second}
	for _, path := range []string{
		"/v1/sweep?bench=G.721&branch=bogus",
		"/v1/sweep?bench=G.721&branch=pareto&maxpoints=1",
		"/v1/sweep?bench=G.721&branch=wcetalloc&granularity=bogus",
		"/v1/witness?bench=G.721&top=0",
	} {
		resp, err := client.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		var e struct {
			Error string `json:"error"`
		}
		err = json.NewDecoder(resp.Body).Decode(&e)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusBadRequest || e.Error == "" {
			t.Errorf("%s: status %d, error %q (%v); want 400 with a message", path, resp.StatusCode, e.Error, err)
		}
	}
	if q := srv.Queued(); q != 0 {
		t.Errorf("%d rejected requests still wait for a worker", q)
	}
	var st struct {
		Benchmarks map[string]json.RawMessage `json:"benchmarks"`
	}
	get(t, ts.URL+"/v1/stats", http.StatusOK, &st)
	if len(st.Benchmarks) != 0 {
		t.Errorf("rejected requests built shards %v", st.Benchmarks)
	}
}

// TestServeSweepStream: ?stream=1 serves the sweep as chunked JSON lines
// whose rows are exactly the buffered response's array elements, for every
// branch including the Pareto front.
func TestServeSweepStream(t *testing.T) {
	ts, _ := newTestServer(t)
	for _, branch := range []string{"spm", "cache", "wcetalloc", "pareto"} {
		t.Run(branch, func(t *testing.T) {
			var buffered []json.RawMessage
			get(t, ts.URL+"/v1/sweep?bench=ADPCM&branch="+branch, http.StatusOK, &buffered)

			resp, err := http.Get(ts.URL + "/v1/sweep?bench=ADPCM&branch=" + branch + "&stream=1")
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("stream status %d", resp.StatusCode)
			}
			if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
				t.Errorf("stream content type %q, want application/x-ndjson", ct)
			}
			var streamed []any
			dec := json.NewDecoder(resp.Body)
			for dec.More() {
				var row any
				if err := dec.Decode(&row); err != nil {
					t.Fatal(err)
				}
				streamed = append(streamed, row)
			}
			if len(streamed) != len(buffered) {
				t.Fatalf("streamed %d rows, buffered %d", len(streamed), len(buffered))
			}
			for i := range streamed {
				var want any
				if err := json.Unmarshal(buffered[i], &want); err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(streamed[i], want) {
					t.Errorf("row %d: streamed %v, buffered %v", i, streamed[i], want)
				}
			}
		})
	}
}

// TestServeParetoSweep: the pareto branch serves one front per paper
// capacity, endpoints included, rows in capacity order.
func TestServeParetoSweep(t *testing.T) {
	ts, _ := newTestServer(t)
	var fronts []struct {
		Benchmark string `json:"benchmark"`
		SPMSize   uint32 `json:"spm_size"`
		Points    []struct {
			Kind  string   `json:"kind"`
			WCET  uint64   `json:"wcet"`
			InSPM []string `json:"in_spm"`
		} `json:"points"`
	}
	get(t, ts.URL+"/v1/sweep?bench=ADPCM&branch=pareto", http.StatusOK, &fronts)
	if len(fronts) != len(core.PaperSizes) {
		t.Fatalf("pareto sweep returned %d fronts, want %d", len(fronts), len(core.PaperSizes))
	}
	for i, f := range fronts {
		if f.SPMSize != core.PaperSizes[i] {
			t.Errorf("front %d: size %d, want %d", i, f.SPMSize, core.PaperSizes[i])
		}
		if len(f.Points) == 0 {
			t.Errorf("front %d: empty", i)
		}
		for j := 1; j < len(f.Points); j++ {
			if f.Points[j].WCET <= f.Points[j-1].WCET {
				t.Errorf("front %d: WCET not strictly increasing at point %d", i, j)
			}
		}
	}
}

// TestServeGC: a server configured with a periodic GC interval applies the
// retention policy while running and reports it in /v1/stats.
func TestServeGC(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	srv := service.New(service.Config{
		Store:      st,
		Workers:    2,
		GCInterval: 10 * time.Millisecond,
		GCPolicy:   store.Policy{MaxAge: 24 * time.Hour},
	})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	addr := make(chan string, 1)
	done := make(chan error, 1)
	go func() { done <- srv.Run(ctx, "127.0.0.1:0", func(a string) { addr <- a }) }()
	base := "http://" + <-addr

	deadline := time.Now().Add(5 * time.Second)
	var stats struct {
		GC *struct {
			Interval string `json:"interval"`
			Runs     uint64 `json:"runs"`
			Errors   uint64 `json:"errors"`
		} `json:"gc"`
	}
	for {
		get(t, base+"/v1/stats", http.StatusOK, &stats)
		if stats.GC != nil && stats.GC.Runs > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("periodic GC never ran")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if stats.GC.Interval != "10ms" || stats.GC.Errors != 0 {
		t.Errorf("gc stats %+v", stats.GC)
	}
	cancel()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// TestServeCoalescing: concurrent identical requests coalesce in the
// pipeline singleflight and all return the same body; /v1/stats then shows
// the shard computed the artifact once.
func TestServeCoalescing(t *testing.T) {
	ts, _ := newTestServer(t)
	const n = 8
	bodies := make([]string, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Get(ts.URL + "/v1/wcet?bench=WorstCaseSort&spm=256")
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			b, err := io.ReadAll(resp.Body)
			if err != nil {
				t.Error(err)
				return
			}
			bodies[i] = string(b)
		}()
	}
	wg.Wait()
	for i := 1; i < n; i++ {
		if bodies[i] != bodies[0] {
			t.Fatalf("concurrent responses differ:\n%s\nvs\n%s", bodies[i], bodies[0])
		}
	}

	var stats struct {
		Workers    int `json:"workers"`
		Benchmarks map[string]struct {
			Analyses uint64 `json:"analyses"`
			Sims     uint64 `json:"sims"`
		} `json:"benchmarks"`
	}
	get(t, ts.URL+"/v1/stats", http.StatusOK, &stats)
	if stats.Workers != 4 {
		t.Errorf("stats workers %d, want 4", stats.Workers)
	}
	sh, ok := stats.Benchmarks["WorstCaseSort"]
	if !ok {
		t.Fatal("stats missing the exercised shard")
	}
	// 8 identical requests: one placement analysis + one placement
	// simulation, everything else coalesced or cached.
	if sh.Analyses != 1 || sh.Sims != 1 {
		t.Errorf("shard ran analyses=%d sims=%d for identical requests, want 1/1", sh.Analyses, sh.Sims)
	}
}
