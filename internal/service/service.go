// Package service is the sharded HTTP front-end over the measurement
// pipeline: `wcetlab serve`. Every benchmark of the Table 2 registry (plus
// the §4 precision program) is one shard — a lazily built core.Lab whose
// pipeline is backed by the shared content-addressed artifact store — so a
// request for one benchmark never contends on another's artifacts, and
// identical concurrent requests against one shard coalesce in the
// pipeline's per-entry singleflight (the second request blocks on the
// first computation instead of repeating it).
//
// A bounded worker pool caps concurrently served measurement requests;
// waiters honour request cancellation, and once four pools' worth of
// requests wait, further ones are shed with 503 and Retry-After. With a
// store attached, everything a request computes persists, so answers
// survive restarts and are shared with CLI runs against the same store; a
// periodic GC (Config.GCInterval plus the store's retention policy) keeps
// long-running servers bounded.
//
// # API
//
//	GET /v1/wcet?bench=<name>[&spm=<bytes>|&cache=<bytes>[&assoc=<n>]]
//	    One measurement: simulated cycles, WCET bound, ratio. No memory
//	    parameter measures the baseline (no scratchpad, no cache).
//	GET /v1/sweep?bench=<name>[&branch=spm|cache|wcetalloc|pareto][&granularity=object|block][&stream=1]
//	    A full paper-capacity sweep of one branch (default spm). The
//	    granularity parameter (wcetalloc branch only) selects whole-object
//	    or basic-block placement units for the WCET-directed allocator.
//	    branch=pareto serves the energy/WCET Pareto front per capacity:
//	    the pure-energy and pure-WCET endpoints plus the mutually
//	    non-dominated ε-constraint points between them, every bound
//	    certified by a full re-analysis; adaptive=1 switches the front scan
//	    to bisection of the largest certified gap and maxpoints=<n> caps
//	    the adaptive front's size (0 for the default, else at least 2).
//	    stream=1 switches the response to
//	    chunked JSON lines (application/x-ndjson): one row per line,
//	    flushed in capacity order as soon as each row's computation
//	    finishes, with the same rows a buffered response would hold. A
//	    mid-sweep failure appends a final {"error": ...} line.
//	GET /v1/witness?bench=<name>[&top=<n>]
//	    Top-n worst-case memory objects and basic blocks (IPET witness).
//	GET /v1/stats
//	    Server, store, periodic-GC and per-shard pipeline statistics,
//	    including per-stage latency quantiles from the metrics registry.
//	GET /v1/metrics
//	    The process-wide metrics registry (internal/obs) in Prometheus
//	    text exposition format: stage runs/cache tiers/latency, store IO
//	    and GC, alloc-engine solver internals, HTTP request metrics.
//	GET /v1/healthz
//	    Process liveness: 200 with uptime as long as the process serves.
//	GET /v1/readyz
//	    Readiness: 200 once every shard is warmed, the artifact store is
//	    writable and the worker queue is below its bound; 503 with the
//	    failing conditions otherwise.
//
// Every request carries a request id (the inbound X-Request-ID header, or
// a generated one), echoed in the X-Request-ID response header, stamped
// on the request's context — so spans started under the request share it
// — and logged in the JSON access-log record the server emits per /v1/*
// request. A response is therefore correlatable to its access-log line
// and its trace spans by one id.
//
// Sweep requests additionally accept trace=1: the request runs with span
// tracing enabled and the response carries a final per-span-name summary
// row ({"trace": ...}); the full Chrome-trace export stays a CLI affair
// (`wcetlab -trace`).
//
// All responses are JSON (except /v1/metrics); errors are
// {"error": "..."} with 4xx/5xx codes. /v1/stats and /v1/metrics respond
// without taking a worker slot, so the server stays observable under full
// load.
package service

import (
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/alloc"
	"repro/internal/benchprog"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/link"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/store"
	"repro/internal/wcet"
)

// Process-wide HTTP gauges: requests inside a handler, and requests
// queued waiting for a worker slot.
var (
	mInFlight = obs.Default.Gauge("wcetlab_http_in_flight",
		"HTTP requests currently being handled.")
	mQueueDepth = obs.Default.Gauge("wcetlab_http_queue_depth",
		"HTTP requests waiting for a worker-pool slot.")
	mStoreBytes = obs.Default.Gauge("wcetlab_store_open_bytes",
		"Bytes held by the attached artifact store (runtime-sampled).")
)

// Config configures a Server.
type Config struct {
	// Store is the shared artifact store backing every shard's pipeline;
	// nil serves from per-process memory only.
	Store *store.Store
	// Workers bounds concurrently served measurement requests (0 means
	// GOMAXPROCS). Requests beyond the bound wait, honouring their
	// context's cancellation, up to four times Workers waiting; the
	// rest are answered 503 with Retry-After.
	Workers int
	// LabWorkers bounds each shard's sweep worker pool (0 = GOMAXPROCS).
	LabWorkers int
	// GCInterval, when positive and Store is attached, applies GCPolicy to
	// the store every interval for as long as Run is serving, so a
	// long-running server's artifact store stays bounded.
	GCInterval time.Duration
	// GCPolicy is the retention policy periodic GC applies (age expiry,
	// then oldest-first size eviction — see store.Policy).
	GCPolicy store.Policy
}

// Server shards requests across per-benchmark labs.
type Server struct {
	cfg Config
	sem chan struct{}
	mux *http.ServeMux

	mu     sync.Mutex
	shards map[string]*shard

	benches map[string]benchprog.Benchmark
	names   []string // registry order

	start  time.Time
	warmed atomic.Bool
	// queued counts this server's requests waiting for a worker slot.
	queued atomic.Int64

	requests, failures atomic.Uint64

	gcRuns, gcRemoved, gcFreed, gcErrors atomic.Uint64
}

// shard is one benchmark's lazily built lab. The sync.Once makes the
// expensive compile+profile a singleflight of its own; lab is an atomic
// pointer so /v1/stats can observe built shards without blocking on (or
// racing with) one mid-construction.
type shard struct {
	once sync.Once
	lab  atomic.Pointer[core.Lab]
	err  error // read only after once.Do returns
}

// New builds a server; Handler serves its API.
func New(cfg Config) *Server {
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	s := &Server{
		cfg:     cfg,
		sem:     make(chan struct{}, workers),
		shards:  make(map[string]*shard),
		benches: make(map[string]benchprog.Benchmark),
		start:   time.Now(),
	}
	for _, b := range append(benchprog.All(), benchprog.WorstCaseSort) {
		s.benches[b.Name] = b
		s.names = append(s.names, b.Name)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/wcet", s.instrumented("/v1/wcet", s.handleWCET))
	mux.HandleFunc("GET /v1/sweep", s.instrumented("/v1/sweep", s.handleSweep))
	mux.HandleFunc("GET /v1/witness", s.instrumented("/v1/witness", s.handleWitness))
	mux.HandleFunc("GET /v1/stats", s.instrumented("/v1/stats", s.handleStats))
	mux.HandleFunc("GET /v1/metrics", s.instrumented("/v1/metrics", s.handleMetrics))
	mux.HandleFunc("GET /v1/healthz", s.instrumented("/v1/healthz", s.handleHealthz))
	mux.HandleFunc("GET /v1/readyz", s.instrumented("/v1/readyz", s.handleReadyz))
	s.mux = mux
	return s
}

// instrumented wraps a handler with the per-route request counter, latency
// histogram and the shared in-flight gauge, assigns the request its id
// (inbound X-Request-ID, or generated), and emits one JSON access-log
// record when the handler returns. The route label is the registered
// pattern, never the raw URL, so the label set stays bounded.
func (s *Server) instrumented(route string, h http.HandlerFunc) http.HandlerFunc {
	reqs := obs.Default.Counter("wcetlab_http_requests_total",
		"HTTP requests by route.", "route", route)
	lat := obs.Default.Histogram("wcetlab_http_request_seconds",
		"HTTP request latency by route.", nil, "route", route)
	return func(w http.ResponseWriter, r *http.Request) {
		rid := r.Header.Get("X-Request-ID")
		if rid == "" {
			rid = obs.NewRequestID()
		}
		ctx := obs.WithRequestID(r.Context(), rid)
		r = r.WithContext(ctx)
		w.Header().Set("X-Request-ID", rid)
		sw := &statusWriter{ResponseWriter: w}
		mInFlight.Add(1)
		reqs.Inc()
		t0 := time.Now()
		defer func() {
			d := time.Since(t0)
			lat.Observe(d.Seconds())
			mInFlight.Add(-1)
			obs.Log.LogAttrs(ctx, slog.LevelInfo, "request",
				slog.String("route", route), slog.String("method", r.Method),
				slog.Int("status", sw.Status()), slog.Int64("bytes", sw.bytes),
				slog.Float64("dur_ms", float64(d)/float64(time.Millisecond)))
		}()
		h(sw, r)
	}
}

// statusWriter captures the response status and size for the access log.
// It forwards Flush, so streamed sweep responses keep flushing through
// the wrapper.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(p)
	w.bytes += int64(n)
	return n, err
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// Status is the status actually sent (200 if the handler never set one).
func (w *statusWriter) Status() int {
	if w.status == 0 {
		return http.StatusOK
	}
	return w.status
}

// Handler returns the HTTP handler serving the API.
func (s *Server) Handler() http.Handler { return s.mux }

// Connection timeouts of every HTTP listener the process opens (the API
// and the pprof endpoints): ReadHeaderTimeout bounds how long a client may
// take to send its request headers, so a stalled or slow client cannot
// hold a connection open forever; IdleTimeout closes keep-alive
// connections idle that long between requests.
const (
	ReadHeaderTimeout = 10 * time.Second
	IdleTimeout       = 2 * time.Minute
)

// NewHTTPServer returns an http.Server serving h with the connection
// timeouts above.
func NewHTTPServer(h http.Handler) *http.Server {
	return &http.Server{Handler: h, ReadHeaderTimeout: ReadHeaderTimeout, IdleTimeout: IdleTimeout}
}

// Run serves the API on addr until ctx is cancelled, then shuts down
// gracefully (in-flight requests drain, new connections are refused).
// ready, when non-nil, is called with the bound address once the listener
// is open — with addr ":0" this is how the caller learns the port.
func (s *Server) Run(ctx context.Context, addr string, ready func(boundAddr string)) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("service: %w", err)
	}
	if ready != nil {
		ready(ln.Addr().String())
	}
	obs.SetBuildInfo(obs.Default)
	stopSampler := obs.StartRuntimeSampler(obs.Default, 10*time.Second, s.sampleStore)
	defer stopSampler()
	go s.Warmup(ctx)
	if s.cfg.Store != nil && s.cfg.GCInterval > 0 {
		go s.gcLoop(ctx)
	}
	srv := NewHTTPServer(s.mux)
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case err := <-errc:
		return fmt.Errorf("service: %w", err)
	case <-ctx.Done():
	}
	shutCtx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	err = srv.Shutdown(shutCtx)
	<-errc // Serve has returned http.ErrServerClosed
	return err
}

// gcLoop applies the configured retention policy to the artifact store on
// every GCInterval tick until ctx is cancelled. Failures are counted, not
// fatal: the store self-heals corrupt entries on read, so a missed GC
// pass costs disk space, never correctness.
func (s *Server) gcLoop(ctx context.Context) {
	t := time.NewTicker(s.cfg.GCInterval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case now := <-t.C:
			removed, freed, err := s.cfg.Store.GCPolicy(now, s.cfg.GCPolicy)
			s.gcRuns.Add(1)
			s.gcRemoved.Add(uint64(removed))
			s.gcFreed.Add(uint64(freed))
			if err != nil {
				s.gcErrors.Add(1)
			}
		}
	}
}

// Warmup builds every shard's lab (compile + profile) so first requests
// pay no construction latency; Run launches it in the background and
// /v1/readyz reports ready once it finishes. Build failures are logged
// and retried on demand, not fatal: a shard whose benchmark cannot build
// still fails its own requests with the same error.
func (s *Server) Warmup(ctx context.Context) {
	wctx, sp := obs.Start(obs.WithRequestID(ctx, "warmup"), "warmup", obs.A("shards", len(s.names)))
	defer sp.End()
	for _, name := range s.names {
		if ctx.Err() != nil {
			return
		}
		if _, err := s.lab(name); err != nil {
			obs.Log.WarnContext(wctx, "warmup shard failed", "bench", name, "err", err)
		}
	}
	s.warmed.Store(true)
	obs.Log.InfoContext(wctx, "warmup complete", "shards", len(s.names),
		"uptime_s", time.Since(s.start).Seconds())
}

// Warmed reports whether the background warmup has built every shard.
func (s *Server) Warmed() bool { return s.warmed.Load() }

// RequestTotals reports the requests served and failed so far (the final
// shutdown log line reports them).
func (s *Server) RequestTotals() (requests, failures uint64) {
	return s.requests.Load(), s.failures.Load()
}

// sampleStore refreshes the open-store gauge; the runtime sampler calls
// it after each tick so store growth is visible between GC passes.
func (s *Server) sampleStore() {
	if s.cfg.Store == nil {
		return
	}
	if _, bytes, err := s.cfg.Store.Usage(); err == nil {
		mStoreBytes.Set(bytes)
	}
}

// queueBound is the bound on queued requests: four full worker pools
// already waiting means new traffic would sit far behind current work, so
// readiness probes steer it elsewhere and acquire sheds it.
func (s *Server) queueBound() int64 { return int64(4 * cap(s.sem)) }

// handleHealthz is pure liveness: 200 as long as the process serves.
// Like /v1/stats it takes no worker slot.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	s.writeJSON(w, http.StatusOK, map[string]any{
		"status":   "ok",
		"uptime_s": time.Since(s.start).Seconds(),
	})
}

// handleReadyz reports whether the server should receive measurement
// traffic: every shard warmed, the artifact store (if any) writable, and
// the worker queue below its bound. 503 lists the failing conditions.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	var reasons []string
	if !s.warmed.Load() {
		reasons = append(reasons, "shards warming")
	}
	if s.cfg.Store != nil {
		if err := s.cfg.Store.Writable(); err != nil {
			reasons = append(reasons, "store not writable: "+err.Error())
		}
	}
	if qd := s.queued.Load(); qd >= s.queueBound() {
		reasons = append(reasons, fmt.Sprintf("queue depth %d at bound %d", qd, s.queueBound()))
	}
	if len(reasons) > 0 {
		s.writeJSON(w, http.StatusServiceUnavailable, map[string]any{"ready": false, "reasons": reasons})
		return
	}
	s.writeJSON(w, http.StatusOK, map[string]any{
		"ready":    true,
		"uptime_s": time.Since(s.start).Seconds(),
	})
}

// lab returns (building on first use) the shard for a benchmark name.
func (s *Server) lab(name string) (*core.Lab, error) {
	b, ok := s.benches[name]
	if !ok {
		return nil, fmt.Errorf("unknown benchmark %q (available: %v)", name, s.names)
	}
	s.mu.Lock()
	sh := s.shards[name]
	if sh == nil {
		sh = &shard{}
		s.shards[name] = sh
	}
	s.mu.Unlock()
	sh.once.Do(func() {
		lab, err := core.NewLabWithStore(b, s.cfg.Store)
		if err != nil {
			sh.err = err
			return
		}
		lab.Workers = s.cfg.LabWorkers
		sh.lab.Store(lab)
	})
	if lab := sh.lab.Load(); lab != nil {
		return lab, nil
	}
	return nil, sh.err
}

// acquire takes a worker slot, failing the request if it is cancelled
// while waiting. A request that finds queueBound requests already waiting
// is shed at once: 503 with Retry-After, rather than a wait without
// limit. Release the slot with release().
func (s *Server) acquire(w http.ResponseWriter, r *http.Request) bool {
	select {
	case s.sem <- struct{}{}:
		return true
	default:
	}
	if s.queued.Add(1) > s.queueBound() {
		s.queued.Add(-1)
		w.Header().Set("Retry-After", "1")
		s.writeError(w, http.StatusServiceUnavailable,
			fmt.Sprintf("overloaded: %d requests already wait for a worker", s.queueBound()))
		return false
	}
	mQueueDepth.Add(1)
	defer func() {
		s.queued.Add(-1)
		mQueueDepth.Add(-1)
	}()
	select {
	case s.sem <- struct{}{}:
		return true
	case <-r.Context().Done():
		s.writeError(w, http.StatusServiceUnavailable, "cancelled while waiting for a worker")
		return false
	}
}

func (s *Server) release() { <-s.sem }

// measurementDTO is the JSON projection of one core.Measurement.
type measurementDTO struct {
	Benchmark   string  `json:"benchmark"`
	SPMSize     uint32  `json:"spm_size"`
	CacheSize   uint32  `json:"cache_size"`
	SimCycles   uint64  `json:"sim_cycles"`
	WCET        uint64  `json:"wcet"`
	Ratio       float64 `json:"ratio"`
	CacheHits   uint64  `json:"cache_hits,omitempty"`
	CacheMisses uint64  `json:"cache_misses,omitempty"`
	SPMUsed     uint32  `json:"spm_used,omitempty"`
	SPMObjects  int     `json:"spm_objects,omitempty"`
	EnergyNJ    float64 `json:"energy_nj,omitempty"`
}

func toDTO(m core.Measurement) measurementDTO {
	return measurementDTO{
		Benchmark:   m.Benchmark,
		SPMSize:     m.SPMSize,
		CacheSize:   m.CacheSize,
		SimCycles:   m.SimCycles,
		WCET:        m.WCET,
		Ratio:       m.Ratio(),
		CacheHits:   m.CacheHits,
		CacheMisses: m.CacheMisses,
		SPMUsed:     m.SPMUsed,
		SPMObjects:  m.SPMObjects,
		EnergyNJ:    m.Energy,
	}
}

func (s *Server) handleWCET(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	q := r.URL.Query()
	// The query, cache configuration included, is checked before any shard
	// is built or worker slot taken.
	measure := (*core.Lab).Baseline
	spmStr, cacheStr := q.Get("spm"), q.Get("cache")
	switch {
	case spmStr != "" && cacheStr != "":
		s.writeError(w, http.StatusBadRequest, "spm and cache are mutually exclusive")
		return
	case spmStr != "":
		size, perr := parseSize(spmStr)
		if perr != nil {
			s.writeError(w, http.StatusBadRequest, "spm: "+perr.Error())
			return
		}
		if size > link.SPMMax {
			s.writeError(w, http.StatusBadRequest, fmt.Sprintf("spm %d exceeds maximum %d", size, link.SPMMax))
			return
		}
		measure = func(lab *core.Lab, ctx context.Context) (core.Measurement, error) {
			return lab.WithScratchpad(ctx, size)
		}
	case cacheStr != "":
		size, perr := parseSize(cacheStr)
		if perr != nil {
			s.writeError(w, http.StatusBadRequest, "cache: "+perr.Error())
			return
		}
		assoc := 1
		if a := q.Get("assoc"); a != "" {
			assoc, perr = strconv.Atoi(a)
			if perr != nil || assoc < 1 {
				s.writeError(w, http.StatusBadRequest, "assoc must be a positive integer")
				return
			}
		}
		if err := (cache.Config{Size: size, Assoc: assoc}).Validate(); err != nil {
			s.writeError(w, http.StatusBadRequest, err.Error())
			return
		}
		measure = func(lab *core.Lab, ctx context.Context) (core.Measurement, error) {
			return lab.WithCache(ctx, size, assoc)
		}
	}
	lab, ok := s.shardFor(w, q.Get("bench"))
	if !ok {
		return
	}
	if !s.acquire(w, r) {
		return
	}
	defer s.release()
	m, err := measure(lab, r.Context())
	if err != nil {
		s.serverError(w, err)
		return
	}
	s.writeJSON(w, http.StatusOK, toDTO(m))
}

// allocComparisonDTO is the JSON projection of one core.AllocComparison.
type allocComparisonDTO struct {
	SPMSize     uint32         `json:"spm_size"`
	Granularity string         `json:"granularity"`
	Energy      measurementDTO `json:"energy_directed"`
	WCET        measurementDTO `json:"wcet_directed"`
	SplitFuncs  int            `json:"split_funcs,omitempty"`
	Iterations  int            `json:"iterations"`
	Converged   bool           `json:"converged"`
}

// paretoPointDTO is the JSON projection of one alloc.ParetoPoint.
type paretoPointDTO struct {
	Kind          string   `json:"kind"`
	Budget        uint64   `json:"budget"`
	WCET          uint64   `json:"wcet"`
	EnergyNJ      float64  `json:"energy_nj"`
	EnergyBenefit float64  `json:"energy_benefit_nj"`
	SPMUsed       uint32   `json:"spm_used"`
	InSPM         []string `json:"in_spm"`
	Iterations    int      `json:"iterations"`
	Converged     bool     `json:"converged"`
}

// paretoFrontDTO is the JSON projection of one capacity's Pareto front.
type paretoFrontDTO struct {
	Benchmark string           `json:"benchmark"`
	SPMSize   uint32           `json:"spm_size"`
	Points    []paretoPointDTO `json:"points"`
}

func toParetoDTO(f core.ParetoFrontAt) paretoFrontDTO {
	out := paretoFrontDTO{Benchmark: f.Benchmark, SPMSize: f.SPMSize, Points: make([]paretoPointDTO, len(f.Points))}
	for i, pt := range f.Points {
		names := make([]string, 0, len(pt.InSPM))
		for n, in := range pt.InSPM {
			if in {
				names = append(names, n)
			}
		}
		sort.Strings(names)
		out.Points[i] = paretoPointDTO{
			Kind:          pt.Kind,
			Budget:        pt.Budget,
			WCET:          pt.WCET,
			EnergyNJ:      pt.EnergyNJ,
			EnergyBenefit: pt.EnergyBenefit,
			SPMUsed:       pt.Used,
			InSPM:         names,
			Iterations:    pt.Iterations,
			Converged:     pt.Converged,
		}
	}
	return out
}

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	q := r.URL.Query()
	// Every parameter is checked before any shard is built or worker slot
	// taken.
	gran, err := alloc.ParseGranularity(q.Get("granularity"))
	if err != nil {
		s.writeError(w, http.StatusBadRequest, "granularity must be object or block")
		return
	}
	var sweep func(ctx context.Context, lab *core.Lab, emit func(any) error) error
	switch q.Get("branch") {
	case "", "spm":
		sweep = func(ctx context.Context, lab *core.Lab, emit func(any) error) error {
			return lab.SweepScratchpadStream(ctx, func(m core.Measurement) error { return emit(toDTO(m)) })
		}
	case "cache":
		sweep = func(ctx context.Context, lab *core.Lab, emit func(any) error) error {
			return lab.SweepCacheStream(ctx, func(m core.Measurement) error { return emit(toDTO(m)) })
		}
	case "wcetalloc":
		sweep = func(ctx context.Context, lab *core.Lab, emit func(any) error) error {
			return lab.SweepWCETAllocationGranStream(ctx, gran, func(c core.AllocComparison) error {
				return emit(allocComparisonDTO{
					SPMSize:     c.SPMSize,
					Granularity: c.Granularity.String(),
					Energy:      toDTO(c.Energy),
					WCET:        toDTO(c.WCET),
					SplitFuncs:  len(c.Splits),
					Iterations:  c.Iterations,
					Converged:   c.Converged,
				})
			})
		}
	case "pareto":
		adaptive := q.Get("adaptive") == "1"
		maxPoints := 0
		if mp := q.Get("maxpoints"); mp != "" {
			n, perr := strconv.Atoi(mp)
			if perr != nil {
				s.writeError(w, http.StatusBadRequest, "maxpoints must be an integer ≥ 2")
				return
			}
			maxPoints = n
		}
		if verr := (alloc.ParetoOptions{Adaptive: adaptive, MaxPoints: maxPoints}).Validate(); verr != nil {
			s.writeError(w, http.StatusBadRequest, verr.Error())
			return
		}
		sweep = func(ctx context.Context, lab *core.Lab, emit func(any) error) error {
			// Adaptive scan options apply to this request only: the shard's
			// lab is shared, so the overrides go on a shallow per-request
			// copy (the pipeline behind it — and with it all memoization —
			// stays shared).
			pl := *lab
			pl.ParetoAdaptive = adaptive
			if maxPoints > 0 {
				pl.ParetoMaxPoints = maxPoints
			}
			return pl.SweepParetoStream(ctx, func(f core.ParetoFrontAt) error { return emit(toParetoDTO(f)) })
		}
	default:
		s.writeError(w, http.StatusBadRequest, "branch must be spm, cache, wcetalloc or pareto")
		return
	}
	stream := q.Get("stream") == "1"
	traced := q.Get("trace") == "1"
	lab, ok := s.shardFor(w, q.Get("bench"))
	if !ok {
		return
	}
	if !s.acquire(w, r) {
		return
	}
	defer s.release()
	s.sweepResponse(r.Context(), w, stream, traced, func(ctx context.Context, emit func(any) error) error {
		return sweep(ctx, lab, emit)
	})
}

// traceSummaryDTO is the final row of a trace=1 sweep response.
type traceSummaryDTO struct {
	Trace struct {
		Spans   int               `json:"spans"`
		Summary []obs.SpanSummary `json:"summary"`
	} `json:"trace"`
}

// sweepResponse renders one sweep's rows either buffered (a JSON array,
// written when the sweep completes) or streamed (chunked JSON lines,
// application/x-ndjson: one row per line, flushed in capacity order as
// each row's computation finishes). The rows are identical in both modes;
// run receives the emit callback from the sweep's streaming driver. A
// failure before the first streamed row is a regular JSON error with a
// 5xx status; mid-stream (the status line is already sent) it becomes a
// final {"error": ...} row.
//
// With traced set, the run executes under the default tracer with a
// per-request root span (opened under the request's context, so every
// span of the run carries the request id), and a successful response
// carries one extra final row summarising the request's spans by name —
// in both modes, so buffered and streamed responses stay row-for-row
// identical.
func (s *Server) sweepResponse(ctx context.Context, w http.ResponseWriter, stream, traced bool, run func(ctx context.Context, emit func(any) error) error) {
	var finish func() any
	if traced {
		obs.DefaultTracer.Enable()
		defer obs.DefaultTracer.Disable()
		rctx, root := obs.Start(ctx, "request")
		ctx = rctx
		finish = func() any {
			root.End()
			spans := obs.DefaultTracer.Collect(root.ID())
			var out traceSummaryDTO
			out.Trace.Spans = len(spans)
			out.Trace.Summary = obs.Summarize(spans)
			return out
		}
	}
	if !stream {
		rows := []any{}
		if err := run(ctx, func(v any) error { rows = append(rows, v); return nil }); err != nil {
			s.serverError(w, err)
			return
		}
		if finish != nil {
			rows = append(rows, finish())
		}
		s.writeJSON(w, http.StatusOK, rows)
		return
	}
	enc := json.NewEncoder(w)
	flusher, _ := w.(http.Flusher)
	started := false
	emit := func(v any) error {
		if !started {
			started = true
			w.Header().Set("Content-Type", "application/x-ndjson")
			w.WriteHeader(http.StatusOK)
		}
		if err := enc.Encode(v); err != nil {
			return err
		}
		if flusher != nil {
			flusher.Flush()
		}
		return nil
	}
	err := run(ctx, emit)
	if err != nil {
		if !started {
			s.serverError(w, err)
			return
		}
		s.failures.Add(1)
		enc.Encode(map[string]string{"error": err.Error()})
		return
	}
	if finish != nil {
		emit(finish())
	}
}

// witnessDTO is the JSON projection of a baseline worst-case witness.
type witnessDTO struct {
	Benchmark string            `json:"benchmark"`
	WCET      uint64            `json:"wcet"`
	Objects   []wcet.ObjectRank `json:"objects"`
	Blocks    []wcet.BlockRank  `json:"blocks"`
}

func (s *Server) handleWitness(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	q := r.URL.Query()
	top := 10
	if t := q.Get("top"); t != "" {
		var err error
		top, err = strconv.Atoi(t)
		if err != nil || top <= 0 {
			s.writeError(w, http.StatusBadRequest, "top must be a positive integer")
			return
		}
	}
	lab, ok := s.shardFor(w, q.Get("bench"))
	if !ok {
		return
	}
	if !s.acquire(w, r) {
		return
	}
	defer s.release()
	res, err := lab.Pipe.Analyze(r.Context(), 0, nil, wcet.Options{Witness: true})
	if err != nil {
		s.serverError(w, err)
		return
	}
	s.writeJSON(w, http.StatusOK, witnessDTO{
		Benchmark: lab.Bench.Name,
		WCET:      res.WCET,
		Objects:   res.Witness.TopObjects(top),
		Blocks:    res.Witness.TopBlocks(top),
	})
}

// stageStatsDTO is the JSON projection of one pipeline.Stats snapshot.
type stageStatsDTO struct {
	Links           uint64  `json:"links"`
	LinkHits        uint64  `json:"link_hits"`
	Sims            uint64  `json:"sims"`
	SimHits         uint64  `json:"sim_hits"`
	SimsRetimed     uint64  `json:"sims_retimed"`
	SimsSwept       uint64  `json:"sims_swept"`
	Analyses        uint64  `json:"analyses"`
	AnalyzeHits     uint64  `json:"analyze_hits"`
	AnalyzeUpgrades uint64  `json:"analyze_upgrades"`
	Profiles        uint64  `json:"profiles"`
	ProfileHits     uint64  `json:"profile_hits"`
	Allocs          uint64  `json:"allocs"`
	AllocHits       uint64  `json:"alloc_hits"`
	SkeletonBuilds  uint64  `json:"skeleton_builds"`
	SkeletonReuses  uint64  `json:"skeleton_reuses"`
	ContextBuilds   uint64  `json:"context_builds"`
	ContextReuses   uint64  `json:"context_reuses"`
	CacheCtxBuilds  uint64  `json:"cache_context_builds"`
	CacheCtxReuses  uint64  `json:"cache_context_reuses"`
	CacheFuncsRerun uint64  `json:"cache_funcs_reanalyzed"`
	CacheFuncs      uint64  `json:"cache_funcs"`
	SolverHits      uint64  `json:"solver_state_hits"`
	SolverMisses    uint64  `json:"solver_state_misses"`
	DiskHits        uint64  `json:"disk_hits"`
	DiskMisses      uint64  `json:"disk_misses"`
	StoreErrors     uint64  `json:"store_errors"`
	LinkMS          float64 `json:"link_ms"`
	SimMS           float64 `json:"sim_ms"`
	AnalyzeMS       float64 `json:"analyze_ms"`
	ProfileMS       float64 `json:"profile_ms"`
	AllocMS         float64 `json:"alloc_ms"`
	// Latency holds per-stage cold-execution latency quantiles derived
	// from the registry's histograms (absent for stages that never ran
	// cold in this process).
	Latency map[string]latencyDTO `json:"latency,omitempty"`
}

// latencyDTO is one stage's latency distribution: bucket-derived
// quantiles plus the exact maximum, in milliseconds.
type latencyDTO struct {
	Count uint64  `json:"count"`
	P50MS float64 `json:"p50_ms"`
	P95MS float64 `json:"p95_ms"`
	P99MS float64 `json:"p99_ms"`
	MaxMS float64 `json:"max_ms"`
}

// stageLatency projects the registry's stage histograms for one benchmark
// ("" for all) into the DTO form.
func stageLatency(bench string) map[string]latencyDTO {
	lat := pipeline.StageLatency(bench)
	if len(lat) == 0 {
		return nil
	}
	out := make(map[string]latencyDTO, len(lat))
	for stage, h := range lat {
		out[stage] = latencyDTO{
			Count: h.Count,
			P50MS: h.Quantile(0.50) * 1000,
			P95MS: h.Quantile(0.95) * 1000,
			P99MS: h.Quantile(0.99) * 1000,
			MaxMS: h.Max * 1000,
		}
	}
	return out
}

func toStatsDTO(st pipeline.Stats) stageStatsDTO {
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	return stageStatsDTO{
		Links:           st.Links,
		LinkHits:        st.LinkHits,
		Sims:            st.Sims,
		SimHits:         st.SimHits,
		SimsRetimed:     st.SimsRetimed,
		SimsSwept:       st.SimsSwept,
		Analyses:        st.Analyses,
		AnalyzeHits:     st.AnalyzeHits,
		AnalyzeUpgrades: st.AnalyzeUpgrades,
		Profiles:        st.Profiles,
		ProfileHits:     st.ProfileHits,
		Allocs:          st.Allocs,
		AllocHits:       st.AllocHits,
		SkeletonBuilds:  st.SkeletonBuilds,
		SkeletonReuses:  st.SkeletonReuses,
		ContextBuilds:   st.ContextBuilds,
		ContextReuses:   st.ContextReuses,
		CacheCtxBuilds:  st.CacheContextBuilds,
		CacheCtxReuses:  st.CacheContextReuses,
		CacheFuncsRerun: st.CacheFuncsReanalyzed,
		CacheFuncs:      st.CacheFuncs,
		SolverHits:      st.SolverStateHits,
		SolverMisses:    st.SolverStateMisses,
		DiskHits:        st.DiskHits(),
		DiskMisses:      st.DiskMisses(),
		StoreErrors:     st.StoreErrors,
		LinkMS:          ms(st.LinkTime),
		SimMS:           ms(st.SimTime),
		AnalyzeMS:       ms(st.AnalyzeTime),
		ProfileMS:       ms(st.ProfileTime),
		AllocMS:         ms(st.AllocTime),
	}
}

type storeStatsDTO struct {
	Dir     string `json:"dir"`
	Entries int    `json:"entries"`
	Bytes   int64  `json:"bytes"`
}

// gcStatsDTO reports the periodic store GC's work since startup.
type gcStatsDTO struct {
	Interval       string `json:"interval"`
	Runs           uint64 `json:"runs"`
	EntriesRemoved uint64 `json:"entries_removed"`
	BytesFreed     uint64 `json:"bytes_freed"`
	Errors         uint64 `json:"errors"`
}

type statsDTO struct {
	Workers    int                      `json:"workers"`
	InFlight   int                      `json:"in_flight"`
	Requests   uint64                   `json:"requests"`
	Failures   uint64                   `json:"failures"`
	Store      *storeStatsDTO           `json:"store,omitempty"`
	GC         *gcStatsDTO              `json:"gc,omitempty"`
	Benchmarks map[string]stageStatsDTO `json:"benchmarks"`
	Total      stageStatsDTO            `json:"total"`
}

// handleStats responds without taking a worker slot, so the server stays
// observable under full load.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	out := statsDTO{
		Workers:    cap(s.sem),
		InFlight:   len(s.sem),
		Requests:   s.requests.Load(),
		Failures:   s.failures.Load(),
		Benchmarks: make(map[string]stageStatsDTO),
	}
	var total pipeline.Stats
	s.mu.Lock()
	labs := make(map[string]*core.Lab, len(s.shards))
	for name, sh := range s.shards {
		if lab := sh.lab.Load(); lab != nil {
			labs[name] = lab
		}
	}
	s.mu.Unlock()
	for name, lab := range labs {
		st := lab.Pipe.Stats()
		total.Add(st)
		dto := toStatsDTO(st)
		dto.Latency = stageLatency(name)
		out.Benchmarks[name] = dto
	}
	out.Total = toStatsDTO(total)
	out.Total.Latency = stageLatency("")
	if s.cfg.Store != nil {
		ss := &storeStatsDTO{Dir: s.cfg.Store.Dir()}
		if entries, bytes, err := s.cfg.Store.Usage(); err == nil {
			ss.Entries = entries
			ss.Bytes = bytes
		}
		out.Store = ss
	}
	if s.cfg.Store != nil && s.cfg.GCInterval > 0 {
		out.GC = &gcStatsDTO{
			Interval:       s.cfg.GCInterval.String(),
			Runs:           s.gcRuns.Load(),
			EntriesRemoved: s.gcRemoved.Load(),
			BytesFreed:     s.gcFreed.Load(),
			Errors:         s.gcErrors.Load(),
		}
	}
	s.writeJSON(w, http.StatusOK, out)
}

// handleMetrics serves the process-wide metrics registry in Prometheus
// text exposition format. Like /v1/stats it takes no worker slot.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	obs.Default.WritePrometheus(w)
}

// shardFor resolves the bench query parameter to a built shard, writing
// the HTTP error itself when it cannot.
func (s *Server) shardFor(w http.ResponseWriter, name string) (*core.Lab, bool) {
	if name == "" {
		s.writeError(w, http.StatusBadRequest, "missing bench parameter")
		return nil, false
	}
	lab, err := s.lab(name)
	if err != nil {
		if _, known := s.benches[name]; !known {
			s.writeError(w, http.StatusNotFound, err.Error())
		} else {
			s.serverError(w, err)
		}
		return nil, false
	}
	return lab, true
}

func parseSize(s string) (uint32, error) {
	v, err := strconv.ParseUint(s, 10, 32)
	if err != nil {
		return 0, fmt.Errorf("%q is not a valid size in bytes", s)
	}
	return uint32(v), nil
}

func (s *Server) writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func (s *Server) writeError(w http.ResponseWriter, code int, msg string) {
	s.failures.Add(1)
	s.writeJSON(w, code, map[string]string{"error": msg})
}

func (s *Server) serverError(w http.ResponseWriter, err error) {
	s.writeError(w, http.StatusInternalServerError, err.Error())
}
