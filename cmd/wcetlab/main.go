// Command wcetlab regenerates every table and figure of the paper as text
// and serves the same measurements over HTTP:
//
//	wcetlab table1              Table 1: cycles per memory access
//	wcetlab table2              Table 2: benchmark list
//	wcetlab fig3                Figure 3: G.721 sim & WCET vs SPM/cache size
//	wcetlab fig4                Figure 4: G.721 WCET/sim ratio
//	wcetlab fig5                Figure 5: MultiSort WCET/sim ratio
//	wcetlab fig6                Figure 6: ADPCM sim & WCET, SPM vs cache
//	wcetlab precision           §4 worst-case-input precision experiment
//	wcetlab sweep <benchmark>   full sweep table for any Table 2 benchmark
//	wcetlab wcetsweep <bench>   WCET-directed vs energy-directed allocation
//	wcetlab pareto <bench>      energy/WCET Pareto front per capacity
//	                            (ε-constraint scan between the pure-energy
//	                            and pure-WCET allocations; -adaptive
//	                            bisects the largest certified gap instead,
//	                            -maxpoints N caps the adaptive front)
//	wcetlab witness <bench> [N] top-N worst-case blocks/objects (IPET witness)
//	                            plus the derived hot-region placement units;
//	                            -path renders the worst-case path as a CFG
//	                            walk (blocks with counts, unit ownership,
//	                            trampoline crossings)
//	wcetlab gc                  apply an age/size retention policy to the store
//	wcetlab serve               HTTP API over the same measurements; periodic
//	                            store GC behind -gc-interval/-max-age/-max-bytes
//	wcetlab all                 everything above except the per-benchmark reports
//
// "all" sweeps every benchmark once through the shared artifact pipeline
// (benchmarks in parallel) and prints every figure from that one data set,
// followed by the pipeline's stage statistics.
//
// Flags (before the subcommand):
//
//	-store DIR   content-addressed artifact store shared across runs
//	             (default $WCETLAB_STORE, else ~/.cache/wcetlab; "off"
//	             disables). With a warm store a second `wcetlab all`
//	             performs zero simulations and zero WCET analyses.
//	-workers N   sweep worker pool size (0 = GOMAXPROCS)
//	-addr ADDR   serve listen address (default localhost:8177; :0 picks
//	             a free port and prints it)
//	-granularity object|block
//	             placement-unit granularity for the WCET-directed
//	             allocator (wcetsweep): "block" splits hot loop regions
//	             out of functions and places the fragments independently
//	-trace FILE  record every span of the run (sweep → cell → stage →
//	             solve, with cache tiers and per-iteration bounds) and
//	             write a Chrome trace-event JSON to FILE on exit; open
//	             it in chrome://tracing or https://ui.perfetto.dev.
//	             During serve a SIGINT/SIGTERM additionally snapshots
//	             the spans recorded so far to FILE before the graceful
//	             drain, so a hung shutdown cannot lose the trace.
//	-log LEVEL   structured-log level: off, error, warn, info or debug
//	             (default info for serve, off for one-shot subcommands).
//	             Records are single-line JSON on stderr, carrying the
//	             request id of the work they describe.
//
// gc flags (after the subcommand): -max-age D removes entries older than
// the duration, -max-bytes N evicts oldest-first beyond the byte budget.
// serve accepts the same two flags plus -gc-interval D to apply that
// policy periodically for as long as the server runs, and -pprof ADDR to
// expose net/http/pprof on a second, private listener (never on the
// public /v1/* mux; empty disables, the default).
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/alloc"
	"repro/internal/benchprog"
	"repro/internal/cc"
	"repro/internal/cfg"
	"repro/internal/core"
	"repro/internal/link"
	"repro/internal/mem"
	"repro/internal/obj"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/service"
	"repro/internal/store"
	"repro/internal/wcet"
)

var (
	// artifactStore is the shared on-disk cache tier (nil when disabled).
	artifactStore *store.Store
	labWorkers    int
	granularity   alloc.Granularity
)

func main() {
	storeDir := flag.String("store", "", `artifact store directory (default $WCETLAB_STORE or ~/.cache/wcetlab; "off" disables)`)
	workers := flag.Int("workers", 0, "sweep worker pool size (0 = GOMAXPROCS)")
	addr := flag.String("addr", "localhost:8177", "serve listen address")
	gran := flag.String("granularity", "object", "WCET-directed placement-unit granularity: object or block")
	traceFile := flag.String("trace", "", "write a Chrome trace-event JSON of this run to FILE (view in Perfetto)")
	metricsFile := flag.String("metrics", "", "write the final Prometheus metrics exposition of this run to FILE")
	logLevel := flag.String("log", "", "log level: off, error, warn, info or debug (default info for serve, off otherwise)")
	flag.Usage = usage
	flag.Parse()
	args := flag.Args()
	if len(args) < 1 {
		usage()
		os.Exit(2)
	}
	lvlStr := *logLevel
	if lvlStr == "" {
		if args[0] == "serve" {
			lvlStr = "info"
		} else {
			lvlStr = "off"
		}
	}
	lvl, lerr := obs.ParseLevel(lvlStr)
	if lerr != nil {
		fmt.Fprintln(os.Stderr, "wcetlab:", lerr)
		os.Exit(2)
	}
	obs.LogLevel.Set(lvl)
	labWorkers = *workers
	if *traceFile != "" {
		obs.DefaultTracer.Enable()
		defer obs.DefaultTracer.Disable()
	}
	var err error
	granularity, err = alloc.ParseGranularity(*gran)
	if err != nil {
		fmt.Fprintln(os.Stderr, "wcetlab:", err)
		os.Exit(2)
	}
	artifactStore, err = openStore(*storeDir)
	if err != nil {
		obs.Log.Warn("artifact store disabled", "err", err)
		artifactStore, err = nil, nil
	}
	switch args[0] {
	case "table1":
		table1()
	case "table2":
		table2()
	case "fig3":
		err = fig3()
	case "fig4":
		err = fig4()
	case "fig5":
		err = fig5()
	case "fig6":
		err = fig6()
	case "precision":
		err = precision()
	case "sweep":
		if len(args) < 2 {
			usage()
			os.Exit(2)
		}
		err = sweep(args[1])
	case "all":
		err = all()
	case "wcetsweep":
		if len(args) < 2 {
			usage()
			os.Exit(2)
		}
		err = wcetsweep(args[1])
	case "pareto":
		if len(args) < 2 {
			usage()
			os.Exit(2)
		}
		fs := flag.NewFlagSet("pareto", flag.ContinueOnError)
		adaptive := fs.Bool("adaptive", false, "bisect the largest certified front gap instead of the even ε-step scan")
		maxPoints := fs.Int("maxpoints", 0, "adaptive front size cap, endpoints included (0 = the even scan's maximum)")
		if err := fs.Parse(args[2:]); err != nil {
			os.Exit(2)
		}
		opts := alloc.ParetoOptions{Adaptive: *adaptive, MaxPoints: *maxPoints}
		if verr := opts.Validate(); verr != nil {
			fmt.Fprintln(os.Stderr, "wcetlab:", verr)
			usage()
			os.Exit(2)
		}
		err = pareto(args[1], opts)
	case "witness":
		if len(args) < 2 {
			usage()
			os.Exit(2)
		}
		rest := args[2:]
		topN := 10
		if len(rest) > 0 && !strings.HasPrefix(rest[0], "-") {
			topN, err = strconv.Atoi(rest[0])
			if err != nil || topN <= 0 {
				usage()
				os.Exit(2)
			}
			rest = rest[1:]
		}
		fs := flag.NewFlagSet("witness", flag.ContinueOnError)
		path := fs.Bool("path", false, "render the worst-case path as a CFG walk in address order")
		if err := fs.Parse(rest); err != nil {
			os.Exit(2)
		}
		err = witness(args[1], topN, *path)
	case "serve":
		err = serve(*addr, *traceFile, args[1:])
	case "gc":
		err = gc(args[1:])
	default:
		usage()
		os.Exit(2)
	}
	// The trace is written even when the subcommand failed — a trace of a
	// failing run is exactly what the flag is for.
	if *traceFile != "" {
		if terr := writeTrace(*traceFile); terr != nil && err == nil {
			err = fmt.Errorf("trace: %w", terr)
		} else if terr != nil {
			obs.Log.Error("trace write failed", "err", terr)
		} else {
			obs.Log.Info("trace written", "file", *traceFile)
		}
	}
	// Like the trace, the metrics snapshot is written even on failure — the
	// counters of a failing run are diagnostic data.
	if *metricsFile != "" {
		if merr := writeMetrics(*metricsFile); merr != nil && err == nil {
			err = fmt.Errorf("metrics: %w", merr)
		} else if merr != nil {
			obs.Log.Error("metrics write failed", "err", merr)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "wcetlab:", err)
		os.Exit(1)
	}
}

// writeMetrics dumps the process metric registry in Prometheus exposition
// format — the one-shot-subcommand counterpart of scraping /v1/metrics.
func writeMetrics(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	werr := obs.Default.WritePrometheus(f)
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	return werr
}

// writeTrace drains the process tracer into a Chrome trace-event JSON file
// (chrome://tracing or https://ui.perfetto.dev can open it directly).
func writeTrace(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	werr := obs.DefaultTracer.WriteChromeTraceFile(f)
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	return werr
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: wcetlab [flags] {table1|table2|fig3|fig4|fig5|fig6|precision|sweep <bench>|wcetsweep <bench>|pareto <bench> [-adaptive] [-maxpoints N]|witness <bench> [topN] [-path]|gc [-max-age D] [-max-bytes N] [-drop KINDS]|serve [-gc-interval D] [-max-age D] [-max-bytes N] [-pprof ADDR]|all}

flags:
  -store DIR   artifact store directory (default $WCETLAB_STORE or
               ~/.cache/wcetlab; "off" disables)
  -workers N   sweep worker pool size (0 = GOMAXPROCS)
  -addr ADDR   serve listen address (default localhost:8177)
  -granularity object|block
               placement-unit granularity for the WCET-directed allocator
  -trace FILE  write a Chrome trace-event JSON of the run (any subcommand)
               for chrome://tracing or https://ui.perfetto.dev
  -metrics FILE
               write the run's final Prometheus metrics exposition to FILE
               (the one-shot counterpart of scraping /v1/metrics)
  -log LEVEL   structured-log level: off, error, warn, info or debug
               (default info for serve, off for one-shot subcommands)`)
}

// gc applies a retention policy to the artifact store: entries older than
// -max-age go first, then the oldest entries beyond -max-bytes.
func gc(args []string) error {
	fs := flag.NewFlagSet("gc", flag.ContinueOnError)
	maxAge := fs.Duration("max-age", 0, "remove entries older than this (0 keeps all ages)")
	maxBytes := fs.Int64("max-bytes", 0, "evict oldest entries beyond this store size (0 = unbounded)")
	drop := fs.String("drop", "", "comma-separated artifact kinds to remove outright (sim,wcet,profile,alloc)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if artifactStore == nil {
		return fmt.Errorf("gc: no artifact store configured (-store off?)")
	}
	var removed int
	var freed int64
	if *drop != "" {
		var kinds []store.Kind
		for _, name := range strings.Split(*drop, ",") {
			k, err := store.ParseKind(strings.TrimSpace(name))
			if err != nil {
				return fmt.Errorf("gc: %w", err)
			}
			kinds = append(kinds, k)
		}
		dn, db, err := artifactStore.DropKinds(kinds...)
		if err != nil {
			return err
		}
		removed += dn
		freed += db
	}
	gn, gb, err := artifactStore.GCPolicy(time.Now(), store.Policy{MaxAge: *maxAge, MaxBytes: *maxBytes})
	if err != nil {
		return err
	}
	removed += gn
	freed += gb
	entries, bytes, err := artifactStore.Usage()
	if err != nil {
		return err
	}
	fmt.Printf("gc: removed %d files (%d bytes) from %s; %d entries (%d bytes) remain\n",
		removed, freed, artifactStore.Dir(), entries, bytes)
	return nil
}

// openStore resolves the store directory — flag, then $WCETLAB_STORE, then
// ~/.cache/wcetlab — and opens it. "off" (or an unresolvable home with no
// override) disables the disk tier.
func openStore(dir string) (*store.Store, error) {
	if dir == "" {
		dir = os.Getenv("WCETLAB_STORE")
	}
	if dir == "" {
		home, err := os.UserHomeDir()
		if err != nil {
			return nil, nil
		}
		dir = filepath.Join(home, ".cache", "wcetlab")
	}
	if dir == "off" {
		return nil, nil
	}
	return store.Open(dir)
}

// newLab builds a registry lab wired to the artifact store and worker pool.
func newLab(name string) (*core.Lab, error) {
	lab, err := core.NewLabByNameWithStore(name, artifactStore)
	if err != nil {
		return nil, err
	}
	lab.Workers = labWorkers
	return lab, nil
}

// serve runs the HTTP API; -gc-interval (with the gc subcommand's
// -max-age/-max-bytes policy flags) applies the store retention policy
// periodically so a long-running server's artifact store stays bounded.
func serve(addr, traceFile string, args []string) error {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	gcInterval := fs.Duration("gc-interval", 0, "apply the retention policy to the store every interval (0 disables periodic GC)")
	maxAge := fs.Duration("max-age", 0, "periodic GC: remove entries older than this (0 keeps all ages)")
	maxBytes := fs.Int64("max-bytes", 0, "periodic GC: evict oldest entries beyond this store size (0 = unbounded)")
	pprofAddr := fs.String("pprof", "", "serve net/http/pprof on its own listener at this address (empty disables)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *gcInterval > 0 && artifactStore == nil {
		return fmt.Errorf("serve: -gc-interval needs an artifact store (-store)")
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *pprofAddr != "" {
		if err := servePprof(ctx, *pprofAddr); err != nil {
			return err
		}
	}
	if traceFile != "" {
		// Snapshot the spans recorded so far the moment a signal lands:
		// the graceful drain can take seconds (or hang), and a trace that
		// dies with the process is exactly what -trace must not lose. The
		// authoritative (draining) write still happens in main on return.
		go func() {
			<-ctx.Done()
			if err := snapshotTrace(traceFile); err != nil {
				obs.Log.Warn("trace snapshot failed", "err", err)
			} else {
				obs.Log.Info("trace snapshot written", "file", traceFile)
			}
		}()
	}
	srv := service.New(service.Config{
		Store:      artifactStore,
		Workers:    labWorkers,
		LabWorkers: labWorkers,
		GCInterval: *gcInterval,
		GCPolicy:   store.Policy{MaxAge: *maxAge, MaxBytes: *maxBytes},
	})
	t0 := time.Now()
	err := srv.Run(ctx, addr, func(bound string) {
		storeDesc := "off"
		if artifactStore != nil {
			storeDesc = artifactStore.Dir()
		}
		gcDesc := ""
		if *gcInterval > 0 {
			gcDesc = (*gcInterval).String()
		}
		obs.Log.Info("serving", "addr", "http://"+bound, "store", storeDesc, "gc", gcDesc)
	})
	requests, failures := srv.RequestTotals()
	obs.Log.Info("shutdown", "uptime_s", time.Since(t0).Seconds(),
		"requests", requests, "failures", failures)
	return err
}

// snapshotTrace writes a Chrome trace of the spans recorded so far
// without draining the tracer's buffer (unlike writeTrace).
func snapshotTrace(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	werr := obs.WriteChromeTrace(f, obs.DefaultTracer.Spans(), obs.DefaultTracer.Epoch())
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	return werr
}

// servePprof runs the net/http/pprof handlers on their own listener and
// mux, never on the public /v1/* server, so profiling stays opt-in and
// off the API surface. The server dies with ctx.
func servePprof(ctx context.Context, addr string) error {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("pprof: %w", err)
	}
	srv := service.NewHTTPServer(mux)
	obs.Log.InfoContext(ctx, "pprof listening", "addr", fmt.Sprintf("http://%s/debug/pprof/", ln.Addr()))
	go srv.Serve(ln)
	go func() {
		<-ctx.Done()
		sctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		srv.Shutdown(sctx)
	}()
	return nil
}

func header(title string) {
	fmt.Printf("\n%s\n%s\n", title, strings.Repeat("=", len(title)))
}

func table1() {
	header("Table 1: cycles per memory access (access + waitstates)")
	fmt.Printf("%-18s %12s %12s\n", "Access width", "Main memory", "Scratchpad")
	fmt.Printf("%-18s %12d %12d\n", "Byte (8 bit)", mem.MainByteCycles, mem.SPMCycles)
	fmt.Printf("%-18s %12d %12d\n", "Halfword (16 bit)", mem.MainHalfCycles, mem.SPMCycles)
	fmt.Printf("%-18s %12d %12d\n", "Word (32 bit)", mem.MainWordCycles, mem.SPMCycles)
}

func table2() {
	header("Table 2: benchmarks")
	fmt.Printf("%-12s %-70s %8s %8s\n", "Name", "Description", "objects", "bytes")
	for _, b := range benchprog.All() {
		prog, err := cc.Compile(b.Source)
		if err != nil {
			fmt.Printf("%-12s compile error: %v\n", b.Name, err)
			continue
		}
		var total uint32
		for _, o := range prog.Objects {
			total += o.Size()
		}
		fmt.Printf("%-12s %-70s %8d %8d\n", b.Name, b.Description, len(prog.Objects), total)
	}
}

func fig4() error {
	return figRatio("G.721", "Figure 4: G.721 ratio of WCET and simulated cycles")
}

func fig5() error {
	return figRatio("MultiSort", "Figure 5: MultiSort ratio of WCET and simulated cycles")
}

func sweepData(name string) ([]core.Measurement, []core.Measurement, error) {
	lab, err := newLab(name)
	if err != nil {
		return nil, nil, err
	}
	ctx := context.Background()
	spms, err := lab.SweepScratchpad(ctx)
	if err != nil {
		return nil, nil, err
	}
	caches, err := lab.SweepCache(ctx)
	if err != nil {
		return nil, nil, err
	}
	return spms, caches, nil
}

func printSweep(spms, caches []core.Measurement) {
	fmt.Printf("%8s | %12s %12s %6s | %12s %12s %6s\n",
		"size [B]", "SPM sim", "SPM WCET", "ratio", "cache sim", "cache WCET", "ratio")
	for i := range spms {
		fmt.Printf("%8d | %12d %12d %6.2f | %12d %12d %6.2f\n",
			spms[i].SPMSize,
			spms[i].SimCycles, spms[i].WCET, spms[i].Ratio(),
			caches[i].SimCycles, caches[i].WCET, caches[i].Ratio())
	}
}

// all regenerates every table and figure from one shared data set: each
// benchmark is swept once (benchmarks in parallel, artifacts memoized per
// pipeline and persisted to the store) and the figures are projections of
// those measurements. It closes with the pipelines' stage statistics —
// against a warm store the disk-miss total is zero.
func all() error {
	table1()
	table2()
	sweeps, err := core.SweepAllBenchmarksWithStore(context.Background(), labWorkers, artifactStore)
	if err != nil {
		return err
	}
	byName := make(map[string]core.BenchmarkSweep, len(sweeps))
	for _, s := range sweeps {
		byName[s.Lab.Bench.Name] = s
	}
	for _, name := range []string{"G.721", "MultiSort", "ADPCM"} {
		if _, ok := byName[name]; !ok {
			return fmt.Errorf("all: benchmark %s missing from the registry sweep", name)
		}
	}
	g721, multisort, adpcm := byName["G.721"], byName["MultiSort"], byName["ADPCM"]
	printFig3(g721.SPM, g721.Cache)
	printFigRatio("Figure 4: G.721 ratio of WCET and simulated cycles", g721.SPM, g721.Cache)
	printFigRatio("Figure 5: MultiSort ratio of WCET and simulated cycles", multisort.SPM, multisort.Cache)
	printFig6(adpcm.SPM, adpcm.Cache)
	plab, err := core.NewLabWithStore(benchprog.WorstCaseSort, artifactStore)
	if err != nil {
		return err
	}
	if err := printPrecision(plab); err != nil {
		return err
	}
	labs := make([]*core.Lab, 0, len(sweeps)+1)
	for _, s := range sweeps {
		labs = append(labs, s.Lab)
	}
	labs = append(labs, plab)
	printPipelineStats(labs)
	printIncrementalStats(labs)
	printStageLatency(labs)
	return nil
}

// printIncrementalStats renders the incremental-analysis counters: per
// benchmark, the analysis skeletons built (one per partition, shared by
// every mode's engine) and how often a cache-less or cache engine was
// reused instead of rebuilt; and process-wide how much repricing and LP
// warm-starting saved over a from-scratch run (repriced vs total blocks,
// re-solved vs total functions, warm vs dual vs cold simplex pivots).
func printIncrementalStats(labs []*core.Lab) {
	header("Incremental analysis")
	fmt.Printf("%-14s %12s %12s %12s %12s %12s\n", "benchmark", "skeletons", "ctx builds", "ctx reuses", "cctx builds", "cctx reuses")
	var skels, builds, reuses, cbuilds, creuses uint64
	for _, l := range labs {
		s := l.Pipe.Stats()
		skels += s.SkeletonBuilds
		builds += s.ContextBuilds
		reuses += s.ContextReuses
		cbuilds += s.CacheContextBuilds
		creuses += s.CacheContextReuses
		fmt.Printf("%-14s %12d %12d %12d %12d %12d\n", l.Bench.Name,
			s.SkeletonBuilds, s.ContextBuilds, s.ContextReuses, s.CacheContextBuilds, s.CacheContextReuses)
	}
	fmt.Printf("%-14s %12d %12d %12d %12d %12d\n", "total", skels, builds, reuses, cbuilds, creuses)
	val := func(name, help string, kv ...string) uint64 {
		return obs.Default.Counter(name, help, kv...).Value()
	}
	repriced := val("wcetlab_context_blocks_repriced_total", "Blocks re-priced by incremental analyses.")
	blocks := val("wcetlab_context_blocks_total", "Blocks held by analysis contexts at each analysis.")
	solved := val("wcetlab_context_funcs_solved_total", "Per-function IPET solves incremental analyses ran.")
	funcs := val("wcetlab_context_funcs_total", "Functions held by analysis contexts at each analysis.")
	warmPivots := val("wcetlab_lp_pivots_total", "Simplex pivots by solve mode.", "mode", "warm")
	coldPivots := val("wcetlab_lp_pivots_total", "Simplex pivots by solve mode.", "mode", "cold")
	dualPivots := val("wcetlab_lp_pivots_total", "Simplex pivots by solve mode.", "mode", "dual")
	pct := func(part, whole uint64) float64 {
		if whole == 0 {
			return 0
		}
		return 100 * float64(part) / float64(whole)
	}
	stateHits := val("wcetlab_solver_state_hits_total", "IPET solves served from recorded solver state.")
	stateMisses := val("wcetlab_solver_state_misses_total", "IPET solves that ran for lack of recorded state.")
	cacheRerun := val("wcetlab_cache_context_funcs_reanalyzed_total", "Functions whose MUST fixed point re-ran across cache-context analyses.")
	cacheFuncs := val("wcetlab_cache_context_funcs_total", "Functions in scope across cache-context analyses.")
	fmt.Printf("\nblocks re-priced:  %d of %d (%.1f%%)\n", repriced, blocks, pct(repriced, blocks))
	fmt.Printf("functions solved:  %d of %d (%.1f%%)\n", solved, funcs, pct(solved, funcs))
	fmt.Printf("cache funcs rerun: %d of %d (%.1f%%)\n", cacheRerun, cacheFuncs, pct(cacheRerun, cacheFuncs))
	fmt.Printf("simplex pivots:    %d warm, %d dual, %d cold\n", warmPivots, dualPivots, coldPivots)
	fmt.Printf("solver state:      %d hits, %d misses\n", stateHits, stateMisses)
}

// printStageLatency renders per-stage latency quantiles (p50/p95/max,
// milliseconds) from the process-wide metric registry's histograms. It is
// printed after "Pipeline statistics" so warm-store output comparisons,
// which stop at that header, are unaffected by timing noise.
func printStageLatency(labs []*core.Lab) {
	header("Stage latency quantiles")
	fmt.Printf("%-14s %-9s %7s %9s %9s %9s\n", "benchmark", "stage", "count", "p50[ms]", "p95[ms]", "max[ms]")
	stages := []string{"link", "simulate", "analyze", "profile", "alloc"}
	row := func(name string, lat map[string]obs.HistogramSnapshot) {
		for _, st := range stages {
			h, ok := lat[st]
			if !ok || h.Count == 0 {
				continue
			}
			fmt.Printf("%-14s %-9s %7d %9.2f %9.2f %9.2f\n",
				name, st, h.Count, h.Quantile(0.5)*1000, h.Quantile(0.95)*1000, h.Max*1000)
		}
	}
	for _, l := range labs {
		row(l.Bench.Name, pipeline.StageLatency(l.Bench.Name))
	}
	row("total", pipeline.StageLatency(""))
}

// printPipelineStats renders per-benchmark stage counters and wall-clock,
// and the store tier's hit/miss totals (what CI asserts stays at zero
// misses on a warm second run).
func printPipelineStats(labs []*core.Lab) {
	header("Pipeline statistics")
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	fmt.Printf("%-14s %6s %5s %9s %9s %7s | %9s %9s | %9s %9s %11s %11s %10s\n",
		"benchmark", "links", "sims", "analyses", "profiles", "allocs",
		"disk hit", "disk miss",
		"link[ms]", "sim[ms]", "analyse[ms]", "profile[ms]", "alloc[ms]")
	var total pipeline.Stats
	for _, l := range labs {
		s := l.Pipe.Stats()
		total.Add(s)
		fmt.Printf("%-14s %6d %5d %9d %9d %7d | %9d %9d | %9.1f %9.1f %11.1f %11.1f %10.1f\n",
			l.Bench.Name, s.Links, s.Sims, s.Analyses, s.Profiles, s.Allocs,
			s.DiskHits(), s.DiskMisses(),
			ms(s.LinkTime), ms(s.SimTime), ms(s.AnalyzeTime), ms(s.ProfileTime), ms(s.AllocTime))
	}
	fmt.Printf("\nstage wall-clock: link %.1fms, simulate %.1fms, analyse %.1fms, profile %.1fms, allocate %.1fms\n",
		ms(total.LinkTime), ms(total.SimTime), ms(total.AnalyzeTime), ms(total.ProfileTime), ms(total.AllocTime))
	fmt.Printf("simulations: %d executed, %d retimed from the profile, %d swept from a shared cache pass\n",
		total.Sims-total.SimsRetimed-total.SimsSwept, total.SimsRetimed, total.SimsSwept)
	if artifactStore != nil {
		fmt.Printf("artifact store: %d disk hits, %d disk misses (%s)\n",
			total.DiskHits(), total.DiskMisses(), artifactStore.Dir())
	} else {
		fmt.Println("artifact store: disabled")
	}
}

func fig3() error {
	spms, caches, err := sweepData("G.721")
	if err != nil {
		return err
	}
	printFig3(spms, caches)
	return nil
}

func printFig3(spms, caches []core.Measurement) {
	header("Figure 3a: G.721 using a scratchpad (simulated cycles and WCET)")
	fmt.Printf("%8s %12s %12s\n", "SPM [B]", "sim cycles", "WCET")
	for _, m := range spms {
		fmt.Printf("%8d %12d %12d\n", m.SPMSize, m.SimCycles, m.WCET)
	}
	header("Figure 3b: G.721 using a cache (simulated cycles and WCET)")
	fmt.Printf("%8s %12s %12s\n", "cache[B]", "sim cycles", "WCET")
	for _, m := range caches {
		fmt.Printf("%8d %12d %12d\n", m.CacheSize, m.SimCycles, m.WCET)
	}
}

func figRatio(bench, title string) error {
	spms, caches, err := sweepData(bench)
	if err != nil {
		return err
	}
	printFigRatio(title, spms, caches)
	return nil
}

func printFigRatio(title string, spms, caches []core.Measurement) {
	header(title + " (simulated cycles normalised to 1)")
	fmt.Printf("%8s %14s %14s\n", "size [B]", "SPM WCET/sim", "cache WCET/sim")
	for i := range spms {
		fmt.Printf("%8d %14.3f %14.3f\n", spms[i].SPMSize, spms[i].Ratio(), caches[i].Ratio())
	}
}

func fig6() error {
	spms, caches, err := sweepData("ADPCM")
	if err != nil {
		return err
	}
	printFig6(spms, caches)
	return nil
}

func printFig6(spms, caches []core.Measurement) {
	header("Figure 6: ADPCM benchmark (simulated cycles and WCET, SPM vs cache)")
	printSweep(spms, caches)
}

func precision() error {
	lab, err := core.NewLabWithStore(benchprog.WorstCaseSort, artifactStore)
	if err != nil {
		return err
	}
	return printPrecision(lab)
}

// printPrecision runs the §4 experiment through the lab's pipeline, so a
// warm store serves both the simulation and the analysis.
func printPrecision(lab *core.Lab) error {
	m, err := lab.Baseline(context.Background())
	if err != nil {
		return err
	}
	over := float64(m.WCET-m.SimCycles) / float64(m.SimCycles) * 100
	header("Precision experiment (§4): sort with known worst-case input")
	fmt.Printf("simulated cycles: %d\n", m.SimCycles)
	fmt.Printf("estimated WCET:   %d\n", m.WCET)
	fmt.Printf("overestimation:   %.2f%% (paper reports ~1%%)\n", over)
	return nil
}

func sweep(name string) error {
	spms, caches, err := sweepData(name)
	if err != nil {
		return err
	}
	header(fmt.Sprintf("Sweep: %s (scratchpad vs cache)", name))
	printSweep(spms, caches)
	return nil
}

// wcetsweep compares the energy-directed (Steinke knapsack on the simulated
// profile) and WCET-directed (IPET-witness knapsack, iterated to a
// fixpoint) scratchpad allocations side by side for every paper capacity,
// at the -granularity placement-unit granularity.
func wcetsweep(name string) error {
	lab, err := newLab(name)
	if err != nil {
		return err
	}
	cs, err := lab.SweepWCETAllocationGran(context.Background(), granularity)
	if err != nil {
		return err
	}
	header(fmt.Sprintf("WCET-directed sweep: %s (energy-directed vs WCET-directed allocation, %s granularity)", name, granularity))
	fmt.Printf("%8s | %12s %12s %12s | %12s %12s %12s | %7s %5s %6s\n",
		"size [B]", "energy sim", "energy WCET", "energy [nJ]",
		"wcet sim", "wcet WCET", "energy [nJ]", "Δ WCET", "iters", "splits")
	for _, c := range cs {
		delta := 100 * (float64(c.Energy.WCET) - float64(c.WCET.WCET)) / float64(c.Energy.WCET)
		fmt.Printf("%8d | %12d %12d %12.0f | %12d %12d %12.0f | %6.2f%% %5d %6d\n",
			c.SPMSize,
			c.Energy.SimCycles, c.Energy.WCET, c.Energy.Energy,
			c.WCET.SimCycles, c.WCET.WCET, c.WCET.Energy,
			delta, c.Iterations, len(c.Splits))
	}
	fmt.Println("\nThe WCET-directed allocation's bound is never above the energy-directed")
	fmt.Println("one's; where the worst-case path diverges from the typical input, it is")
	fmt.Println("strictly tighter at the cost of a slightly higher average-case energy.")
	if granularity == alloc.GranBlock {
		fmt.Println("Block granularity splits hot loop regions out of functions (\"splits\"")
		fmt.Println("counts them) whenever placing a fragment certifies a lower bound than")
		fmt.Println("placing whole objects; the bound is never worse than object granularity.")
	}
	return nil
}

// pareto prints the energy/WCET Pareto front for every paper capacity:
// the pure-energy and pure-WCET endpoints (bit-identical to the wcetsweep
// allocations) plus the mutually non-dominated ε-constraint points
// between them, every bound certified by a full re-analysis. With
// -adaptive the interior is found by bisecting the largest certified gap
// between adjacent front points instead of the even ε-step scan.
func pareto(name string, opts alloc.ParetoOptions) error {
	lab, err := newLab(name)
	if err != nil {
		return err
	}
	scan := "ε-constraint scan"
	if opts.Adaptive {
		scan = "adaptive bisection"
	}
	header(fmt.Sprintf("Pareto front: %s (energy vs certified WCET bound, %s)", name, scan))
	err = lab.SweepParetoStream(context.Background(), opts, func(f core.ParetoFrontAt) error {
		fmt.Printf("\ncapacity %d B — %d point(s):\n", f.SPMSize, len(f.Points))
		fmt.Printf("%-7s %12s %12s %12s %6s %6s  %s\n",
			"kind", "WCET bound", "ε budget", "energy [nJ]", "used", "iters", "placement")
		for _, pt := range f.Points {
			names := make([]string, 0, len(pt.InSPM))
			for n, in := range pt.InSPM {
				if in {
					names = append(names, n)
				}
			}
			sort.Strings(names)
			fmt.Printf("%-7s %12d %12d %12.0f %6d %6d  %s\n",
				pt.Kind, pt.WCET, pt.Budget, pt.EnergyNJ, pt.Used, pt.Iterations, strings.Join(names, ","))
		}
		return nil
	})
	if err != nil {
		return err
	}
	fmt.Println("\nEach front runs from the pure WCET-directed allocation (lowest certified")
	fmt.Println("bound) to the pure energy-directed one (lowest modelled energy); interior")
	fmt.Println("points maximise energy benefit subject to a stepped WCET budget. All")
	fmt.Println("points are mutually non-dominated; a single-point front means one")
	fmt.Println("allocation is optimal in both objectives at that capacity.")
	return nil
}

// witness prints the top-N worst-case basic blocks and memory objects from
// the exported IPET witness of the baseline (empty scratchpad) analysis —
// it names exactly the code and data the compositional bound charges for.
// With -path it additionally renders the worst-case path as a CFG walk.
func witness(name string, topN int, path bool) error {
	lab, err := newLab(name)
	if err != nil {
		return err
	}
	res, err := lab.Pipe.AnalyzeUnits(context.Background(), nil, 0, nil, wcet.Options{Witness: true})
	if err != nil {
		return err
	}
	w := res.Witness
	header(fmt.Sprintf("Worst-case witness: %s (WCET %d cycles, empty scratchpad)", name, res.WCET))

	fmt.Printf("\nTop %d memory objects by worst-case cycles recoverable via scratchpad:\n", topN)
	fmt.Printf("%4s %-20s %12s %12s %14s %8s\n", "rank", "object", "fetches", "data accs", "benefit [cyc]", "of WCET")
	for i, o := range w.TopObjects(topN) {
		fmt.Printf("%4d %-20s %12d %12d %14d %7.2f%%\n",
			i+1, o.Name, o.Fetches, o.Data, o.Benefit, 100*float64(o.Benefit)/float64(res.WCET))
	}

	fmt.Printf("\nTop %d basic blocks by worst-case execution count:\n", topN)
	fmt.Printf("%4s %-26s %12s %12s\n", "rank", "block", "count", "func runs")
	for i, b := range w.TopBlocks(topN) {
		fmt.Printf("%4d %-26s %12d %12d\n",
			i+1, fmt.Sprintf("%s#%d", b.Func, b.Block), b.Count, b.FuncRuns)
	}
	fmt.Println("\nCounts are whole-program worst-case executions the IPET bound charges")
	fmt.Println("for (per-invocation solution × worst-case invocations of the function).")

	// The hot regions those counts imply: the placement units the
	// block-granularity allocator (-granularity block) would split out.
	regions, err := alloc.HotRegions(context.Background(), lab.Pipe, w, link.SPMMax)
	if err != nil {
		return err
	}
	fmt.Printf("\nHot-region placement units (block granularity would outline these):\n")
	if len(regions) == 0 {
		fmt.Println("  none (no splittable loop region on the worst-case path)")
	} else {
		fmt.Printf("%-20s %10s %10s %10s\n", "function", "start", "end", "bytes")
		for _, r := range regions {
			fmt.Printf("%-20s %10d %10d %10d\n", r.Func, r.Start, r.End, r.End-r.Start)
		}
	}
	if path {
		return witnessPath(lab, regions)
	}
	return nil
}

// witnessPath renders the worst-case path as a CFG walk: every function
// the worst case runs, in address order, with each basic block's address
// range, worst-case execution count, owning placement unit and the
// trampoline crossings between units. The walk is rendered over the
// split program under the hot-region partition (unsplit when there are no
// regions), so the unit boundaries the block-granularity allocator places
// across — and the long-branch trampolines that stitch them — are
// visible on the path itself.
func witnessPath(lab *core.Lab, regions []obj.Region) error {
	res, err := lab.Pipe.AnalyzeUnits(context.Background(), regions, 0, nil, wcet.Options{Witness: true})
	if err != nil {
		return err
	}
	exe, err := lab.Pipe.LinkUnits(context.Background(), regions, 0, nil)
	if err != nil {
		return err
	}
	g, err := cfg.Build(exe)
	if err != nil {
		return err
	}
	w := res.Witness
	funcs := make([]*cfg.Function, 0, len(g.Funcs))
	for _, f := range g.Funcs {
		if w.FuncRuns[f.Name] > 0 {
			funcs = append(funcs, f)
		}
	}
	sort.Slice(funcs, func(i, j int) bool { return funcs[i].Addr < funcs[j].Addr })

	header(fmt.Sprintf("Worst-case path (CFG walk, %d split unit(s), WCET %d cycles)", len(regions), res.WCET))
	crossings := 0
	for _, f := range funcs {
		counts := w.BlockCounts[f.Name]
		fmt.Printf("\n%s @0x%04x — %d worst-case invocation(s):\n", f.Name, f.Addr, w.FuncRuns[f.Name])
		fmt.Printf("  %-5s %-19s %12s %-20s %s\n", "block", "addr range", "count", "unit", "notes")
		// Address order, parent-object blocks before outlined fragments:
		// the walk reads like the function's layout, with the fragment's
		// blocks (living at the fragment object's own addresses) appended
		// where the trampolines hand over.
		blocks := append([]*cfg.Block(nil), f.Blocks...)
		sort.Slice(blocks, func(i, j int) bool {
			if (blocks[i].Obj == f.Name) != (blocks[j].Obj == f.Name) {
				return blocks[i].Obj == f.Name
			}
			return blocks[i].Start < blocks[j].Start
		})
		for _, b := range blocks {
			var count uint64
			if b.Index < len(counts) {
				count = counts[b.Index]
			}
			var notes []string
			for _, in := range b.Instrs {
				if in.CrossTarget != "" {
					notes = append(notes, fmt.Sprintf("tramp→%s@0x%04x", in.CrossTarget, in.CrossAddr))
					if count > 0 {
						crossings++
					}
				}
			}
			marker := " "
			if count == 0 {
				marker = "·" // off the worst-case path
			}
			fmt.Printf("%s #%-4d [%#06x,%#06x) %12d %-20s %s\n",
				marker, b.Index, b.Start, b.End, count, b.Obj, strings.Join(notes, " "))
		}
	}
	fmt.Printf("\n%d function(s) on the worst-case path; %d trampoline crossing site(s)\n", len(funcs), crossings)
	fmt.Println("on it (unit handovers the bound charges trampoline cycles for). Blocks")
	fmt.Println("marked · are never executed on the worst-case path; \"unit\" names the")
	fmt.Println("placement unit whose scratchpad decision prices the block's fetches.")
	return nil
}
