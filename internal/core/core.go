// Package core implements the paper's experimental workflow (Figure 1):
// compile a benchmark once, profile it on its typical input, and then for
// each memory configuration either
//
//   - scratchpad branch: solve the energy knapsack, re-link with the chosen
//     objects in the scratchpad, simulate (average case) and run the WCET
//     analysis with nothing but memory-region timings; or
//   - cache branch: keep the single main-memory executable, simulate with a
//     unified cache of the given capacity, and run the WCET analysis with
//     the abstract-interpretation cache module.
//
// Every figure and table of the paper is a projection of the Measurement
// values this package produces. All linking, simulation and analysis goes
// through the benchmark's pipeline.Pipeline, so no identical artifact is
// ever produced twice within one Lab, and sweeps run their capacities on a
// bounded worker pool (Lab.Workers) with deterministic, order-stable
// output.
package core

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"slices"
	"sync"

	"repro/internal/alloc"
	"repro/internal/benchprog"
	"repro/internal/cache"
	"repro/internal/cc"
	"repro/internal/energy"
	"repro/internal/obj"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/wcet"
)

// PaperSizes are the capacities evaluated in the paper: 64 bytes to 8 KB.
var PaperSizes = []uint32{64, 128, 256, 512, 1024, 2048, 4096, 8192}

// Measurement is one (benchmark, memory configuration) data point.
type Measurement struct {
	Benchmark string
	// SPMSize is the scratchpad capacity (0 in cache/baseline runs).
	SPMSize uint32
	// CacheSize is the unified cache capacity (0 in SPM/baseline runs).
	CacheSize uint32

	SimCycles uint64
	WCET      uint64

	CacheHits   uint64
	CacheMisses uint64
	// SPMUsed is the number of scratchpad bytes occupied by the allocation.
	SPMUsed uint32
	// SPMObjects is the number of placement units moved to the scratchpad
	// (whole objects, or fragments under block granularity).
	SPMObjects int
	// SplitFuncs is the number of functions split into hot-region fragments
	// for this measurement (0 at whole-object granularity).
	SplitFuncs int
	// Energy is the modelled energy of the profiled run under this
	// placement (nJ; scratchpad runs only). For split placements the model
	// stays at object granularity (fragments are not profiled objects): a
	// split function counts as resident only when parent and fragment both
	// are, so the figure is a conservative upper estimate (see
	// energyPlacement).
	Energy float64
}

// Ratio returns WCET / simulated cycles, the paper's Figures 4 and 5 metric.
func (m Measurement) Ratio() float64 {
	if m.SimCycles == 0 {
		return 0
	}
	return float64(m.WCET) / float64(m.SimCycles)
}

// Lab is a compiled benchmark with its typical-input profile and artifact
// pipeline, ready for configuration sweeps.
type Lab struct {
	Bench   benchprog.Benchmark
	Prog    *obj.Program
	Profile *sim.Profile
	Model   energy.Model
	// StackBound is the stack-usage annotation handed to the cache
	// analysis: twice the observed depth plus slack.
	StackBound uint32
	// Pipe memoizes every link/simulate/analyse artifact of this
	// benchmark; all measurements are served through it.
	Pipe *pipeline.Pipeline
	// Workers bounds the sweep worker pool: 0 means GOMAXPROCS, 1 runs
	// sequentially. Output order is independent of Workers.
	Workers int
}

// NewLabWithStore compiles the benchmark and collects its baseline
// profile, with its pipeline backed by the content-addressed artifact
// store (nil means memory-only): even the baseline profile is served from
// a warm store, so a second process pays zero simulations and zero
// analyses for work a first process already did.
func NewLabWithStore(b benchprog.Benchmark, st *store.Store) (*Lab, error) {
	prog, err := cc.Compile(b.Source)
	if err != nil {
		return nil, fmt.Errorf("core: %s: %w", b.Name, err)
	}
	pipe := pipeline.New(prog, b.Name, st)
	prof, err := pipe.Profile(context.Background())
	if err != nil {
		return nil, fmt.Errorf("core: %s: profiling: %w", b.Name, err)
	}
	return &Lab{
		Bench:      b,
		Prog:       prog,
		Profile:    prof,
		Model:      energy.Default(),
		StackBound: prof.ObservedStackDepth()*2 + 64,
		Pipe:       pipe,
	}, nil
}

// NewLabByName looks the benchmark up in the Table 2 registry.
func NewLabByName(name string) (*Lab, error) {
	return NewLabByNameWithStore(name, nil)
}

// NewLabByNameWithStore looks the benchmark up in the Table 2 registry and
// backs its pipeline with the artifact store (nil means memory-only).
func NewLabByNameWithStore(name string, st *store.Store) (*Lab, error) {
	b, err := benchprog.ByName(name)
	if err != nil {
		return nil, err
	}
	return NewLabWithStore(b, st)
}

// ResetArtifacts discards every cached in-memory link/simulate/analyse
// artifact (keeping the compiled program and its profile), e.g. to
// benchmark cold sweeps. The new pipeline keeps the lab's artifact store,
// a shared resource rather than a per-lab cache, and writes nothing to it;
// a lab built without a store resets to a fully cold pipeline.
func (l *Lab) ResetArtifacts() {
	l.Pipe = pipeline.New(l.Prog, l.Bench.Name, l.Pipe.Store())
	l.Pipe.PrimeProfile(l.Profile)
}

// EnergyAllocator returns the energy-directed allocation policy under the
// lab's energy model.
func (l *Lab) EnergyAllocator() pipeline.Allocator {
	return alloc.EnergyAllocator{Model: l.Model}
}

// WCETAllocatorGran returns the WCET-directed allocation policy at the
// given placement-unit granularity, seeded with the energy allocation (so
// its bound is never worse than the energy policy's) and with the lab's
// energy model as the equal-bound tie-break.
func (l *Lab) WCETAllocatorGran(g alloc.Granularity) pipeline.Allocator {
	return alloc.Directed{Model: l.Model, Granularity: g}
}

// Baseline measures the system with neither scratchpad nor cache.
func (l *Lab) Baseline(ctx context.Context) (Measurement, error) {
	return l.measure(ctx, nil, 0, nil, nil, nil)
}

// WithScratchpad runs the scratchpad branch for one capacity.
func (l *Lab) WithScratchpad(ctx context.Context, size uint32) (Measurement, error) {
	return l.WithAllocator(ctx, l.EnergyAllocator(), size)
}

// WithAllocator runs the scratchpad branch for one capacity under any
// allocation policy. The solve goes through the pipeline's allocation
// stage, so repeated sweeps under the same policy configuration reuse the
// memoized allocation instead of re-running the knapsack/fixpoint.
func (l *Lab) WithAllocator(ctx context.Context, a pipeline.Allocator, size uint32) (Measurement, error) {
	sol, err := l.Pipe.Allocate(ctx, a, size)
	if err != nil {
		return Measurement{}, err
	}
	return l.measureAllocation(ctx, size, sol)
}

// measureAllocation links one scratchpad allocation and measures it. Both
// the link and the analysis are pipeline artifacts: if the placement was
// already analysed (e.g. by the WCET-directed fixpoint), the bound is reused.
// The allocation's unit partition (if any) flows into every stage key.
func (l *Lab) measureAllocation(ctx context.Context, size uint32, a *pipeline.Allocation) (Measurement, error) {
	m, err := l.measure(ctx, a.Splits, size, a.InSPM, nil, a)
	if err != nil {
		return Measurement{}, err
	}
	m.SPMSize = size
	m.Energy = l.Model.ProgramEnergy(l.Prog, l.Profile, energyPlacement(a))
	return m, nil
}

// energyPlacement projects a (possibly split) placement onto the
// object-granularity energy model so the reported figure never
// underestimates: a split function counts as scratchpad-resident only
// when *both* its rewritten parent and its hot fragment are resident
// (then all its profiled accesses really are SPM accesses, trampolines
// aside); a half-resident split function is charged entirely at main
// cost. Fragment names are unknown to the profile and drop out.
func energyPlacement(a *pipeline.Allocation) map[string]bool {
	if len(a.Splits) == 0 {
		return a.InSPM
	}
	split := make(map[string]bool, len(a.Splits))
	for _, r := range a.Splits {
		split[r.Func] = true
	}
	out := make(map[string]bool, len(a.InSPM))
	for name, in := range a.InSPM {
		if in && (!split[name] || a.InSPM[obj.FragmentName(name)]) {
			out[name] = true
		}
	}
	return out
}

// WithCache runs the cache branch for one capacity (direct mapped, 16-byte
// lines — the paper's configuration). assoc > 1 selects the paper's §5
// future-work set-associative LRU configuration, analysed with the aging
// MUST domain.
func (l *Lab) WithCache(ctx context.Context, size uint32, assoc int) (Measurement, error) {
	return l.withCacheConfig(ctx, cache.Config{Size: size, Assoc: assoc})
}

// WithInstructionCache runs the §5 future-work instruction-cache
// configuration: fetches are cached, data pays main-memory cost.
func (l *Lab) WithInstructionCache(ctx context.Context, size uint32) (Measurement, error) {
	return l.withCacheConfig(ctx, cache.Config{Size: size, InstructionOnly: true})
}

func (l *Lab) withCacheConfig(ctx context.Context, ccfg cache.Config) (Measurement, error) {
	m, err := l.measure(ctx, nil, 0, nil, &ccfg, nil)
	if err != nil {
		return Measurement{}, err
	}
	m.CacheSize = ccfg.Size
	return m, nil
}

// measure simulates and analyses one configuration through the pipeline,
// under an optional placement-unit partition.
func (l *Lab) measure(ctx context.Context, splits []obj.Region, spmSize uint32, inSPM map[string]bool, ccfg *cache.Config, a *pipeline.Allocation) (Measurement, error) {
	res, err := l.Pipe.SimulateUnits(ctx, splits, spmSize, inSPM, ccfg)
	if err != nil {
		return Measurement{}, err
	}
	return l.measured(ctx, res, splits, spmSize, inSPM, ccfg, a)
}

// measured checks and analyses one configuration whose simulation result
// is res.
func (l *Lab) measured(ctx context.Context, res *sim.Result, splits []obj.Region, spmSize uint32, inSPM map[string]bool, ccfg *cache.Config, a *pipeline.Allocation) (Measurement, error) {
	if err := l.validateExit(int32(res.ExitCode)); err != nil {
		return Measurement{}, err
	}
	var wopts wcet.Options
	if ccfg != nil {
		wopts.Cache = ccfg
		wopts.StackBound = l.StackBound
	}
	wres, err := l.Pipe.AnalyzeUnits(ctx, splits, spmSize, inSPM, wopts)
	if err != nil {
		return Measurement{}, err
	}
	if wres.WCET < res.Cycles {
		return Measurement{}, fmt.Errorf("core: %s: unsound bound %d < simulation %d",
			l.Bench.Name, wres.WCET, res.Cycles)
	}
	m := Measurement{
		Benchmark:   l.Bench.Name,
		SimCycles:   res.Cycles,
		WCET:        wres.WCET,
		CacheHits:   res.CacheHits,
		CacheMisses: res.CacheMisses,
		SplitFuncs:  len(splits),
	}
	if a != nil {
		m.SPMUsed = a.Used
		m.SPMObjects = len(a.InSPM)
	}
	return m, nil
}

func (l *Lab) validateExit(exit int32) error {
	if l.Bench.MaxExit == 0 && exit != 0 {
		return fmt.Errorf("core: %s: functional check failed, exit %d", l.Bench.Name, exit)
	}
	if l.Bench.MaxExit > 0 && (exit < 0 || exit > l.Bench.MaxExit) {
		return fmt.Errorf("core: %s: functional check failed, exit %d outside [0,%d]",
			l.Bench.Name, exit, l.Bench.MaxExit)
	}
	return nil
}

// AllocComparison pairs the energy-directed and the WCET-directed
// allocation (internal/alloc) at one capacity.
type AllocComparison struct {
	SPMSize uint32
	// Granularity is the WCET-directed allocator's placement-unit
	// granularity (the energy side always places whole objects).
	Granularity alloc.Granularity
	// Energy is the measurement under the energy-knapsack allocation
	// (identical to WithScratchpad).
	Energy Measurement
	// WCET is the measurement under the WCET-directed allocation.
	WCET Measurement
	// Splits is the unit partition the winning WCET-directed allocation
	// uses (nil when whole-object placement won).
	Splits []obj.Region
	// Iterations is the number of accepted steps of the fixpoint loop
	// (including the baseline evaluation).
	Iterations int
	// Converged reports the loop reached a fixpoint before its cap.
	Converged bool
}

// WithWCETAllocationGran runs both allocators at one capacity, placing
// units of the given granularity, and measures the resulting systems side
// by side. The WCET-directed solve goes through the pipeline's
// allocation stage, so it is memoized across sweeps and persisted in the
// disk store (warm runs re-solve zero fixpoints); its internal energy-seed
// solve shares the stage entry the energy Measurement uses, and both
// placements' witness-bearing analyses are evaluated inside the fixpoint
// first, so the measurements below are pure cache hits. At block
// granularity the fixpoint additionally runs over the hot-region unit
// partition and keeps the better certified bound.
func (l *Lab) WithWCETAllocationGran(ctx context.Context, size uint32, g alloc.Granularity) (AllocComparison, error) {
	walloc, err := l.Pipe.Allocate(ctx, l.WCETAllocatorGran(g), size)
	if err != nil {
		return AllocComparison{}, err
	}
	ealloc, err := l.Pipe.Allocate(ctx, l.EnergyAllocator(), size)
	if err != nil {
		return AllocComparison{}, err
	}
	em, err := l.measureAllocation(ctx, size, ealloc)
	if err != nil {
		return AllocComparison{}, err
	}
	wm, err := l.measureAllocation(ctx, size, walloc)
	if err != nil {
		return AllocComparison{}, err
	}
	return AllocComparison{
		SPMSize:     size,
		Granularity: g,
		Energy:      em,
		WCET:        wm,
		Splits:      walloc.Splits,
		Iterations:  walloc.Iterations,
		Converged:   walloc.Converged,
	}, nil
}

// mPanics counts pool tasks that panicked; each became its task's error.
var mPanics = obs.Default.Counter("wcetlab_panics_total",
	"Sweep tasks that panicked; each panic became that task's error.")

// ordered runs f(i) for every index on a pool of workers (≤ 0 means
// GOMAXPROCS) and hands each result to emit in index order, as soon as it
// and every lower-indexed result are available. A panicking f becomes that
// index's error: its stack is logged at error level and it is counted in
// wcetlab_panics_total. ordered stops emitting at the first failure and
// returns it — the index of the lowest-indexed failing f with its error,
// or -1 with the first emit error — after draining every worker, so
// parallel and sequential runs are indistinguishable to callers.
func ordered[T any](ctx context.Context, n, workers int, f func(int) (T, error), emit func(int, T) error) (int, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	type result struct {
		v   T
		err error
	}
	done := make([]chan result, n)
	for i := range done {
		done[i] = make(chan result, 1)
	}
	var wg sync.WaitGroup
	sem := make(chan struct{}, min(workers, n))
	for i := range n {
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			v, err := recovered(ctx, func() (T, error) { return f(i) })
			done[i] <- result{v, err}
		}()
	}
	defer wg.Wait()
	for i := range n {
		r := <-done[i]
		if r.err != nil {
			return i, r.err
		}
		if err := emit(i, r.v); err != nil {
			return -1, err
		}
	}
	return -1, nil
}

// recovered calls f, turning a panic into its error.
func recovered[T any](ctx context.Context, f func() (T, error)) (v T, err error) {
	defer func() {
		if r := recover(); r != nil {
			mPanics.Inc()
			obs.Log.ErrorContext(ctx, "panic", "panic", fmt.Sprint(r), "stack", string(debug.Stack()))
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	return f()
}

// sweepStream runs f over the sizes on the lab's worker pool and hands
// each result to emit in size order, as soon as it and every lower-indexed
// result are available — so a consumer (e.g. the service's chunked
// /v1/sweep responses) sees the first rows while later capacities are
// still computing, yet the row order is identical to a buffered sweep.
// The reported error is the one of the lowest-indexed failing size (or the
// first emit error); branch names the sweep in error messages ("spm",
// "cache", "wcetalloc", "pareto").
func sweepStream[T any](ctx context.Context, l *Lab, branch string, sizes []uint32, f func(context.Context, uint32) (T, error), emit func(int, T) error) error {
	sctx, root := obs.Start(ctx, "sweep",
		obs.A("bench", l.Bench.Name), obs.A("branch", branch), obs.A("sizes", len(sizes)))
	defer root.End()
	i, err := ordered(sctx, len(sizes), l.Workers, func(i int) (T, error) {
		// Each worker opens its cell under the sweep's context, so the cell
		// parents to the sweep span (and carries its request id) across the
		// goroutine hop.
		cctx, cell := obs.Start(sctx, "cell",
			obs.A("bench", l.Bench.Name), obs.A("branch", branch), obs.A("capacity", sizes[i]))
		defer cell.End()
		return f(cctx, sizes[i])
	}, emit)
	if i >= 0 {
		return fmt.Errorf("core: %s %s %d: %w", l.Bench.Name, branch, sizes[i], err)
	}
	return err
}

// sweep is the buffered form of sweepStream: f over the sizes on the
// lab's worker pool, results in size order.
func sweep[T any](ctx context.Context, l *Lab, branch string, sizes []uint32, f func(context.Context, uint32) (T, error)) ([]T, error) {
	out := make([]T, 0, len(sizes))
	err := sweepStream(ctx, l, branch, sizes, f, func(_ int, v T) error {
		out = append(out, v)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// SweepWCETAllocation compares the two allocators at every paper capacity,
// placing whole objects.
func (l *Lab) SweepWCETAllocation(ctx context.Context) ([]AllocComparison, error) {
	return l.SweepWCETAllocationGran(ctx, alloc.GranObject)
}

// SweepWCETAllocationGran is SweepWCETAllocation at an explicit placement-
// unit granularity.
func (l *Lab) SweepWCETAllocationGran(ctx context.Context, g alloc.Granularity) ([]AllocComparison, error) {
	return sweep(ctx, l, "wcetalloc", PaperSizes, func(ctx context.Context, size uint32) (AllocComparison, error) {
		return l.WithWCETAllocationGran(ctx, size, g)
	})
}

// SweepWCETAllocationGranStream is SweepWCETAllocationGran delivering
// each comparison to emit in capacity order as soon as it is ready.
func (l *Lab) SweepWCETAllocationGranStream(ctx context.Context, g alloc.Granularity, emit func(AllocComparison) error) error {
	return sweepStream(ctx, l, "wcetalloc", PaperSizes, func(ctx context.Context, size uint32) (AllocComparison, error) {
		return l.WithWCETAllocationGran(ctx, size, g)
	}, func(_ int, c AllocComparison) error { return emit(c) })
}

// SweepScratchpad measures every paper scratchpad capacity.
func (l *Lab) SweepScratchpad(ctx context.Context) ([]Measurement, error) {
	return sweep(ctx, l, "spm", PaperSizes, l.WithScratchpad)
}

// SweepScratchpadStream is SweepScratchpad delivering each measurement to
// emit in capacity order as soon as it is ready.
func (l *Lab) SweepScratchpadStream(ctx context.Context, emit func(Measurement) error) error {
	return sweepStream(ctx, l, "spm", PaperSizes, l.WithScratchpad,
		func(_ int, m Measurement) error { return emit(m) })
}

// SweepCache measures every paper cache capacity (direct mapped).
func (l *Lab) SweepCache(ctx context.Context) ([]Measurement, error) {
	return sweep(ctx, l, "cache", PaperSizes, l.cacheSweep(ctx))
}

// SweepCacheStream is SweepCache delivering each measurement to emit in
// capacity order as soon as it is ready.
func (l *Lab) SweepCacheStream(ctx context.Context, emit func(Measurement) error) error {
	return sweepStream(ctx, l, "cache", PaperSizes, l.cacheSweep(ctx),
		func(_ int, m Measurement) error { return emit(m) })
}

// cacheSweep simulates every paper capacity of the direct-mapped cache
// branch in one batch (Pipeline.SimulateCaches: one interpreter pass when
// cold, none when warm) and returns the function that measures one
// capacity from it. A capacity the batch failed on, or every capacity if
// it panicked, is measured on its own instead, which reports the failure
// under that capacity in its sweep cell.
func (l *Lab) cacheSweep(ctx context.Context) func(context.Context, uint32) (Measurement, error) {
	cfgs := make([]cache.Config, len(PaperSizes))
	for i, size := range PaperSizes {
		cfgs[i] = cache.Config{Size: size, Assoc: 1}
	}
	sims, _ := recovered(ctx, func() ([]*sim.Result, error) {
		return l.Pipe.SimulateCaches(ctx, nil, 0, nil, cfgs)
	})
	return func(ctx context.Context, size uint32) (Measurement, error) {
		i := slices.Index(PaperSizes, size)
		if sims == nil || sims[i] == nil {
			return l.WithCache(ctx, size, 1)
		}
		m, err := l.measured(ctx, sims[i], nil, 0, nil, &cfgs[i], nil)
		if err != nil {
			return Measurement{}, err
		}
		m.CacheSize = size
		return m, nil
	}
}

// BenchmarkSweep is one benchmark's full scratchpad and cache sweep.
type BenchmarkSweep struct {
	Lab *Lab
	// SPM and Cache are the PaperSizes sweeps of the two branches.
	SPM   []Measurement
	Cache []Measurement
}

// SweepAllBenchmarksWithStore builds a lab for every Table 2 benchmark
// and runs both sweeps, benchmarks in parallel (each with its own pipeline
// and worker pool). workers bounds both pools — benchmarks at once, and
// each lab's capacities at once — so workers 1 runs everything in one
// deterministic order. The slice follows the registry order regardless of
// completion order; workers ≤ 0 means GOMAXPROCS. Every lab's pipeline is
// backed by the shared artifact store (nil means memory-only): against a
// warm store the whole sweep recomputes nothing.
func SweepAllBenchmarksWithStore(ctx context.Context, workers int, st *store.Store) ([]BenchmarkSweep, error) {
	benches := benchprog.All()
	out := make([]BenchmarkSweep, 0, len(benches))
	i, err := ordered(ctx, len(benches), workers, func(i int) (BenchmarkSweep, error) {
		return sweepOneBenchmark(ctx, benches[i], workers, st)
	}, func(_ int, b BenchmarkSweep) error {
		out = append(out, b)
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("core: %s: %w", benches[i].Name, err)
	}
	return out, nil
}

func sweepOneBenchmark(ctx context.Context, b benchprog.Benchmark, workers int, st *store.Store) (BenchmarkSweep, error) {
	lab, err := NewLabWithStore(b, st)
	if err != nil {
		return BenchmarkSweep{}, err
	}
	lab.Workers = workers
	spms, err := lab.SweepScratchpad(ctx)
	if err != nil {
		return BenchmarkSweep{}, err
	}
	caches, err := lab.SweepCache(ctx)
	if err != nil {
		return BenchmarkSweep{}, err
	}
	return BenchmarkSweep{Lab: lab, SPM: spms, Cache: caches}, nil
}
