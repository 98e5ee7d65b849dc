// Package pipeline is the staged measurement pipeline behind every
// experiment in the repository. An immutable compiled program flows through
// memoized stages —
//
//	LinkUnits(units, placement)            → Executable
//	SimulateUnits(units, placement, cache) → simulation result
//	AnalyzeUnits(units, placement, opts)   → WCET bound (+ witness)
//	Profile()                              → typical-input access profile
//	Allocate(policy, capacity)             → scratchpad allocation
//
// — each keyed by a canonical placement/configuration key, so within one
// Pipeline no identical link, simulation, WCET analysis or allocation
// solve ever runs twice. The sweeps in internal/core and the fixpoint loop
// in internal/alloc share one Pipeline per benchmark and therefore share
// artifacts: the capacity-independent empty-scratchpad analysis is
// computed once per program (not once per swept size), and the energy-seed
// analysis the fixpoint starts from is the same artifact the measurement
// layer reports.
//
// # Stage runner
//
// The five stages are one generic runner (stage.go) instantiated five
// times: a stage supplies its key, its compute and optionally a disk codec;
// the runner does the memo lookup, per-entry singleflight, the
// "stage:<name>" span and its tier attribute, timing and every counter.
// Stats is a view over those counters.
//
// # Cache tiers
//
// Lookups go memory → disk → compute. The memory tier is this package's
// per-pipeline maps. The disk tier is optional and fixed at construction:
// New takes a content-addressed store (internal/store, nil for none) shared
// across processes, keyed by hash(program content, stage key), and the
// simulate/analyse/profile/allocate stages consult it before computing and
// write back after — a warm store serves a whole sweep with zero
// recomputation. Links are not
// persisted: a link is only ever needed as the input of a cold simulation
// or analysis, so with a warm store it never runs at all. Stats splits the
// tiers: *Hits are memory hits, *DiskHits/*DiskMisses count store lookups,
// and runs (Links, Sims, Analyses, Profiles, Allocs) are cold executions.
//
// # Keying scheme
//
// The units argument of the first three stages is a placement-unit
// partition (the hot regions outlined into fragments); nil places whole
// objects. A placement key is "spm=<size>|<name>,<name>,..." with the
// scratchpad residents sorted by name. A placement with no residents is
// normalised to size 0, because the linked addresses, the simulation and
// the analysis of an empty scratchpad are independent of its capacity.
// Simulation keys append the cache configuration
// ("|cache=<size>/<line>/<assoc>/<kind>"), analysis keys append the cache
// configuration, the stack bound and an empty "root=" field (every
// analysis starts at the program entry; the field keeps stored keys
// valid), allocation keys are the policy's ConfigKey plus the capacity.
// The witness flag is deliberately *not* part of the analysis key (in
// either tier): a witness-bearing result answers witness-less requests for
// the same configuration (the bound is identical); a witness-less cached
// result is upgraded in place when a witness is first requested — and the
// disk entry overwritten — with Stats counting the upgrade.
//
// # Concurrency
//
// All stages are safe for concurrent use. Each cache entry is computed
// exactly once under a per-entry lock (duplicate concurrent requests block
// on the first computation instead of repeating it), so parallel sweeps
// over capacities and benchmarks get the same hit rates as sequential
// ones. The disk tier inherits the store's process-level guarantees:
// atomic installs, last-write-wins on races, corruption read as a miss.
package pipeline

import (
	"context"
	"fmt"
	"log/slog"
	"reflect"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cache"
	"repro/internal/link"
	"repro/internal/obj"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/wcet"
)

// Allocation is the shared result type of every scratchpad allocator (the
// energy knapsack and the WCET-directed fixpoint in internal/alloc).
type Allocation struct {
	// InSPM names the objects placed in the scratchpad. Under a non-empty
	// Splits partition the names refer to the split program's objects
	// (fragments included).
	InSPM map[string]bool
	// Benefit is the total benefit in the allocator's objective (nJ per
	// program run for the energy knapsack, worst-case cycles saved for
	// the WCET-directed allocator).
	Benefit float64
	// Used is the number of scratchpad bytes occupied (ignoring alignment
	// padding, which the linker re-checks).
	Used uint32
	// Splits is the placement-unit partition the allocation is relative to:
	// the hot regions outlined into independently placeable fragments.
	// Empty means whole-object granularity. Measure the allocation with the
	// *Units stage variants, passing this partition.
	Splits []obj.Region
	// Iterations and Converged describe the solve for iterative policies
	// (the WCET-directed fixpoint: accepted steps including the baseline,
	// and whether it reached a fixpoint before its cap). Single-shot
	// knapsack policies leave them zero.
	Iterations int
	Converged  bool
}

// Allocator is the common interface of the scratchpad allocators: given
// the pipeline holding the compiled program (and, memoized, its profile
// and analysis artifacts), choose the objects to place at one capacity.
// internal/alloc's EnergyAllocator, Directed and Budgeted implement it.
// The context carries the request's trace (and cancellation, which the
// stages an allocator calls back into respect).
type Allocator interface {
	// ConfigKey canonically identifies the policy's *full* configuration
	// (objective parameters, iteration caps, seed policies, ...), so
	// Pipeline.Allocate can memoize solves across repeated sweeps and
	// processes. It is required: two policies that may solve differently
	// must never share a key.
	ConfigKey() string
	Allocate(ctx context.Context, p *Pipeline, capacity uint32) (*Allocation, error)
}

// Stats counts stage executions and cache hits per tier. Runs (Links,
// Sims, Analyses, Profiles, Allocs) are cold executions; *Hits are
// requests served from the memory tier; *DiskHits/*DiskMisses count disk
// lookups by memory misses when the pipeline has a store (a disk miss always
// pairs with a run). AnalyzeUpgrades counts re-runs of an already-analysed
// configuration to attach a witness — the only way a configuration is ever
// analysed twice. SimsRetimed counts the Sims computed in closed form
// (sim.Retime), SimsSwept the cached Sims, each priced by a cache-sweep
// pass (sim.RunCaches) of its batch; the rest each ran the interpreter
// without a cache. The *Time fields
// accumulate wall clock spent in cold stage executions; AllocTime is the
// allocators' wall clock and includes the nested stage computations a
// solve triggers (e.g. the WCET-directed fixpoint's analyses), so it is
// not disjoint from AnalyzeTime.
//
// Every field is a uint64 count or a time.Duration: Add sums them all.
type Stats struct {
	Links, LinkHits        uint64
	Sims, SimHits          uint64
	SimsRetimed, SimsSwept uint64
	Analyses, AnalyzeHits  uint64
	AnalyzeUpgrades        uint64
	Profiles, ProfileHits  uint64
	Allocs, AllocHits      uint64

	// SkeletonBuilds counts analysis skeletons (CFG + IPET skeletons +
	// phase-1 tableaux + block decomposition), one per partition;
	// SkeletonReuses the engines built on a skeleton another engine
	// already used. ContextBuilds / ContextReuses count cache-less
	// analysis engines built vs cold analyses served by an existing one;
	// CacheContextBuilds / CacheContextReuses are the same for cache
	// engines. CacheFuncsReanalyzed / CacheFuncs split the function-level
	// MUST fixed point: solves that actually re-ran vs functions in scope
	// across all cache analyses.
	SkeletonBuilds, SkeletonReuses         uint64
	ContextBuilds, ContextReuses           uint64
	CacheContextBuilds, CacheContextReuses uint64
	CacheFuncsReanalyzed, CacheFuncs       uint64

	// SolverStateHits / SolverStateMisses: per-function IPET solves served
	// from the engines' in-process solution memo vs solves that had to
	// run, over engines of both modes.
	SolverStateHits, SolverStateMisses uint64

	SimDiskHits, SimDiskMisses         uint64
	AnalyzeDiskHits, AnalyzeDiskMisses uint64
	ProfileDiskHits, ProfileDiskMisses uint64
	AllocDiskHits, AllocDiskMisses     uint64
	// StoreErrors counts failed best-effort store writes; the computed
	// artifact is still returned to the caller.
	StoreErrors uint64

	LinkTime, SimTime, AnalyzeTime, ProfileTime, AllocTime time.Duration
}

// DiskHits is the total of stage requests served from the disk tier.
func (s Stats) DiskHits() uint64 {
	return s.SimDiskHits + s.AnalyzeDiskHits + s.ProfileDiskHits + s.AllocDiskHits
}

// DiskMisses is the total of disk lookups that fell through to compute.
func (s Stats) DiskMisses() uint64 {
	return s.SimDiskMisses + s.AnalyzeDiskMisses + s.ProfileDiskMisses + s.AllocDiskMisses
}

// Add accumulates another snapshot into s (aggregating across pipelines),
// field by field.
func (s *Stats) Add(o Stats) {
	dst, src := reflect.ValueOf(s).Elem(), reflect.ValueOf(o)
	for i := range dst.NumField() {
		f := dst.Field(i)
		switch f.Kind() {
		case reflect.Uint64:
			f.SetUint(f.Uint() + src.Field(i).Uint())
		case reflect.Int64:
			f.SetInt(f.Int() + src.Field(i).Int())
		default:
			panic("pipeline: Stats field " + dst.Type().Field(i).Name + " is not summable")
		}
	}
}

// Pipeline memoizes the link/simulate/analyze/profile/allocate stages for
// one immutable compiled program.
type Pipeline struct {
	// Prog is the compiled program; it must not be mutated once the
	// pipeline is constructed.
	Prog *obj.Program

	disk *store.Store // nil: memory only

	link    stage[*link.Executable]
	sim     stage[*sim.Result]
	analyze stage[*wcet.Result]
	profile stage[*sim.Profile]
	alloc   stage[*Allocation]

	splits    memo[*obj.Program]
	skeletons memo[*wcet.Skeleton]
	engines   memo[*wcet.Engine]

	upgrades, storeErrors counter
	// simExecuted / simRetimed / simSwept split the simulate stage's cold
	// runs into cache-less interpreter runs, closed-form retimes and
	// results priced by a cache-sweep pass.
	simExecuted, simRetimed, simSwept counter
	// reuses counts cold analyses served by an existing analysis engine,
	// cache-less [0] and cache [1]; builds are the registered engines below.
	reuses [2]atomic.Uint64

	// skeletonList and engineList register successfully built analysis
	// skeletons and engines; Stats folds in their atomic counters without
	// touching entry locks (which an in-flight compute may hold).
	mu           sync.Mutex
	skeletonList []*wcet.Skeleton
	engineList   []*wcet.Engine

	bench    string
	progOnce sync.Once
	progKey  string
}

// New builds an empty pipeline around a compiled program, labelling its
// metrics with the benchmark name and backing it with the artifact store
// st as its disk tier (nil means memory-only).
func New(prog *obj.Program, bench string, st *store.Store) *Pipeline {
	p := &Pipeline{Prog: prog, disk: st, bench: bench}
	p.link.init("link", bench, nil)
	p.sim.init("simulate", bench, &store.SimCodec)
	// The analysis stage loads witness-less entries too: the runner's
	// staleness check turns them into misses for witness requests.
	p.analyze.init("analyze", bench, &store.WCETCodec)
	p.profile.init("profile", bench, &store.ProfileCodec)
	p.alloc.init("alloc", bench, &allocCodec)
	p.upgrades.reg = obs.Default.Counter("wcetlab_analyze_witness_upgrades_total",
		"Re-analyses of a cached configuration to attach a witness.", "bench", bench)
	p.storeErrors.reg = obs.Default.Counter("wcetlab_store_write_errors_total",
		"Failed best-effort artifact store writes.", "bench", bench)
	p.simExecuted.reg = obs.Default.Counter("wcetlab_sim_executed_total",
		"Cold simulate-stage runs that ran the interpreter.", "bench", bench)
	p.simRetimed.reg = obs.Default.Counter("wcetlab_sim_retimed_total",
		"Cold simulate-stage runs computed in closed form from the profile.", "bench", bench)
	p.simSwept.reg = obs.Default.Counter("wcetlab_sim_swept_total",
		"Cold simulate-stage runs priced by a cache-sweep pass.", "bench", bench)
	return p
}

// profileStageKey is the profile's store key. The "/v3" marks the encoding
// as one access vector per object (fetches, then data by width), so a
// profile stored in an earlier encoding is never decoded as a current one.
const profileStageKey = "profile/v3"

// Store returns the pipeline's artifact store, or nil.
func (p *Pipeline) Store() *store.Store { return p.disk }

// programKey is the content hash of the compiled program — the program
// half of every disk key — computed once on first use.
func (p *Pipeline) programKey() string {
	p.progOnce.Do(func() { p.progKey = store.ProgramKey(p.Prog) })
	return p.progKey
}

// saved counts a failed best-effort store write: the computed artifact is
// still valid and returned, so the error is counted, not surfaced.
func (p *Pipeline) saved(err error) {
	if err != nil {
		p.storeErrors.inc()
	}
}

// unitPrefix canonically encodes a placement-unit partition as a stage-key
// prefix. The empty partition encodes as "" so whole-object keys — and the
// disk entries addressed by them — are byte-identical to the pre-unit
// scheme: warm stores stay warm across granularities.
func unitPrefix(regions []obj.Region) string {
	if len(regions) == 0 {
		return ""
	}
	return "units=" + obj.RegionsKey(regions) + "|"
}

// SplitProgram returns (memoized) the program with the given hot regions
// outlined into fragment placement units; the empty partition returns the
// pipeline's own program. The result is shared and must not be mutated.
func (p *Pipeline) SplitProgram(regions []obj.Region) (*obj.Program, error) {
	if len(regions) == 0 {
		return p.Prog, nil
	}
	prog, _, err := p.splits.get(obj.RegionsKey(regions), func() (*obj.Program, error) {
		return obj.SplitProgram(p.Prog, regions)
	})
	return prog, err
}

// emptyPlacement is the key of every placement without residents.
const emptyPlacement = "spm=0|"

// PlacementKey canonicalises one scratchpad placement: residents sorted by
// name, and the empty placement normalised to capacity 0 (an empty
// scratchpad links, simulates and analyses identically at every capacity).
func PlacementKey(spmSize uint32, inSPM map[string]bool) string {
	names := make([]string, 0, len(inSPM))
	for n, in := range inSPM {
		if in {
			names = append(names, n)
		}
	}
	if len(names) == 0 {
		return emptyPlacement
	}
	sort.Strings(names)
	return fmt.Sprintf("spm=%d|%s", spmSize, strings.Join(names, ","))
}

// placement is the one placement normaliser: the placement's key, and the
// capacity and residents the stages compute it with — the empty placement
// as (0, nil), so it links and analyses identically at every capacity,
// including capacities the linker would reject.
func placement(spmSize uint32, inSPM map[string]bool) (key string, size uint32, in map[string]bool) {
	key = PlacementKey(spmSize, inSPM)
	if key == emptyPlacement {
		return key, 0, nil
	}
	return key, spmSize, inSPM
}

func cacheKey(c *cache.Config) string {
	if c == nil {
		return "nocache"
	}
	return fmt.Sprintf("cache=%d/%d/%d/%s", c.Size, c.LineSize, c.Assoc, cacheKind(c))
}

func cacheKind(c *cache.Config) string {
	if c.InstructionOnly {
		return "icache"
	}
	return "unified"
}

func analysisKey(placement string, opts wcet.Options) string {
	// Witness is intentionally absent: see the package comment.
	return fmt.Sprintf("%s|%s|stack=%d|root=", placement, cacheKey(opts.Cache), opts.StackBound)
}

// LinkUnits links the program under one placement, memoized. Under a
// placement-unit partition the program is first split at the given hot
// regions (memoized), then linked with the chosen objects — fragments
// included — in the scratchpad. An empty placement is linked once
// regardless of the requested capacity (key normalisation); the returned
// executable is shared and must be treated as read-only.
func (p *Pipeline) LinkUnits(ctx context.Context, regions []obj.Region, spmSize uint32, inSPM map[string]bool) (*link.Executable, error) {
	pk, size, in := placement(spmSize, inSPM)
	return p.link.get(ctx, p, request[*link.Executable]{
		key: unitPrefix(regions) + pk,
		compute: func(_ context.Context, timed timer[*link.Executable]) (*link.Executable, error) {
			prog, err := p.SplitProgram(regions)
			if err != nil {
				return nil, err
			}
			return timed(func() (*link.Executable, error) { return link.Link(prog, size, in) })
		},
	})
}

// SimulateUnits runs (memoized) the typical input under one placement,
// placement-unit partition and cache configuration, consulting the disk
// tier before computing. The returned result is shared and must be treated
// as read-only. It carries the run's counters and a nil Mem from every
// tier: the final memory image is neither memoized nor persisted (call
// sim.Run to inspect it).
//
// A whole-object, cache-less placement of a placement-independent program
// is not simulated: sim.Retime computes it in closed form from the
// memoized profile, bit-identical to a run. Any other cache-less placement
// runs the interpreter, and a cached one is a SimulateCaches batch of
// one. Every path links the placement first, so
// link errors are the same on all of them.
func (p *Pipeline) SimulateUnits(ctx context.Context, regions []obj.Region, spmSize uint32, inSPM map[string]bool, ccfg *cache.Config) (*sim.Result, error) {
	if ccfg != nil {
		res, err := p.SimulateCaches(ctx, regions, spmSize, inSPM, []cache.Config{*ccfg})
		return res[0], err
	}
	pk, size, in := placement(spmSize, inSPM)
	return p.sim.get(ctx, p, request[*sim.Result]{
		key: unitPrefix(regions) + pk + "|" + cacheKey(nil),
		compute: func(ctx context.Context, timed timer[*sim.Result]) (*sim.Result, error) {
			exe, err := p.LinkUnits(ctx, regions, size, in)
			if err != nil {
				return nil, err
			}
			if len(regions) == 0 && p.Prog.PlacementIndependent {
				prof, err := p.Profile(ctx)
				if err != nil {
					return nil, err
				}
				p.simRetimed.inc()
				return timed(func() (*sim.Result, error) { return sim.Retime(prof, exe), nil })
			}
			p.simExecuted.inc()
			return timed(func() (*sim.Result, error) {
				res, err := sim.Run(exe, sim.Options{})
				if err != nil {
					return nil, err
				}
				res.Mem = nil
				return res, nil
			})
		},
	})
}

// SimulateCaches simulates one placement, under a placement-unit
// partition, with each cache configuration in cfgs. Each configuration is
// served memory → disk → compute under its own simulate key, exactly as
// SimulateUnits serves it. One interpreter pass (sim.RunCaches) prices the
// whole batch; it runs at most once per call, only if a configuration
// misses both tiers, and is timed as the first of them to compute. A
// sweep therefore costs about one run cold and none warm.
//
// It returns one result per configuration, nil where that configuration
// failed, and the first failure. A batch holding an invalid configuration
// fails as a whole, before any lookup.
func (p *Pipeline) SimulateCaches(ctx context.Context, regions []obj.Region, spmSize uint32, inSPM map[string]bool, cfgs []cache.Config) ([]*sim.Result, error) {
	out := make([]*sim.Result, len(cfgs))
	for _, c := range cfgs {
		if err := c.Validate(); err != nil {
			return out, err
		}
	}
	pk, size, in := placement(spmSize, inSPM)
	// The pass, run by the first configuration that computes.
	var (
		ran     bool
		pass    []*sim.Result
		passErr error
	)
	var first error
	for i := range cfgs {
		var err error
		out[i], err = p.sim.get(ctx, p, request[*sim.Result]{
			key: unitPrefix(regions) + pk + "|" + cacheKey(&cfgs[i]),
			compute: func(ctx context.Context, timed timer[*sim.Result]) (*sim.Result, error) {
				var exe *link.Executable
				if !ran {
					ran = true
					exe, passErr = p.LinkUnits(ctx, regions, size, in)
				}
				if passErr != nil {
					return nil, passErr
				}
				p.simSwept.inc()
				return timed(func() (*sim.Result, error) {
					if exe != nil {
						if pass, passErr = sim.RunCaches(exe, cfgs); passErr != nil {
							return nil, passErr
						}
					}
					return pass[i], nil
				})
			},
		})
		if err != nil && first == nil {
			first = err
		}
	}
	return out, first
}

// AnalyzeUnits runs (memoized) the WCET analysis for one placement,
// placement-unit partition and analysis configuration, consulting the disk
// tier before computing. A cached result lacking a witness is re-analysed
// in place when opts.Witness is set (counted in Stats.AnalyzeUpgrades, and
// the disk entry overwritten); a cached result carrying a witness serves
// witness-less requests directly. The returned result is shared; treat it
// as read-only. The partition is part of the memo and disk keys, so warm
// runs at a fixed granularity recompute nothing.
//
// Analyses share one wcet.Skeleton per partition — the CFG, IPET
// skeletons, phase-1 tableaux and block decomposition, built once — and
// a reusable wcet.Engine on it per analysis mode (cache-less, or one per
// cache shape), so each placement redoes only its delta. Results are
// bit-identical to a from-scratch link + wcet.Analyze.
func (p *Pipeline) AnalyzeUnits(ctx context.Context, regions []obj.Region, spmSize uint32, inSPM map[string]bool, opts wcet.Options) (*wcet.Result, error) {
	pk, size, in := placement(spmSize, inSPM)
	r := request[*wcet.Result]{
		key: analysisKey(unitPrefix(regions)+pk, opts),
		compute: func(ctx context.Context, timed timer[*wcet.Result]) (*wcet.Result, error) {
			e, err := p.engineFor(ctx, contextKey(regions, opts), regions, opts)
			if err != nil {
				return nil, err
			}
			var cacheSize uint32
			if opts.Cache != nil {
				cacheSize = opts.Cache.Size
			}
			return timed(func() (*wcet.Result, error) { return e.Analyze(ctx, cacheSize, size, in, opts.Witness) })
		},
	}
	if opts.Witness {
		r.stale = lacksWitness
	}
	return p.analyze.get(ctx, p, r)
}

// lacksWitness marks a witness-less result stale for a witness request.
func lacksWitness(r *wcet.Result) bool { return r.Witness == nil }

// engineFor returns (memoized, singleflight) the analysis engine for one
// partition and analysis configuration, built on the partition's skeleton.
func (p *Pipeline) engineFor(ctx context.Context, key string, regions []obj.Region, opts wcet.Options) (*wcet.Engine, error) {
	e, built, err := p.engines.get(key, func() (*wcet.Engine, error) {
		sk, err := p.skeletonFor(ctx, regions)
		if err != nil {
			return nil, err
		}
		e, err := sk.Engine(opts)
		if err != nil {
			return nil, err
		}
		p.mu.Lock()
		p.engineList = append(p.engineList, e)
		p.mu.Unlock()
		return e, nil
	})
	if err == nil && !built {
		mode := 0
		if opts.Cache != nil {
			mode = 1
		}
		p.reuses[mode].Add(1)
	}
	return e, err
}

// skeletonFor returns (memoized, singleflight) the analysis skeleton of one
// partition, which every analysis mode's engine shares, built from the
// partition's scratchpad-less base executable.
func (p *Pipeline) skeletonFor(ctx context.Context, regions []obj.Region) (*wcet.Skeleton, error) {
	sk, _, err := p.skeletons.get(unitPrefix(regions), func() (*wcet.Skeleton, error) {
		// The base is the executable the link stage serves for the empty
		// placement. Requesting it through the stage memoizes it for later
		// empty-placement requests and counts it in the link statistics.
		base, err := p.LinkUnits(ctx, regions, 0, nil)
		if err != nil {
			return nil, err
		}
		sk, err := wcet.NewSkeleton(base)
		if err != nil {
			return nil, err
		}
		p.mu.Lock()
		p.skeletonList = append(p.skeletonList, sk)
		p.mu.Unlock()
		return sk, nil
	})
	return sk, err
}

// contextKey is the analysis-engine cache key: the partition, the cache
// *shape* (capacity varies per Analyze, so it is deliberately absent — one
// engine serves a whole capacity sweep) and the Options fields the engine
// bakes in. A cache-less key has no shape part.
func contextKey(regions []obj.Region, opts wcet.Options) string {
	shape := ""
	if opts.Cache != nil {
		cc := opts.Cache.WithDefaults()
		shape = fmt.Sprintf("cacheshape=%d/%d/%s|", cc.LineSize, cc.Assoc, cacheKind(&cc))
	}
	return fmt.Sprintf("%s%sstack=%d", unitPrefix(regions), shape, opts.StackBound)
}

// Profile collects (memoized) the typical-input access profile on the
// baseline system (no scratchpad, no cache), consulting the disk tier
// before simulating.
func (p *Pipeline) Profile(ctx context.Context) (*sim.Profile, error) {
	return p.profile.get(ctx, p, request[*sim.Profile]{
		key: profileStageKey,
		compute: func(ctx context.Context, timed timer[*sim.Profile]) (*sim.Profile, error) {
			exe, err := p.LinkUnits(ctx, nil, 0, nil)
			if err != nil {
				return nil, err
			}
			return timed(func() (*sim.Profile, error) {
				prof, err := sim.CollectProfile(exe, sim.Options{})
				if err != nil {
					return nil, err
				}
				prof.Result.Mem = nil
				return prof, nil
			})
		},
	})
}

// PrimeProfile seeds the profile stage with an already-collected artifact
// (e.g. when resetting link/analyse artifacts without re-profiling).
func (p *Pipeline) PrimeProfile(prof *sim.Profile) {
	e := p.profile.memo.slot(profileStageKey)
	e.mu.Lock()
	e.val, e.err, e.done = prof, nil, true
	e.mu.Unlock()
}

// Allocate runs (memoized) the allocation policy at one capacity. The memo
// key is the policy's ConfigKey plus the capacity, so repeated sweeps
// serve the knapsack/fixpoint solves from cache instead of re-solving.
// Solves also persist in the disk tier (stage key
// "alloc|<ConfigKey>|cap=<n>"), so warm sweeps re-solve zero knapsacks
// *across processes*, not just within one.
func (p *Pipeline) Allocate(ctx context.Context, a Allocator, capacity uint32) (*Allocation, error) {
	return p.alloc.get(ctx, p, request[*Allocation]{
		key:   fmt.Sprintf("alloc|%s|cap=%d", a.ConfigKey(), capacity),
		attrs: []obs.Attr{obs.A("capacity", capacity)},
		compute: func(ctx context.Context, timed timer[*Allocation]) (*Allocation, error) {
			return timed(func() (*Allocation, error) { return a.Allocate(ctx, p, capacity) })
		},
	})
}

// allocCodec persists an Allocation as the store's AllocArtifact.
var allocCodec = store.Codec[*Allocation]{
	Kind: store.KindAlloc,
	Encode: func(a *Allocation) []byte {
		return store.EncodeAlloc(&store.AllocArtifact{
			InSPM: a.InSPM, Benefit: a.Benefit, Used: a.Used, Splits: a.Splits,
			Iterations: uint32(a.Iterations), Converged: a.Converged,
		})
	},
	Decode: func(b []byte) (*Allocation, error) {
		art, err := store.DecodeAlloc(b)
		if err != nil {
			return nil, err
		}
		return &Allocation{
			InSPM: art.InSPM, Benefit: art.Benefit, Used: art.Used, Splits: art.Splits,
			Iterations: int(art.Iterations), Converged: art.Converged,
		}, nil
	},
}

// debugStage emits one debug record per cold stage execution — visible
// only at `-log debug`, and allocation-free below it.
func (p *Pipeline) debugStage(ctx context.Context, stage, key string, d time.Duration) {
	obs.Log.LogAttrs(ctx, slog.LevelDebug, "stage",
		slog.String("stage", stage), slog.String("bench", p.bench), slog.String("key", key),
		slog.Float64("dur_ms", float64(d)/float64(time.Millisecond)))
}

// StageLatency reads the per-stage latency histograms back out of the
// process-wide registry for one benchmark; bench == "" aggregates across
// every benchmark. Keys are the stage names ("link", "simulate",
// "analyze", "profile", "alloc"); stages that never ran cold are absent.
func StageLatency(bench string) map[string]obs.HistogramSnapshot {
	out := make(map[string]obs.HistogramSnapshot)
	for _, f := range obs.Default.Snapshot() {
		if f.Name != "wcetlab_stage_seconds" {
			continue
		}
		for _, s := range f.Samples {
			if s.Hist == nil || s.Hist.Count == 0 {
				continue
			}
			if bench != "" && s.Label("bench") != bench {
				continue
			}
			stage := s.Label("stage")
			if prev, ok := out[stage]; ok {
				prev.Merge(*s.Hist)
				out[stage] = prev
			} else {
				cp := *s.Hist
				cp.Counts = append([]uint64(nil), s.Hist.Counts...)
				out[stage] = cp
			}
		}
	}
	return out
}

// Stats returns a snapshot of the stage counters: a view over the stage
// runners' counter sets and the registered analysis skeletons and engines.
func (p *Pipeline) Stats() Stats {
	var s Stats
	s.Links, s.LinkHits, _, _, s.LinkTime = p.link.counts()
	s.Sims, s.SimHits, s.SimDiskHits, s.SimDiskMisses, s.SimTime = p.sim.counts()
	s.Analyses, s.AnalyzeHits, s.AnalyzeDiskHits, s.AnalyzeDiskMisses, s.AnalyzeTime = p.analyze.counts()
	s.Profiles, s.ProfileHits, s.ProfileDiskHits, s.ProfileDiskMisses, s.ProfileTime = p.profile.counts()
	s.Allocs, s.AllocHits, s.AllocDiskHits, s.AllocDiskMisses, s.AllocTime = p.alloc.counts()
	s.AnalyzeUpgrades = p.upgrades.n.Load()
	s.StoreErrors = p.storeErrors.n.Load()
	s.SimsRetimed = p.simRetimed.n.Load()
	s.SimsSwept = p.simSwept.n.Load()
	s.ContextReuses = p.reuses[0].Load()
	s.CacheContextReuses = p.reuses[1].Load()

	p.mu.Lock()
	skeletons := slices.Clone(p.skeletonList)
	engines := slices.Clone(p.engineList)
	p.mu.Unlock()
	s.SkeletonBuilds = uint64(len(skeletons))
	for _, sk := range skeletons {
		if n := sk.Engines(); n > 1 {
			s.SkeletonReuses += n - 1
		}
	}
	// Fold in the engine counters from the registered engines' atomics —
	// never their locks, which an in-flight compute may hold for the
	// length of a solve.
	for _, e := range engines {
		es := e.Stats()
		if e.HasCache() {
			s.CacheContextBuilds++
			s.CacheFuncsReanalyzed += es.FuncsReanalyzed
			s.CacheFuncs += es.FuncsTotal
		} else {
			s.ContextBuilds++
		}
		s.SolverStateHits += es.StateHits
		s.SolverStateMisses += es.FuncsSolved
	}
	return s
}
