// Package sim runs linked executables on the ARM7 THUMB model, producing
// average-case cycle counts (the paper's ARMulator role) and per-object
// access profiles that drive the scratchpad allocator.
package sim

import (
	"fmt"

	"repro/internal/arm"
	"repro/internal/cache"
	"repro/internal/link"
	"repro/internal/mem"
	"repro/internal/obs"
)

// Interpreter counters, added once per Run from the CPU's own tallies so the
// per-instruction path never touches the registry.
var (
	mInstrs = obs.Default.Counter("wcetlab_sim_instructions_total",
		"THUMB instructions retired by simulation runs.")
	mDecodeMisses = obs.Default.Counter("wcetlab_sim_decode_misses_total",
		"Instruction fetches that missed the interpreter's decode memo.")
)

// DefaultMaxInstrs bounds simulated instructions to catch runaway programs.
const DefaultMaxInstrs = 200_000_000

// Options configures a simulation run.
type Options struct {
	// MaxInstrs overrides the default instruction budget when non-zero.
	MaxInstrs uint64
}

// Result summarises a simulation run.
type Result struct {
	Cycles uint64
	Instrs uint64
	// CacheHits and CacheMisses count the cache's read hits and misses in
	// a RunCaches result; a cache-less run has none.
	CacheHits   uint64
	CacheMisses uint64
	// ExitCode is r0 when the program executed SWI 0 (main's return value).
	ExitCode uint32
	// Mem is the final memory system of a Run, for post-run inspection of
	// outputs. Results served by the pipeline, RunCaches and Retime carry
	// nil.
	Mem *mem.System
}

// Run simulates the executable, without a cache, from its entry point
// until SWI 0.
func Run(exe *link.Executable, opts Options) (*Result, error) {
	return run(exe, exe.NewMemory(), opts)
}

// run is Run on sys, a fresh memory system of exe.
func run(exe *link.Executable, sys *mem.System, opts Options) (*Result, error) {
	cpu := arm.NewCPU(sys, exe.EntryAddr, link.StackTop)
	budget := opts.MaxInstrs
	if budget == 0 {
		budget = DefaultMaxInstrs
	}
	err := cpu.Run(budget)
	mInstrs.Add(cpu.Instrs)
	mDecodeMisses.Add(cpu.DecodeMisses)
	if err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	return &Result{Cycles: cpu.Cycles, Instrs: cpu.Instrs, ExitCode: cpu.R[0], Mem: sys}, nil
}

// RunCaches returns the result of running exe under each of cfgs, any
// valid cache configurations, and is the only way a cache is simulated.
// The cache is tag-only and write-through, so its timing is a function of
// the main-memory access stream alone: exe runs once, without a cache,
// feeding that stream to one cache.Sweep. A cached read costs HitCycles or
// MissCycles where the run paid main-memory cost, so each result's cycles
// are the run's minus what the reads its cache prices cost, plus its hits
// and misses priced. Results carry the run's instruction count and exit
// code, and a nil Mem.
func RunCaches(exe *link.Executable, cfgs []cache.Config) ([]*Result, error) {
	sw, err := cache.NewSweep(cfgs)
	if err != nil {
		return nil, err
	}
	sys := exe.NewMemory()
	sys.Sweep = sw
	base, err := run(exe, sys, Options{})
	if err != nil {
		return nil, err
	}
	out := make([]*Result, len(cfgs))
	for i := range cfgs {
		hits, misses, replaced := sw.Counts(i)
		out[i] = &Result{
			Cycles:      base.Cycles - replaced + hits*cache.HitCycles + misses*cache.MissCycles,
			Instrs:      base.Instrs,
			CacheHits:   hits,
			CacheMisses: misses,
			ExitCode:    base.ExitCode,
		}
	}
	return out, nil
}

// Profile is a per-object access profile from a typical-input run.
type Profile struct {
	// ByObject maps object name to its access counts: fetches, and data
	// accesses (literal-pool reads included) by the width they were made
	// at, which need not be a data object's element width.
	ByObject map[string]*mem.Accesses
	// StackAccesses counts accesses that fell into the stack region.
	StackAccesses uint64
	// MinStackAddr is the lowest stack address touched (== link.StackTop if
	// the stack was never used). StackTop-MinStackAddr is the observed
	// maximum stack depth, which the WCET pipeline inflates into a safe
	// stack bound annotation.
	MinStackAddr uint32
	// Result is the underlying simulation result.
	Result *Result
}

// ObservedStackDepth returns the maximum stack depth seen in bytes.
func (p *Profile) ObservedStackDepth() uint32 { return link.StackTop - p.MinStackAddr }

// CollectProfile simulates the baseline executable (typically linked with
// no scratchpad) and attributes every access to its memory object. The
// paper's compiler uses exactly this knowledge of "execution and access
// frequencies" to drive the knapsack allocation. The memory system counts
// the run's accesses per address; an object's counts are the sum over its
// bytes, and the stack's give StackAccesses and MinStackAddr.
func CollectProfile(exe *link.Executable, opts Options) (*Profile, error) {
	sys := exe.NewMemory()
	sys.CountAccesses()
	res, err := run(exe, sys, opts)
	if err != nil {
		return nil, err
	}
	prof := &Profile{
		ByObject:     make(map[string]*mem.Accesses, len(exe.Placements)),
		MinStackAddr: link.StackTop,
		Result:       res,
	}
	for _, pl := range exe.Placements {
		op := &mem.Accesses{}
		for _, c := range sys.Counts(pl.Addr, pl.Obj.Size()) {
			op.AddScaled(&c, 1)
		}
		prof.ByObject[pl.Obj.Name] = op
	}
	stack := sys.Counts(link.StackBase, link.StackSize)
	for off := len(stack) - 1; off >= 0; off-- {
		if n := stack[off].Total(); n > 0 {
			prof.StackAccesses += n
			prof.MinStackAddr = link.StackBase + uint32(off)
		}
	}
	return prof, nil
}

// Retime returns the result of running exe, a cache-less placement of the
// program base was profiled on, without simulating it. Scratchpad timing
// is a fixed price per access, so a run that makes the profiled accesses
// takes base's cycles minus the Saving of every object exe places in
// the scratchpad. That holds only for a program whose accesses do not
// depend on where its objects are placed (obj.Program's
// PlacementIndependent). The result has base's instruction count and exit
// code, no cache counters and a nil Mem.
func Retime(base *Profile, exe *link.Executable) *Result {
	res := &Result{Cycles: base.Result.Cycles, Instrs: base.Result.Instrs, ExitCode: base.Result.ExitCode}
	for _, pl := range exe.Placements {
		if op := base.ByObject[pl.Obj.Name]; pl.InSPM && op != nil {
			res.Cycles -= op.Saving()
		}
	}
	return res
}
