// Package sim runs linked executables on the ARM7 THUMB model, producing
// average-case cycle counts (the paper's ARMulator role) and per-object
// access profiles that drive the scratchpad allocator.
package sim

import (
	"fmt"
	"math/bits"

	"repro/internal/arm"
	"repro/internal/cache"
	"repro/internal/link"
	"repro/internal/mem"
	"repro/internal/obj"
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
	// Cache, when non-nil, enables a unified cache in front of main memory.
	Cache *cache.Config
	// MaxInstrs overrides the default instruction budget when non-zero.
	MaxInstrs uint64
	// OnAccess observes every memory access (profiling).
	OnAccess func(mem.Access)
}

// Result summarises a simulation run.
type Result struct {
	Cycles      uint64
	Instrs      uint64
	CacheHits   uint64
	CacheMisses uint64
	// ExitCode is r0 when the program executed SWI 0 (main's return value).
	ExitCode uint32
	// Mem is the final memory system of a Run, for post-run inspection of
	// outputs. Results served by the pipeline and Retime carry nil.
	Mem *mem.System
}

// Run simulates the executable from its entry point until SWI 0.
func Run(exe *link.Executable, opts Options) (*Result, error) {
	sys, err := exe.NewMemory(opts.Cache)
	if err != nil {
		return nil, err
	}
	sys.OnAccess = opts.OnAccess
	cpu := arm.NewCPU(sys, exe.EntryAddr, link.StackTop)
	budget := opts.MaxInstrs
	if budget == 0 {
		budget = DefaultMaxInstrs
	}
	err = cpu.Run(budget)
	mInstrs.Add(cpu.Instrs)
	mDecodeMisses.Add(cpu.DecodeMisses)
	if err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	res := &Result{
		Cycles:   cpu.Cycles,
		Instrs:   cpu.Instrs,
		ExitCode: cpu.R[0],
		Mem:      sys,
	}
	if sys.Cache != nil {
		res.CacheHits = sys.Cache.Hits
		res.CacheMisses = sys.Cache.Misses
	}
	return res, nil
}

// ObjectProfile aggregates the accesses hitting one memory object during a
// profiling run.
type ObjectProfile struct {
	// Fetches counts instruction fetches (16-bit accesses) within the
	// object (code objects only).
	Fetches uint64
	// LiteralReads counts 32-bit data reads within a code object (literal
	// pool accesses).
	LiteralReads uint64
	// Reads and Writes count data accesses to data objects.
	Reads  uint64
	Writes uint64
	// DataByWidth counts the object's data accesses (literal reads, reads
	// and writes) by their observed width: [0] bytes, [1] halfwords, [2]
	// words. A data object need not be accessed at its element width.
	DataByWidth [3]uint64
}

// SPMSaving returns the cycles the object's accesses save when it sits in
// the scratchpad rather than in cache-less main memory: every access
// costs MainCost of its width there and SPMCycles here (Table 1).
// Instruction fetches are halfwords.
func (p *ObjectProfile) SPMSaving() uint64 {
	s := p.Fetches * uint64(mem.MainCost(2)-mem.SPMCycles)
	for i, n := range p.DataByWidth {
		s += n * uint64(mem.MainCost(1<<i)-mem.SPMCycles)
	}
	return s
}

// Total returns the total access count.
func (p *ObjectProfile) Total() uint64 {
	return p.Fetches + p.LiteralReads + p.Reads + p.Writes
}

// Profile is a per-object access profile from a typical-input run.
type Profile struct {
	// ByObject maps object name to its access counts.
	ByObject map[string]*ObjectProfile
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
// frequencies" to drive the knapsack allocation.
func CollectProfile(exe *link.Executable, opts Options) (*Profile, error) {
	prof := &Profile{
		ByObject:     make(map[string]*ObjectProfile, len(exe.Placements)),
		MinStackAddr: link.StackTop,
	}
	for _, pl := range exe.Placements {
		prof.ByObject[pl.Obj.Name] = &ObjectProfile{}
	}
	prev := opts.OnAccess
	// Consecutive accesses mostly hit the same object, so the last
	// placement and its counters are checked before the address search.
	var lastPl *link.Placement
	var lastOp *ObjectProfile
	opts.OnAccess = func(a mem.Access) {
		if prev != nil {
			prev(a)
		}
		if a.Addr >= link.StackBase && a.Addr < link.StackTop {
			prof.StackAccesses++
			if a.Addr < prof.MinStackAddr {
				prof.MinStackAddr = a.Addr
			}
			return
		}
		pl, op := lastPl, lastOp
		if pl == nil || !pl.Contains(a.Addr) {
			if pl = exe.FindAddr(a.Addr); pl == nil {
				return
			}
			op = prof.ByObject[pl.Obj.Name]
			lastPl, lastOp = pl, op
		}
		if a.Fetch {
			op.Fetches++
			return
		}
		op.DataByWidth[bits.TrailingZeros8(a.Size)]++ // sizes 1, 2, 4 → 0, 1, 2
		switch {
		case pl.Obj.Kind == obj.Code:
			op.LiteralReads++
		case a.Write:
			op.Writes++
		default:
			op.Reads++
		}
	}
	res, err := Run(exe, opts)
	if err != nil {
		return nil, err
	}
	prof.Result = res
	return prof, nil
}

// Retime returns the result of running exe, a cache-less placement of the
// program base was profiled on, without simulating it. Scratchpad timing
// is a fixed price per access, so a run that makes the profiled accesses
// takes base's cycles minus the SPMSaving of every object exe places in
// the scratchpad. That holds only for a program whose accesses do not
// depend on where its objects are placed (obj.Program's
// PlacementIndependent). The result has base's instruction count and exit
// code, no cache counters and a nil Mem.
func Retime(base *Profile, exe *link.Executable) *Result {
	res := &Result{Cycles: base.Result.Cycles, Instrs: base.Result.Instrs, ExitCode: base.Result.ExitCode}
	for _, pl := range exe.Placements {
		if op := base.ByObject[pl.Obj.Name]; pl.InSPM && op != nil {
			res.Cycles -= op.SPMSaving()
		}
	}
	return res
}
