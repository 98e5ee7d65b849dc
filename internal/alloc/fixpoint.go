package alloc

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"repro/internal/cfg"
	"repro/internal/mem"
	"repro/internal/obj"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/wcet"
)

// Process-wide fixpoint metrics: how many knapsack/re-analyse rounds the
// fixpoint ran and how many produced a strictly better accepted bound.
var (
	mFixpointIters = obs.Default.Counter("wcetlab_alloc_fixpoint_iterations_total",
		"Knapsack/re-analyse rounds executed by the fixpoint driver.")
	mBoundImprovements = obs.Default.Counter("wcetlab_alloc_bound_improvements_total",
		"Accepted allocations improving (or canonically tying) the certified bound.")
)

// DefaultMaxIter caps the re-link/re-analyse loop; the benchmarks converge
// in one or two iterations.
const DefaultMaxIter = 8

// Granularity selects what the fixpoint treats as a placement unit.
type Granularity uint8

const (
	// GranObject places whole memory objects (functions and globals) — the
	// paper's granularity.
	GranObject Granularity = iota
	// GranBlock additionally splits hot regions (contiguous basic-block
	// runs, typically loop bodies) out of functions whose worst-case cycles
	// concentrate there, and places the fragments independently. The
	// certified bound is never worse than GranObject's: the whole-object
	// solution seeds the comparison.
	GranBlock
)

func (g Granularity) String() string {
	if g == GranBlock {
		return "block"
	}
	return "object"
}

// ParseGranularity parses "object" or "block".
func ParseGranularity(s string) (Granularity, error) {
	switch s {
	case "object", "":
		return GranObject, nil
	case "block":
		return GranBlock, nil
	}
	return GranObject, fmt.Errorf("alloc: unknown granularity %q (want object or block)", s)
}

// Options configures one run of the fixpoint.
type Options struct {
	// Seeds are allocations to evaluate before iterating — e.g. the
	// energy-directed allocation — so the result is never worse than the
	// best seed. Seeds that do not fit the capacity are rejected.
	Seeds []map[string]bool
	// Energy, when non-nil, models the average-case energy of a placement
	// and breaks ties among equal-WCET allocations: the lower-energy one
	// is kept, making the reported placement canonical. When nil, the
	// most recently evaluated equal-WCET allocation wins.
	Energy func(inSPM map[string]bool) float64
	// MaxIter bounds the number of knapsack/re-analysis rounds
	// (DefaultMaxIter when zero).
	MaxIter int
	// Granularity selects whole-object or basic-block placement units
	// (GranObject when zero).
	Granularity Granularity
}

func (o Options) maxIter() int {
	if o.MaxIter <= 0 {
		return DefaultMaxIter
	}
	return o.MaxIter
}

// Iteration is one accepted step of the fixpoint loop.
type Iteration struct {
	// InSPM is the allocation evaluated this step.
	InSPM map[string]bool
	// Used is the scratchpad occupancy in bytes (alignment-rounded).
	Used uint32
	// WCET is the analysed bound under this allocation.
	WCET uint64
}

// Result is the outcome of a fixpoint run.
type Result struct {
	// InSPM names the objects placed in the scratchpad; under a non-empty
	// Splits partition the names refer to the split program's objects.
	InSPM map[string]bool
	// Used is the scratchpad occupancy in bytes (alignment-rounded).
	Used uint32
	// WCET is the analysed bound under InSPM.
	WCET uint64
	// Baseline is the bound with an empty scratchpad of the same capacity
	// (of the *unsplit* program, so bounds at both granularities share one
	// reference).
	Baseline uint64
	// Iterations traces the accepted allocations, baseline first; WCET is
	// non-increasing along it.
	Iterations []Iteration
	// Converged reports that the loop stopped because the allocation
	// repeated or stopped improving (false: MaxIter hit).
	Converged bool
	// Splits is the placement-unit partition the winning allocation uses:
	// nil when whole-object placement won (always at GranObject).
	Splits []obj.Region
}

// Run is the WCET-directed fixpoint behind Directed: it iterates link →
// analyse → re-solve — each round a branch & bound knapsack over the
// worst-case cycles the incumbent's witness saves — until the allocation
// repeats, the certified bound stops improving, or MaxIter is hit; the
// accepted bound is monotonically non-increasing.
//
// Every link+analyse goes through the pipeline, so evaluations are
// memoized: the capacity-independent empty-scratchpad baseline is analysed
// once per program, already-evaluated allocations are never re-analysed,
// and pre-evaluated seeds enter the loop without any analysis at all.
func Run(ctx context.Context, p *pipeline.Pipeline, capacity uint32, opts Options) (*Result, error) {
	if opts.Granularity == GranBlock {
		return runBlock(ctx, p, capacity, opts)
	}
	return run(ctx, p, nil, capacity, opts)
}

// runBlock is the basic-block-granularity strategy: solve at whole-object
// granularity first, derive the hot-region partition from the baseline
// witness, re-run the same fixpoint over the split program's units, and
// keep whichever certified bound is lower. Seeding the unit run with the
// whole-object winner (fragments added for split functions) and taking the
// minimum at the end makes the block-granularity bound never worse than
// the whole-object one, by construction.
func runBlock(ctx context.Context, p *pipeline.Pipeline, capacity uint32, opts Options) (*Result, error) {
	objRes, err := run(ctx, p, nil, capacity, opts)
	if err != nil {
		return nil, err
	}
	base, err := p.Analyze(ctx, capacity, nil, wcet.Options{Witness: true}) // cached: the fixpoint's baseline
	if err != nil {
		return nil, err
	}
	regions, err := HotRegions(ctx, p, base.Witness, capacity)
	if err != nil || len(regions) == 0 {
		return objRes, err
	}
	bopts := opts
	// The average-case energy tie-break is an object-granularity model (the
	// profile knows nothing of fragments); the unit run stays deterministic
	// without it.
	bopts.Energy = nil
	bopts.Seeds = []map[string]bool{expandSeed(objRes.InSPM, regions)}
	for _, s := range opts.Seeds {
		bopts.Seeds = append(bopts.Seeds, expandSeed(s, regions))
	}
	blockRes, err := run(ctx, p, regions, capacity, bopts)
	if err != nil {
		return nil, err
	}
	if blockRes.WCET < objRes.WCET {
		blockRes.Splits = regions
		// Report bounds at both granularities against the one canonical
		// reference: the unsplit empty-scratchpad baseline.
		blockRes.Baseline = objRes.Baseline
		return blockRes, nil
	}
	return objRes, nil
}

// expandSeed maps a whole-object allocation onto a split program: a chosen
// function that was split contributes its parent and its fragment, so the
// seed covers the same bytes (modulo trampolines).
func expandSeed(seed map[string]bool, regions []obj.Region) map[string]bool {
	split := make(map[string]bool, len(regions))
	for _, r := range regions {
		split[r.Func] = true
	}
	out := make(map[string]bool, len(seed)+2)
	for name, in := range seed {
		if !in {
			continue
		}
		out[name] = true
		if split[name] {
			out[obj.FragmentName(name)] = true
		}
	}
	return out
}

// HotRegions derives the placement-unit partition for a program from its
// baseline worst-case witness: per function, the natural-loop byte range
// with the highest worst-case fetch savings that can actually be outlined
// (single entry, encodable fixups) and whose fragment fits the capacity.
// Functions whose worst case never runs, or whose loops cannot be split,
// contribute nothing. The result is canonical (sorted, one region per
// function), so it is a stable cache-key ingredient.
func HotRegions(ctx context.Context, p *pipeline.Pipeline, w *wcet.Witness, capacity uint32) ([]obj.Region, error) {
	exe, err := p.Link(ctx, 0, nil)
	if err != nil {
		return nil, err
	}
	g, err := cfg.Build(exe, exe.Prog.Entry)
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(g.Funcs))
	for n := range g.Funcs {
		names = append(names, n)
	}
	sort.Strings(names)

	var regions []obj.Region
	for _, fn := range names {
		f := g.Funcs[fn]
		counts := w.BlockCounts[fn]
		o := exe.Placement(fn).Obj
		if len(counts) == 0 || len(f.Loops) == 0 {
			continue
		}
		type cand struct {
			lo, hi  uint32
			benefit int64
		}
		var cands []cand
		for _, l := range f.Loops {
			lo := l.Head.Start - f.Addr
			var hi uint32
			for b := range l.Blocks {
				if b.End-f.Addr > hi {
					hi = b.End - f.Addr
				}
			}
			if hi > o.CodeSize || (lo == 0 && hi >= o.CodeSize) {
				continue
			}
			// Worst-case fetch cycles recoverable by serving the region's
			// address range from the scratchpad.
			var fetches mem.Accesses
			for _, b := range f.Blocks {
				if b.Start < f.Addr+lo || b.Start >= f.Addr+hi || b.Index >= len(counts) {
					continue
				}
				for _, ci := range b.Instrs {
					fetches.Fetches += counts[b.Index] * uint64(ci.Size/2)
				}
			}
			benefit := int64(fetches.Saving())
			if benefit <= 0 {
				continue
			}
			cands = append(cands, cand{lo: lo, hi: hi, benefit: benefit})
		}
		sort.Slice(cands, func(i, j int) bool {
			if cands[i].benefit != cands[j].benefit {
				return cands[i].benefit > cands[j].benefit
			}
			if cands[i].lo != cands[j].lo {
				return cands[i].lo < cands[j].lo
			}
			return cands[i].hi < cands[j].hi
		})
		for _, c := range cands {
			r := obj.Region{Func: fn, Start: c.lo, End: c.hi}
			// Through the pipeline's memoized split stage: repeated
			// derivations (one HotRegions call per swept capacity) validate
			// each candidate region once, not once per capacity.
			sp, err := p.SplitProgram([]obj.Region{r})
			if err != nil {
				continue // not single-entry or not encodable: try the next loop
			}
			if AlignedSize(sp.Object(obj.FragmentName(fn))) > capacity {
				continue // the unit could never be placed
			}
			regions = append(regions, r)
			break
		}
	}
	return obj.CanonicalRegions(regions)
}

// evaluation is one linked+analysed allocation. energy memoizes the
// Options.Energy value (NaN until computed).
type evaluation struct {
	inSPM   map[string]bool
	used    uint32
	wcet    uint64
	witness *wcet.Witness
	energy  float64
}

// evaluator owns the link+analyse machinery one fixpoint run shares: every
// evaluation goes through the pipeline's memoized stages under the run's
// unit partition.
type evaluator struct {
	p       *pipeline.Pipeline
	prog    *obj.Program
	regions []obj.Region
	cap     uint32
}

func (e *evaluator) usedBytes(inSPM map[string]bool) uint32 {
	var used uint32
	for name, in := range inSPM {
		if in {
			used += AlignedSize(e.prog.Object(name))
		}
	}
	return used
}

func (e *evaluator) evaluate(ctx context.Context, inSPM map[string]bool) (*evaluation, error) {
	res, err := e.p.AnalyzeUnits(ctx, e.regions, e.cap, inSPM, wcet.Options{Witness: true})
	if err != nil {
		return nil, fmt.Errorf("alloc: %w", err)
	}
	return &evaluation{inSPM: inSPM, used: e.usedBytes(inSPM), wcet: res.WCET, witness: res.Witness, energy: math.NaN()}, nil
}

// run iterates the link → analyse → re-allocate fixpoint over the units of
// one partition: the program's own objects when regions is nil, the split
// program's objects (fragments included) otherwise.
func run(ctx context.Context, p *pipeline.Pipeline, regions []obj.Region, capacity uint32, opts Options) (*Result, error) {
	gran := "object"
	if len(regions) > 0 {
		gran = "block"
	}
	ctx, sp := obs.Start(ctx, "fixpoint", obs.A("capacity", capacity), obs.A("granularity", gran))
	defer sp.End()
	prog, err := p.SplitProgram(regions)
	if err != nil {
		return nil, fmt.Errorf("alloc: %w", err)
	}
	ev := &evaluator{p: p, prog: prog, regions: regions, cap: capacity}

	// modelledEnergy memoizes Options.Energy per evaluation.
	modelledEnergy := func(e *evaluation) float64 {
		if math.IsNaN(e.energy) {
			e.energy = opts.Energy(e.inSPM)
		}
		return e.energy
	}
	// better reports whether cand beats the incumbent: a strictly lower
	// bound always wins; on an equal bound the tie-break (lower modelled
	// energy) decides, or, without an energy model, the newcomer wins.
	better := func(cand, incumbent *evaluation) bool {
		if cand.wcet != incumbent.wcet {
			return cand.wcet < incumbent.wcet
		}
		if opts.Energy == nil {
			return true
		}
		return modelledEnergy(cand) < modelledEnergy(incumbent)
	}

	base, err := ev.evaluate(ctx, map[string]bool{})
	if err != nil {
		return nil, err
	}
	r := &Result{
		Baseline:   base.wcet,
		Iterations: []Iteration{{InSPM: base.inSPM, Used: 0, WCET: base.wcet}},
	}
	best := base
	seen := map[string]bool{allocKey(base.inSPM): true}

	// Seeds (e.g. the energy-directed allocation): the result can only be
	// at least as good as the best of them. Seeds naming unknown objects
	// or exceeding the capacity are rejected, not errors.
	for _, seed := range opts.Seeds {
		seed = fittingSeed(prog, seed, capacity)
		if len(seed) == 0 || seen[allocKey(seed)] {
			continue
		}
		seen[allocKey(seed)] = true
		e, err := ev.evaluate(ctx, seed)
		if err != nil {
			return nil, err
		}
		if e.wcet <= best.wcet && better(e, best) {
			best = e
			r.Iterations = append(r.Iterations, Iteration{InSPM: e.inSPM, Used: e.used, WCET: e.wcet})
			mBoundImprovements.Inc()
		}
	}

	for i := 0; i < opts.maxIter(); i++ {
		mFixpointIters.Inc()
		items := Candidates(prog, WCETBenefit(best.witness), capacity)
		// Warm-start the branch & bound with the previous accepted
		// allocation's value under the re-priced benefits.
		alloc, err := Knapsack(ctx, items, capacity, best.inSPM)
		if err != nil {
			return nil, fmt.Errorf("alloc: %w", err)
		}
		key := allocKey(alloc.InSPM)
		if seen[key] {
			// The allocation repeated: fixpoint.
			r.Converged = true
			break
		}
		seen[key] = true
		e, err := ev.evaluate(ctx, alloc.InSPM)
		if err != nil {
			return nil, err
		}
		if e.wcet > best.wcet {
			// The first-order benefit model over-promised (the worst path
			// moved): keep the incumbent. The accepted trace stays
			// monotone.
			r.Converged = true
			break
		}
		stalled := e.wcet == best.wcet
		if better(e, best) {
			best = e
			r.Iterations = append(r.Iterations, Iteration{InSPM: e.inSPM, Used: e.used, WCET: e.wcet})
			mBoundImprovements.Inc()
		}
		if stalled {
			// Equal bound under a new allocation: further rounds can only
			// oscillate between equally worst paths. The tie-break above
			// decided which of the two equal-WCET placements is canonical.
			r.Converged = true
			break
		}
	}

	r.InSPM = best.inSPM
	r.Used = best.used
	r.WCET = best.wcet
	if sp != nil {
		bounds := make([]string, len(r.Iterations))
		for i, it := range r.Iterations {
			bounds[i] = strconv.FormatUint(it.WCET, 10)
		}
		sp.SetAttr("bounds", strings.Join(bounds, ","))
		sp.SetAttr("accepted", len(r.Iterations))
		sp.SetAttr("converged", r.Converged)
	}
	return r, nil
}

// fittingSeed normalises a seed allocation to its true entries, dropping
// the whole seed (nil) if it names an unknown object or if its
// alignment-rounded sizes exceed the capacity. Under the toolchain's
// uniform word alignment the accepted seed is guaranteed to link (at the
// price of rejecting a rare seed that would only fit unpadded); see
// AlignedSize for the mixed-alignment caveat.
func fittingSeed(prog *obj.Program, seed map[string]bool, capacity uint32) map[string]bool {
	out := make(map[string]bool, len(seed))
	var used uint32
	for name, in := range seed {
		if !in {
			continue
		}
		o := prog.Object(name)
		if o == nil {
			return nil
		}
		used += AlignedSize(o)
		if used > capacity {
			return nil
		}
		out[name] = true
	}
	return out
}

// allocKey canonicalises an allocation set for fixpoint detection.
func allocKey(inSPM map[string]bool) string {
	names := make([]string, 0, len(inSPM))
	for n, ok := range inSPM {
		if ok {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	return strings.Join(names, "\x00")
}
