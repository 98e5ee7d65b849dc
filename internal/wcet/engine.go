package wcet

import (
	"context"
	"encoding/binary"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/cache"
	"repro/internal/ilp"
	"repro/internal/link"
	"repro/internal/obs"
)

// Incremental-engine metrics. Cache-less and cache engines count into
// separate series so the two workloads stay distinguishable; the solver
// state counters cover both.
var (
	mCtxBuilds = obs.Default.Counter("wcetlab_context_builds_total",
		"Cache-less analysis engines built, each on a shared skeleton (see wcetlab_wcet_skeleton_builds_total).")
	mCtxReuses = obs.Default.Counter("wcetlab_context_reuses_total",
		"Analyses served by re-pricing an existing context instead of a cold build.")
	mCtxBlocksRepriced = obs.Default.Counter("wcetlab_context_blocks_repriced_total",
		"Blocks whose cost was recomputed across all context analyses.")
	mCtxBlocksTotal = obs.Default.Counter("wcetlab_context_blocks_total",
		"Blocks in scope across all context analyses (repriced + reused).")
	mCtxFuncsSolved = obs.Default.Counter("wcetlab_context_funcs_solved_total",
		"Per-function IPET re-solves across all context analyses.")
	mCtxFuncsTotal = obs.Default.Counter("wcetlab_context_funcs_total",
		"Functions in scope across all context analyses (solved + reused).")

	mCCtxBuilds = obs.Default.Counter("wcetlab_cache_context_builds_total",
		"Cache analysis engines built, one per cache shape, each on a shared skeleton.")
	mCCtxReuses = obs.Default.Counter("wcetlab_cache_context_reuses_total",
		"Cache analyses served by an existing cache context instead of a cold build.")
	mCCtxFuncsReanalyzed = obs.Default.Counter("wcetlab_cache_context_funcs_reanalyzed_total",
		"Functions whose MUST fixed point actually re-ran across cache-context analyses.")
	mCCtxFuncsTotal = obs.Default.Counter("wcetlab_cache_context_funcs_total",
		"Functions in scope across cache-context analyses (re-analyzed + reused).")
	mCCtxMustReused = obs.Default.Counter("wcetlab_cache_context_must_reused_total",
		"Function visits of a MUST pass served by the function's current record because its entry and callee exit states were unchanged.")

	mSolverHits = obs.Default.Counter("wcetlab_solver_state_hits_total",
		"Per-function IPET solves served from recorded solver state.")
	mSolverMisses = obs.Default.Counter("wcetlab_solver_state_misses_total",
		"Per-function IPET solves that ran because no recorded state matched.")
)

// Stats are one Engine's cumulative work counters, summed over analyses.
type Stats struct {
	// Analyses is the number of Analyze calls served.
	Analyses uint64
	// BlocksRepriced / BlocksTotal (cache-less engines): blocks whose cost
	// was recomputed vs blocks in scope. Their ratio is the fraction of
	// pricing work an incremental analysis actually does.
	BlocksRepriced, BlocksTotal uint64
	// FuncsReanalyzed (cache engines): distinct functions whose
	// intra-procedural MUST solve ran at least once during an analysis
	// (re-entries of the interprocedural fixed point are one). MustReused
	// counts the re-entries that kept the function's current record
	// because its entry and callee exit states had not changed.
	FuncsReanalyzed, MustReused uint64
	// FuncsTotal is the functions in scope. Of them, FuncsSolved ran an IPET
	// solve and StateHits adopted a recorded solution; the rest kept their
	// unchanged one.
	FuncsTotal, FuncsSolved, StateHits uint64
}

// classCounts are the classification counter deltas of one function's cost
// walk (the statistics Result surfaces).
type classCounts struct {
	fetchHit, fetchMiss, dataHit, dataMiss int
}

func (c *classCounts) add(o classCounts) {
	c.fetchHit += o.fetchHit
	c.fetchMiss += o.fetchMiss
	c.dataHit += o.dataHit
	c.dataMiss += o.dataMiss
}

// mustRecord is one converged intra-procedural MUST solve of a function
// within one pass (fixed layout and capacities): the entry state and callee
// exit states it was computed from, its exit state, the entry state its
// call blocks feed each callee, its per-block cycle costs and its
// classification counts. Records and their states are immutable once
// built; a record's states return to the pool only once it is replaced
// (release). Reusing one for the same inputs is bit-identical to
// re-running the solve.
type mustRecord struct {
	size       uint32               // cache capacity: the states' geometry
	entry      *mustState           // nil: not reached
	calleeExit []*mustState         // per skelFunc.callees entry, as read
	exit       *mustState           // nil: no return block reached
	calleeIn   map[int32]*mustState // per callee index: join over reached call blocks
	cost       []int64              // per block, by cfg Index
	counts     classCounts
}

// engineFunc is one function's per-engine analysis state.
type engineFunc struct {
	// cost is the block costs the next IPET solve prices: re-priced in
	// place without a cache, the latest MUST record's with one (rec).
	cost []int64
	rec  *mustRecord
	// sols records IPET solutions by solve-input signature; sol is the
	// current one and sig its signature.
	sols map[string]*FuncSolution
	sol  *FuncSolution
	sig  string
}

// memoCap bounds the per-function solution memo. Serving processes see a
// bounded set of layouts × capacities, so the cap only guards pathological
// drift; eviction is arbitrary because the memo affects work done, never
// results.
const memoCap = 512

func putCapped(m map[string]*FuncSolution, k string, v *FuncSolution) {
	if len(m) >= memoCap {
		for old := range m {
			delete(m, old)
			break
		}
	}
	m[k] = v
}

// Engine is the incremental WCET analyser of one analysis mode — cache-less,
// or one cache shape — built on a shared Skeleton. It holds only what
// depends on the mode and the placement: the stack bound, the layout the
// current costs reflect, per-function block costs, MUST records and IPET
// solutions, the MUST state pool and the work counters. Results are
// bit-identical to a from-scratch link + Analyze of the same configuration.
//
// Without a cache (nil Options.Cache) every access is priced by the memory
// side its object sits on, exactly as the paper stresses: no analysis
// beyond region timings. Analyze re-prices only the blocks that depend on
// an object whose side changed.
//
// With a cache the engine serves one cache *shape* (line size,
// associativity, instruction-only) at every capacity. An analysis under
// the layout and capacities of the previous one reuses every function's
// MUST record as is. Any other runs one MUST pass: an interprocedural
// iteration at function granularity in which a function re-runs its
// intra-procedural solve only when its entry state or a callee's exit
// state differs from those its current record was computed from. The
// abstract state is a flat array of 32-bit tags with the geometry reduced
// to shifts and a mask, so a step costs the sets the block touches. The
// fixed point is the unique MFP of a monotone equation system, so the pass
// is bit-identical to a cold whole-program run.
//
// Both modes then share the path analysis: a function whose block costs
// and callee bounds match its current solution keeps it, one matching a
// recorded solution adopts it, and any other re-solves warm-started from
// the skeleton's prepared tableau and the previous solution. The solver is
// deterministic and exact, so adoption is bit-identical to a fresh solve.
//
// All methods are safe for concurrent use; analyses on one engine
// serialise, while engines on one skeleton analyse in parallel.
type Engine struct {
	mu      sync.Mutex
	sk      *Skeleton
	stackLo uint32
	shape   *cache.Config // nil: cache-less; else Size zeroed, set per Analyze
	funcs   []engineFunc  // by skeleton index

	// lay is the layout the current block costs reflect: all of main
	// memory at construction without a cache, nil until the first analysis
	// with one. laySize/laySpm are its capacities (cache engines), for the
	// layout-stable fast path.
	lay             []link.ObjLayout
	laySize, laySpm uint32

	pool   *statePool // scratch states of the latest analysis's cache size
	keyBuf []byte

	// Counters are atomics so Stats never blocks on an in-flight analysis.
	analyses, blocksRepriced, blocksTotal, funcsReanalyzed, mustReused atomic.Uint64
	funcsTotal, funcsSolved, stateHits                                 atomic.Uint64
}

// Engine builds an incremental analysis engine on the skeleton.
// opts.Cache, when set, supplies the cache shape — its Size is ignored and
// chosen per Analyze, so one engine serves a whole capacity sweep.
// opts.Root must be empty or the skeleton's root; opts.Witness is ignored:
// witnesses are requested per Analyze.
func (sk *Skeleton) Engine(opts Options) (*Engine, error) {
	if opts.Root != "" && opts.Root != sk.order[sk.root] {
		return nil, fmt.Errorf("wcet: engine root %q on a skeleton rooted at %q", opts.Root, sk.order[sk.root])
	}
	c := &Engine{sk: sk, stackLo: link.StackBase, funcs: make([]engineFunc, len(sk.funcs))}
	if opts.StackBound > 0 && opts.StackBound < link.StackSize {
		c.stackLo = link.StackTop - opts.StackBound
	}
	if opts.Cache != nil {
		shape := opts.Cache.WithDefaults()
		shape.Size = 0
		c.shape = &shape
	} else {
		c.lay = make([]link.ObjLayout, len(sk.objName))
	}
	for i := range sk.funcs {
		ef := &c.funcs[i]
		ef.sols = make(map[string]*FuncSolution)
		if c.shape == nil {
			blocks := sk.funcs[i].blocks
			ef.cost = make([]int64, len(blocks))
			for j := range blocks {
				ef.cost[j] = blocks[j].price(c.lay)
			}
		}
	}
	if sk.engines.Add(1) > 1 {
		mSkelReuses.Inc()
	}
	if c.shape == nil {
		mCtxBuilds.Inc()
	} else {
		mCCtxBuilds.Inc()
	}
	return c, nil
}

// reprice re-prices a cache-less engine's blocks that depend on an object
// whose memory side differs from the layout the current costs reflect, and
// returns the number of (object, block) re-pricings.
func (c *Engine) reprice(lay []link.ObjLayout) uint64 {
	var n uint64
	for oi, l := range lay {
		if l.InSPM == c.lay[oi].InSPM {
			continue
		}
		for _, cb := range c.sk.deps[oi] {
			c.funcs[cb.fn].cost[cb.b.Index] = cb.price(lay)
			n++
		}
	}
	c.lay = lay
	return n
}

// Analyze computes the WCET bound of the program under the given cache
// capacity (zero for a cache-less engine), scratchpad capacity and
// placement, redoing only the work the change since the previous call
// touches. The result — bound, per-function bounds, classification counts
// and witness — is bit-identical to
//
//	wcet.Analyze(link.Link(prog, spmSize, inSPM), opts)
//
// with opts.Cache.Size = cacheSize, for the options the engine was built
// with. The analysis is recorded as an "ipet" span under ctx's trace
// (carrying its request id).
func (c *Engine) Analyze(ctx context.Context, cacheSize, spmSize uint32, inSPM map[string]bool, witness bool) (res *Result, err error) {
	attrs := []obs.Attr{obs.A("mode", "incremental"), obs.A("spm", spmSize)}
	if c.shape != nil {
		attrs = []obs.Attr{obs.A("mode", "cache-incremental"), obs.A("cache", cacheSize), obs.A("spm", spmSize)}
	}
	_, sp := obs.Start(ctx, "ipet", attrs...)
	defer func() {
		if err == nil {
			sp.SetAttr("wcet", res.WCET)
		}
		sp.End()
	}()
	c.mu.Lock()
	defer c.mu.Unlock()

	// Link-identical error precedence: the layout walk first (the cold path
	// links before analysing), then the cache validation.
	sk := c.sk
	lay, err := link.Layout(sk.base.Prog, spmSize, inSPM)
	if err != nil {
		return nil, err
	}
	nf := uint64(len(sk.order))
	if c.shape == nil {
		if cacheSize != 0 {
			return nil, fmt.Errorf("wcet: cache size %d given to a cache-less engine", cacheSize)
		}
		if c.analyses.Add(1) > 1 {
			mCtxReuses.Inc()
		}
		n := c.reprice(lay)
		c.blocksRepriced.Add(n)
		c.blocksTotal.Add(sk.nblocks)
		mCtxBlocksRepriced.Add(n)
		mCtxBlocksTotal.Add(sk.nblocks)
	} else {
		cc := *c.shape
		cc.Size = cacheSize
		if err := cc.Validate(); err != nil {
			return nil, err
		}
		if c.analyses.Add(1) > 1 {
			mCCtxReuses.Inc()
		}
		// Layout-stable fast path: no object moved and the capacities are
		// unchanged, so every function's record is verbatim valid.
		var reran, reused uint64
		if c.lay == nil || cacheSize != c.laySize || spmSize != c.laySpm || !slices.Equal(c.lay, lay) {
			if reran, reused, err = c.mustPass(cc, lay, spmSize); err != nil {
				return nil, err
			}
			c.lay, c.laySize, c.laySpm = lay, cacheSize, spmSize
		}
		c.funcsReanalyzed.Add(reran)
		c.mustReused.Add(reused)
		mCCtxFuncsReanalyzed.Add(reran)
		mCCtxMustReused.Add(reused)
		mCCtxFuncsTotal.Add(nf)
	}
	c.funcsTotal.Add(nf)

	// Path analysis, callees-first so each signature sees fresh callee
	// bounds.
	res = &Result{PerFunction: make(map[string]uint64, len(sk.order))}
	var solved uint64
	for i, name := range sk.order {
		ef := &c.funcs[i]
		if ef.rec != nil {
			res.FetchAlwaysHit += ef.rec.counts.fetchHit
			res.FetchUnclassified += ef.rec.counts.fetchMiss
			res.DataAlwaysHit += ef.rec.counts.dataHit
			res.DataUnclassified += ef.rec.counts.dataMiss
		}
		ran, err := c.solveOrAdopt(i)
		if err != nil {
			return nil, err
		}
		if ran {
			solved++
		}
		res.PerFunction[name] = ef.sol.WCET
	}
	if c.shape == nil {
		mCtxFuncsSolved.Add(solved)
		mCtxFuncsTotal.Add(nf)
	}
	res.WCET = c.funcs[sk.root].sol.WCET
	if witness {
		res.Witness = c.witness()
	}
	return res, nil
}

// solveOrAdopt brings a function's solution up to date with its block
// costs and callee bounds — the solve-input signature. An unchanged
// signature keeps the current solution and a recorded one is adopted;
// otherwise the IPET program is re-solved, warm-started from the prepared
// tableau and — when a previous solution exists — seeded with its value
// under the new objective (the old worst-case path stays feasible, so its
// re-priced cost is achievable and prunes strictly-worse subtrees without
// affecting the result). Reports whether a solve ran.
func (c *Engine) solveOrAdopt(fi int) (bool, error) {
	sf, cf := &c.sk.funcs[fi], &c.funcs[fi]
	sig := c.keyBuf[:0]
	for _, v := range cf.cost {
		sig = binary.AppendUvarint(sig, uint64(v))
	}
	for _, callee := range sf.callees {
		sig = binary.AppendUvarint(sig, c.funcs[callee].sol.WCET)
	}
	c.keyBuf = sig
	if cf.sol != nil && string(sig) == cf.sig {
		return false, nil
	}
	if sol := cf.sols[string(sig)]; sol != nil {
		cf.sol, cf.sig = sol, string(sig)
		c.stateHits.Add(1)
		mSolverHits.Inc()
		return false, nil
	}

	objv := append([]float64(nil), sf.ip.template...)
	for j := range sf.blocks {
		w := cf.cost[j]
		if callee := sf.blocks[j].callee; callee >= 0 {
			w += int64(c.funcs[callee].sol.WCET)
		}
		objv[j] = float64(w)
	}
	opt := ilp.Options{Root: sf.prep}
	if cf.sol != nil {
		seed := 0.0
		for j := range sf.blocks {
			seed += objv[j] * float64(cf.sol.Blocks[j])
		}
		for i, ev := range sf.ip.edges {
			seed += objv[ev.idx] * float64(cf.sol.Edges[i])
		}
		opt.Incumbent, opt.HasIncumbent = seed, true
	}
	sol, err := sf.ip.solve(objv, opt)
	if err != nil {
		return false, err
	}
	cf.sol, cf.sig = sol, string(sig)
	putCapped(cf.sols, cf.sig, sol)
	c.funcsSolved.Add(1)
	mSolverMisses.Inc()
	return true, nil
}

// witness composes the current per-function solutions and the
// decomposition's access attribution into the whole-program witness,
// mirroring buildWitness.
func (c *Engine) witness() *Witness {
	sk := c.sk
	sols := make(map[string]*FuncSolution, len(sk.order))
	for i, name := range sk.order {
		sols[name] = c.funcs[i].sol
	}
	w := composeWitness(sk.g, sk.order, sk.order[sk.root], sols)
	for i, name := range sk.order {
		counts := w.BlockCounts[name]
		for j := range sk.funcs[i].blocks {
			cb := &sk.funcs[i].blocks[j]
			n := counts[j]
			if n == 0 {
				continue
			}
			for k := range cb.refs {
				r := &cb.refs[k]
				w.accesses(sk.objName[r.obj]).AddScaled(&r.acc, n)
			}
		}
	}
	return w
}

// HasCache reports whether the engine analyses a cache (built with a
// non-nil Options.Cache).
func (c *Engine) HasCache() bool { return c.shape != nil }

// Stats returns the engine's cumulative work counters without blocking on
// an in-flight analysis.
func (c *Engine) Stats() Stats {
	return Stats{
		Analyses:        c.analyses.Load(),
		BlocksRepriced:  c.blocksRepriced.Load(),
		BlocksTotal:     c.blocksTotal.Load(),
		FuncsReanalyzed: c.funcsReanalyzed.Load(),
		MustReused:      c.mustReused.Load(),
		FuncsTotal:      c.funcsTotal.Load(),
		FuncsSolved:     c.funcsSolved.Load(),
		StateHits:       c.stateHits.Load(),
	}
}
