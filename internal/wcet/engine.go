package wcet

import (
	"context"
	"encoding/binary"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/arm"
	"repro/internal/cache"
	"repro/internal/cfg"
	"repro/internal/ilp"
	"repro/internal/link"
	"repro/internal/lp"
	"repro/internal/mem"
	"repro/internal/obj"
	"repro/internal/obs"
)

// Incremental-engine metrics. Cache-less and cache engines count into
// separate series so the two workloads stay distinguishable; the solver
// state counters cover both.
var (
	mCtxBuilds = obs.Default.Counter("wcetlab_context_builds_total",
		"Analysis contexts built from scratch (CFG + IPET skeleton + cost decomposition).")
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
		"Cache analysis contexts built from scratch (CFG + IPET skeletons + symbolic access streams).")
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

// symAccKind distinguishes how a data access's address resolves against a
// layout.
type symAccKind uint8

const (
	symStack symAccKind = iota // stack range [stackLo, StackTop)
	symLit                     // literal-pool load: PC-relative within the owner
	symExact                   // hinted scalar: the target object's address
	symRange                   // hinted range: the target object's extent
)

// symAcc is one data access of an instruction in layout-independent form:
// the access's identity is an (object, offset) pair rather than an absolute
// address, so resolving it against any layout reproduces instrAccesses
// byte-for-byte without re-deriving the classification.
type symAcc struct {
	kind  symAccKind
	tgt   int32 // symExact/symRange: target placement index
	imm   int32 // symLit: PC-relative literal offset
	width uint8
	write bool
}

// symInstr is one instruction of a block in layout-independent form.
type symInstr struct {
	off  uint32 // fetch offset within the owning object
	size uint32 // 2 or 4
	accs []symAcc
}

// accRef is the accesses one block execution makes to one object: the
// owner's fetches and literal-pool reads, or the data accesses to a hinted
// target. They price the cache-less cost and attribute the witness.
type accRef struct {
	obj int32
	acc mem.Accesses
}

// engineBlock is one basic block's layout-independent decomposition:
//
//	cost(b) = constCycles + stack accesses + Σ refs
//
// where, without a cache, every reference is priced by the memory side its
// object sits on, and with one the symbolic stream is replayed through the
// MUST transfer and cost walk. All terms are integers, so recomputing from
// the decomposition is bit-identical to the cost model's instruction walk.
type engineBlock struct {
	b        *cfg.Block
	fn       *engineFunc
	ownerIdx int32
	// constCycles is the placement- and state-independent part: internal
	// cycles and unconditional-transfer penalties.
	constCycles int64
	stack       mem.Accesses // in main memory: the stack is never allocated
	// refs holds one vector per object the block touches, the owner's
	// first.
	refs   []accRef
	instrs []symInstr // cache engines only
}

// price is the block's cache-less cost under a layout.
func (cb *engineBlock) price(lay []link.ObjLayout) int64 {
	total := cb.constCycles + int64(cb.stack.Cycles(false))
	for i := range cb.refs {
		r := &cb.refs[i]
		total += int64(r.acc.Cycles(lay[r.obj].InSPM))
	}
	return total
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
	size       uint32                // cache capacity: the states' geometry
	entry      *mustState            // nil: not reached
	calleeExit []*mustState          // per cf.callees entry, as read
	exit       *mustState            // nil: no return block reached
	calleeIn   map[string]*mustState // per callee: join over reached call blocks
	cost       []int64               // per block, by cfg Index
	counts     classCounts
}

// engineFunc is one function's reusable analysis machinery.
type engineFunc struct {
	f      *cfg.Function
	ip     *ipetProgram
	prep   *lp.Prepared   // phase-1-solved constraint skeleton
	blocks []*engineBlock // by cfg block Index
	// footprint lists the placement indices whose layout the function's
	// walks read (block owners and hinted access targets), sorted;
	// callees/callers its sorted distinct call-graph neighbours.
	footprint []int32
	callees   []string
	callers   []string
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

// Engine is the incremental WCET analyser: everything about analysing one
// program that does not depend on the placement (or the cache capacity) —
// CFG, topological order, per-function IPET skeletons (phase-1 solved) and
// one layout-independent symbolic decomposition per block — built once
// from the program's base executable and re-used per analysis. Results are
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
// the prepared tableau and the previous solution. The solver is
// deterministic and exact, so adoption is bit-identical to a fresh solve.
//
// All methods are safe for concurrent use; analyses on one engine
// serialise.
type Engine struct {
	mu      sync.Mutex
	base    *link.Executable // capacity-0 link: CFG source and object order
	g       *cfg.Graph
	order   []string // callees-first
	root    string
	stackLo uint32
	shape   *cache.Config // nil: cache-less; else Size zeroed, set per Analyze

	objIdx  map[string]int32
	objName []string
	objSize []uint32
	funcs   map[string]*engineFunc
	nblocks uint64

	// lay is the layout the current block costs reflect: all of main
	// memory at construction without a cache, nil until the first analysis
	// with one. laySize/laySpm are its capacities (cache engines), for the
	// layout-stable fast path.
	lay             []link.ObjLayout
	laySize, laySpm uint32
	// deps maps an object (cache-less engines) to the blocks whose price
	// depends on its side.
	deps [][]*engineBlock

	pool   *statePool // scratch states of the latest analysis's cache size
	keyBuf []byte

	// Counters are atomics so Stats never blocks on an in-flight analysis.
	analyses, blocksRepriced, blocksTotal, funcsReanalyzed, mustReused atomic.Uint64
	funcsTotal, funcsSolved, stateHits                                 atomic.Uint64
}

// NewEngine builds the incremental analysis engine from the program's
// scratchpad-less base executable, link.Link(prog, 0, nil).
// opts.Cache, when set, supplies the cache shape — its Size is ignored and
// chosen per Analyze, so one engine serves a whole capacity sweep.
// opts.Witness is ignored: witnesses are requested per Analyze.
func NewEngine(base *link.Executable, opts Options) (*Engine, error) {
	if base.SPMSize != 0 {
		return nil, fmt.Errorf("wcet: engine base linked with a %d-byte scratchpad, want none", base.SPMSize)
	}
	root := opts.Root
	if root == "" {
		root = base.Prog.Entry
	}
	if root == "" {
		return nil, fmt.Errorf("wcet: no analysis root")
	}
	g, err := cfg.Build(base, root)
	if err != nil {
		return nil, err
	}
	order, err := g.TopoOrder()
	if err != nil {
		return nil, err
	}
	stackLo := link.StackBase
	if opts.StackBound > 0 && opts.StackBound < link.StackSize {
		stackLo = link.StackTop - opts.StackBound
	}

	c := &Engine{
		base: base, g: g, order: order, root: root, stackLo: stackLo,
		objIdx:  make(map[string]int32, len(base.Placements)),
		objName: make([]string, len(base.Placements)),
		objSize: make([]uint32, len(base.Placements)),
		funcs:   make(map[string]*engineFunc, len(order)),
	}
	if opts.Cache != nil {
		shape := opts.Cache.WithDefaults()
		shape.Size = 0
		c.shape = &shape
	} else {
		c.lay = make([]link.ObjLayout, len(base.Placements))
		c.deps = make([][]*engineBlock, len(base.Placements))
	}
	for i, pl := range base.Placements {
		c.objIdx[pl.Obj.Name] = int32(i)
		c.objName[i] = pl.Obj.Name
		c.objSize[i] = pl.Obj.Size()
	}
	for _, name := range order {
		f := g.Funcs[name]
		ip, err := newIPETProgram(f)
		if err != nil {
			return nil, err
		}
		cf := &engineFunc{
			f: f, ip: ip,
			prep:   lp.Prepare(&lp.Problem{NumVars: ip.n, Cons: ip.cons}),
			blocks: make([]*engineBlock, len(f.Blocks)),
			cost:   make([]int64, len(f.Blocks)),
			sols:   make(map[string]*FuncSolution),
		}
		foot := make(map[int32]bool)
		for _, b := range f.Blocks {
			cb, err := c.decompose(f, b, foot)
			if err != nil {
				return nil, err
			}
			cb.fn = cf
			cf.blocks[b.Index] = cb
			c.nblocks++
			if c.shape == nil {
				cf.cost[b.Index] = cb.price(c.lay)
				c.addDeps(cb)
			}
		}
		cf.footprint = make([]int32, 0, len(foot))
		for oi := range foot {
			cf.footprint = append(cf.footprint, oi)
		}
		slices.Sort(cf.footprint)
		calleeSet := make(map[string]bool)
		for _, cs := range f.Calls {
			calleeSet[cs.Callee] = true
		}
		cf.callees = sortedNames(calleeSet)
		c.funcs[name] = cf
	}
	callerSets := make(map[string]map[string]bool, len(order))
	for _, name := range order {
		for _, callee := range c.funcs[name].callees {
			if callerSets[callee] == nil {
				callerSets[callee] = make(map[string]bool)
			}
			callerSets[callee][name] = true
		}
	}
	for _, name := range order {
		c.funcs[name].callers = sortedNames(callerSets[name])
	}
	if c.shape == nil {
		mCtxBuilds.Inc()
	} else {
		mCCtxBuilds.Inc()
	}
	return c, nil
}

// decompose walks one block's instructions once against the base layout,
// splitting its cost into the layout-independent constant, the stack
// accesses and one access vector per object (plus, for a cache engine,
// the symbolic stream) — mirroring costModel.blockCost,
// instrAccesses and Witness.addAccesses. It adds the objects the block
// reads to foot. Access-metadata violations surface here, once, instead of
// per analysis.
func (c *Engine) decompose(f *cfg.Function, b *cfg.Block, foot map[int32]bool) (*engineBlock, error) {
	ownerIdx, ok := c.objIdx[b.Obj]
	if !ok {
		return nil, fmt.Errorf("wcet: %s: block object %q not placed", f.Name, b.Obj)
	}
	cb := &engineBlock{b: b, ownerIdx: ownerIdx, refs: []accRef{{obj: ownerIdx}}}
	foot[ownerIdx] = true
	ownerBase := c.base.Placements[ownerIdx].Addr
	refIdx := map[int32]int{ownerIdx: 0} // an object's index in cb.refs
	for _, ci := range b.Instrs {
		cb.refs[0].acc.Fetches += uint64(ci.Size / 2)
		switch {
		case ci.In.IsLoad():
			cb.constCycles += arm.CyclesLoadInternal
		case ci.In.Op == arm.OpMul:
			cb.constCycles += arm.CyclesMul
		case ci.In.Op == arm.OpSwi:
			cb.constCycles += arm.CyclesSwi
		}
		switch {
		case ci.In.Op == arm.OpB, ci.In.Op == arm.OpBlLo, ci.CallTarget != "", ci.CrossTarget != "":
			cb.constCycles += arm.CyclesBranchTaken
		case ci.In.IsReturn():
			cb.constCycles += arm.CyclesBranchTaken
		}
		accs, err := c.symAccesses(ci)
		if err != nil {
			return nil, fmt.Errorf("wcet: %s: %w", f.Name, err)
		}
		for _, a := range accs {
			oi := a.tgt
			switch a.kind {
			case symStack:
				cb.stack.Add(a.width, 1)
				continue
			case symLit:
				// The literal pool travels with the owning object.
				oi = ownerIdx
			}
			foot[oi] = true
			i, seen := refIdx[oi]
			if !seen {
				i = len(cb.refs)
				refIdx[oi] = i
				cb.refs = append(cb.refs, accRef{obj: oi})
			}
			cb.refs[i].acc.Add(a.width, 1)
		}
		if c.shape != nil {
			cb.instrs = append(cb.instrs, symInstr{off: ci.Addr - ownerBase, size: ci.Size, accs: accs})
		}
	}
	return cb, nil
}

// addDeps registers a cache-less engine's block in the object → blocks
// dependence index, under every object its price reads.
func (c *Engine) addDeps(cb *engineBlock) {
	for _, r := range cb.refs {
		c.deps[r.obj] = append(c.deps[r.obj], cb)
	}
}

// symAccesses is instrAccesses in symbolic form: the same case analysis,
// but classifying each access as (kind, object) rather than materialising
// addresses, which resolve() re-derives per layout.
func (c *Engine) symAccesses(ci cfg.Instr) ([]symAcc, error) {
	in := ci.In
	if !in.IsLoad() && !in.IsStore() {
		return nil, nil
	}
	stackAccesses := func(n int, write bool) []symAcc {
		out := make([]symAcc, n)
		for i := range out {
			out[i] = symAcc{kind: symStack, width: 4, write: write}
		}
		return out
	}
	switch in.Op {
	case arm.OpLdrPC:
		return []symAcc{{kind: symLit, imm: in.Imm, width: 4}}, nil
	case arm.OpPush:
		return stackAccesses(in.RegCount(), true), nil
	case arm.OpPop:
		return stackAccesses(in.RegCount(), false), nil
	case arm.OpStmia:
		return stackAccesses(in.RegCount(), true), nil
	case arm.OpLdmia:
		return stackAccesses(in.RegCount(), false), nil
	case arm.OpLdrSP:
		return stackAccesses(1, false), nil
	case arm.OpStrSP:
		return stackAccesses(1, true), nil
	}
	if ci.Hint != "" {
		pl := c.base.Placement(ci.Hint)
		if pl == nil {
			return nil, fmt.Errorf("wcet: %#x: access hint %q not placed", ci.Addr, ci.Hint)
		}
		a := symAcc{tgt: c.objIdx[ci.Hint], width: in.AccessWidth(), write: in.IsStore()}
		if pl.Obj.Kind == obj.Data && pl.Obj.Size() == uint32(pl.Obj.ElemWidth) {
			a.kind = symExact
		} else {
			a.kind = symRange
		}
		return []symAcc{a}, nil
	}
	// Frame-pointer relative (the code generator reserves r7 as FP).
	if in.Rs == 7 {
		switch in.Op {
		case arm.OpLdrImm, arm.OpLdrReg:
			return stackAccesses(1, false), nil
		case arm.OpStrImm, arm.OpStrReg:
			return stackAccesses(1, true), nil
		}
	}
	return nil, fmt.Errorf("wcet: %#x: %s has no address information (missing access hint)",
		ci.Addr, in.Disasm(ci.Addr))
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
		for _, cb := range c.deps[oi] {
			cb.fn.cost[cb.b.Index] = cb.price(lay)
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
	lay, err := link.Layout(c.base.Prog, spmSize, inSPM)
	if err != nil {
		return nil, err
	}
	nf := uint64(len(c.order))
	if c.shape == nil {
		if cacheSize != 0 {
			return nil, fmt.Errorf("wcet: cache size %d given to a cache-less engine", cacheSize)
		}
		if c.analyses.Add(1) > 1 {
			mCtxReuses.Inc()
		}
		n := c.reprice(lay)
		c.blocksRepriced.Add(n)
		c.blocksTotal.Add(c.nblocks)
		mCtxBlocksRepriced.Add(n)
		mCtxBlocksTotal.Add(c.nblocks)
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
	res = &Result{PerFunction: make(map[string]uint64, len(c.order))}
	var solved uint64
	for _, name := range c.order {
		cf := c.funcs[name]
		if cf.rec != nil {
			res.FetchAlwaysHit += cf.rec.counts.fetchHit
			res.FetchUnclassified += cf.rec.counts.fetchMiss
			res.DataAlwaysHit += cf.rec.counts.dataHit
			res.DataUnclassified += cf.rec.counts.dataMiss
		}
		ran, err := c.solveOrAdopt(cf)
		if err != nil {
			return nil, err
		}
		if ran {
			solved++
		}
		res.PerFunction[name] = cf.sol.WCET
	}
	if c.shape == nil {
		mCtxFuncsSolved.Add(solved)
		mCtxFuncsTotal.Add(nf)
	}
	res.WCET = res.PerFunction[c.root]
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
func (c *Engine) solveOrAdopt(cf *engineFunc) (bool, error) {
	sig := c.keyBuf[:0]
	for _, v := range cf.cost {
		sig = binary.AppendUvarint(sig, uint64(v))
	}
	for _, callee := range cf.callees {
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

	w := slices.Clone(cf.cost)
	for _, cs := range cf.f.Calls {
		w[cs.Block.Index] += int64(c.funcs[cs.Callee].sol.WCET)
	}
	objv := append([]float64(nil), cf.ip.template...)
	for _, b := range cf.f.Blocks {
		objv[b.Index] = float64(w[b.Index])
	}
	opt := ilp.Options{Root: cf.prep}
	if cf.sol != nil {
		seed := 0.0
		for _, b := range cf.f.Blocks {
			seed += objv[b.Index] * float64(cf.sol.Blocks[b.Index])
		}
		for i, ev := range cf.ip.edges {
			seed += objv[ev.idx] * float64(cf.sol.Edges[i])
		}
		opt.Incumbent, opt.HasIncumbent = seed, true
	}
	sol, err := cf.ip.solve(objv, opt)
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
	sols := make(map[string]*FuncSolution, len(c.order))
	for _, name := range c.order {
		sols[name] = c.funcs[name].sol
	}
	w := composeWitness(c.g, c.order, c.root, sols)
	for _, name := range c.order {
		counts := w.BlockCounts[name]
		for _, cb := range c.funcs[name].blocks {
			n := counts[cb.b.Index]
			if n == 0 {
				continue
			}
			for i := range cb.refs {
				r := &cb.refs[i]
				w.accesses(c.objName[r.obj]).AddScaled(&r.acc, n)
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

// sortedNames returns the set's keys in sorted order.
func sortedNames(set map[string]bool) []string {
	names := make([]string, 0, len(set))
	for n := range set {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
