package wcet

import (
	"fmt"
	"slices"
	"sort"
	"sync/atomic"

	"repro/internal/arm"
	"repro/internal/cfg"
	"repro/internal/link"
	"repro/internal/lp"
	"repro/internal/mem"
	"repro/internal/obj"
	"repro/internal/obs"
)

var (
	mSkelBuilds = obs.Default.Counter("wcetlab_wcet_skeleton_builds_total",
		"Analysis skeletons built (CFG + IPET skeletons + phase-1 tableaux + block decomposition).")
	mSkelReuses = obs.Default.Counter("wcetlab_wcet_skeleton_reuses_total",
		"Analysis engines built on a skeleton that already served another engine.")
)

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
	fn       int32 // the owning function's skeleton index
	ownerIdx int32
	// callee is the skeleton index of the function a block-ending call
	// enters, -1 for a block that ends without one.
	callee int32
	// constCycles is the placement- and state-independent part: internal
	// cycles and unconditional-transfer penalties.
	constCycles int64
	stack       mem.Accesses // in main memory: the stack is never allocated
	// refs holds one vector per object the block touches, the owner's
	// first.
	refs   []accRef
	instrs []symInstr
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

// skelFunc is one function's layout- and mode-independent analysis
// machinery.
type skelFunc struct {
	f      *cfg.Function
	ip     *ipetProgram
	prep   *lp.Prepared  // phase-1-solved constraint skeleton
	blocks []engineBlock // by cfg block Index
	// callees/callers are the function's distinct call-graph neighbours as
	// skeleton indices, in name order.
	callees, callers []int32
}

// Skeleton is the part of analysing one program that depends on neither
// the placement nor the analysis mode: the CFG from the entry, its
// callees-first order, the object index, and per function the IPET program
// with its phase-1-solved tableau and one layout-independent decomposition
// per block (cost terms and symbolic access stream), plus the object →
// blocks dependence index. It is built once from a partition's
// scratchpad-less base executable and never changes afterwards, so the
// cache-less Engine and one Engine per cache shape share it, concurrently
// too: this is the path analysis the paper's scratchpad bound needs and
// every cache bound builds on.
type Skeleton struct {
	base  *link.Executable // capacity-0 link: CFG source and object order
	g     *cfg.Graph
	order []string // callees-first; a function's skeleton index is its position
	root  int32

	objIdx  map[string]int32
	objName []string
	objSize []uint32
	funcs   []skelFunc
	nblocks uint64
	// deps maps an object to the blocks whose cache-less price depends on
	// its side.
	deps [][]*engineBlock

	engines atomic.Uint64 // engines built on the skeleton
}

// NewSkeleton builds the analysis skeleton of the program's
// scratchpad-less base executable, link.Link(prog, 0, nil), rooted at the
// program entry.
func NewSkeleton(base *link.Executable) (*Skeleton, error) {
	if base.SPMSize != 0 {
		return nil, fmt.Errorf("wcet: skeleton base linked with a %d-byte scratchpad, want none", base.SPMSize)
	}
	g, err := cfg.Build(base)
	if err != nil {
		return nil, err
	}
	order, err := g.TopoOrder()
	if err != nil {
		return nil, err
	}
	sk := &Skeleton{
		base: base, g: g, order: order,
		objIdx:  make(map[string]int32, len(base.Placements)),
		objName: make([]string, len(base.Placements)),
		objSize: make([]uint32, len(base.Placements)),
		funcs:   make([]skelFunc, len(order)),
		deps:    make([][]*engineBlock, len(base.Placements)),
	}
	for i, pl := range base.Placements {
		sk.objIdx[pl.Obj.Name] = int32(i)
		sk.objName[i] = pl.Obj.Name
		sk.objSize[i] = pl.Obj.Size()
	}
	funcIdx := make(map[string]int32, len(order))
	for i, name := range order {
		funcIdx[name] = int32(i)
	}
	sk.root = funcIdx[base.Prog.Entry]
	callers := make([]map[string]bool, len(order))
	for i, name := range order {
		f := g.Funcs[name]
		ip, err := newIPETProgram(f)
		if err != nil {
			return nil, err
		}
		sf := &sk.funcs[i]
		sf.f, sf.ip = f, ip
		sf.prep = lp.Prepare(&lp.Problem{NumVars: ip.n, Cons: ip.cons})
		sf.blocks = make([]engineBlock, len(f.Blocks))
		for _, b := range f.Blocks {
			cb := &sf.blocks[b.Index]
			if err := sk.decompose(cb, f, b, funcIdx); err != nil {
				return nil, err
			}
			for _, r := range cb.refs {
				sk.deps[r.obj] = append(sk.deps[r.obj], cb)
			}
		}
		sk.nblocks += uint64(len(f.Blocks))
		calleeSet := make(map[string]bool)
		for _, cs := range f.Calls {
			calleeSet[cs.Callee] = true
			ci := funcIdx[cs.Callee]
			if callers[ci] == nil {
				callers[ci] = make(map[string]bool)
			}
			callers[ci][name] = true
		}
		sf.callees = sortedIndices(calleeSet, funcIdx)
	}
	for i := range sk.funcs {
		sk.funcs[i].callers = sortedIndices(callers[i], funcIdx)
	}
	mSkelBuilds.Inc()
	return sk, nil
}

// decompose walks one block's instructions once against the base layout,
// splitting its cost into the layout-independent constant, the stack
// accesses, one access vector per object and the symbolic stream —
// mirroring costModel.blockCost, instrAccesses and Witness.addAccesses.
// Access-metadata violations surface here, once, instead of per analysis.
func (sk *Skeleton) decompose(cb *engineBlock, f *cfg.Function, b *cfg.Block, funcIdx map[string]int32) error {
	ownerIdx, ok := sk.objIdx[b.Obj]
	if !ok {
		return fmt.Errorf("wcet: %s: block object %q not placed", f.Name, b.Obj)
	}
	*cb = engineBlock{b: b, fn: funcIdx[f.Name], ownerIdx: ownerIdx, callee: -1,
		refs: []accRef{{obj: ownerIdx}}, instrs: make([]symInstr, 0, len(b.Instrs))}
	if callee := b.Instrs[len(b.Instrs)-1].CallTarget; callee != "" {
		cb.callee = funcIdx[callee]
	}
	ownerBase := sk.base.Placements[ownerIdx].Addr
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
		accs, err := sk.symAccesses(ci)
		if err != nil {
			return fmt.Errorf("wcet: %s: %w", f.Name, err)
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
			i := slices.IndexFunc(cb.refs, func(r accRef) bool { return r.obj == oi })
			if i < 0 {
				i = len(cb.refs)
				cb.refs = append(cb.refs, accRef{obj: oi})
			}
			cb.refs[i].acc.Add(a.width, 1)
		}
		cb.instrs = append(cb.instrs, symInstr{off: ci.Addr - ownerBase, size: ci.Size, accs: accs})
	}
	return nil
}

// symAccesses is instrAccesses in symbolic form: the same case analysis,
// but classifying each access as (kind, object) rather than materialising
// addresses, which resolve() re-derives per layout.
func (sk *Skeleton) symAccesses(ci cfg.Instr) ([]symAcc, error) {
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
		pl := sk.base.Placement(ci.Hint)
		if pl == nil {
			return nil, fmt.Errorf("wcet: %#x: access hint %q not placed", ci.Addr, ci.Hint)
		}
		a := symAcc{tgt: sk.objIdx[ci.Hint], width: in.AccessWidth(), write: in.IsStore()}
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

// Engines reports how many engines have been built on the skeleton.
func (sk *Skeleton) Engines() uint64 { return sk.engines.Load() }

// sortedIndices returns the skeleton indices of the set's function names,
// in name order.
func sortedIndices(set map[string]bool, funcIdx map[string]int32) []int32 {
	names := make([]string, 0, len(set))
	for n := range set {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]int32, len(names))
	for i, n := range names {
		out[i] = funcIdx[n]
	}
	return out
}
