package wcet

import (
	"fmt"
	"math"

	"repro/internal/arm"
	"repro/internal/cfg"
	"repro/internal/ilp"
	"repro/internal/lp"
)

// FuncSolution is one function's IPET solution, the witness the ILP
// certifies: the bound plus the per-invocation execution counts of every
// block (by cfg Index) and edge on a worst-case path. Edges is in the
// function's deterministic IPET edge order (f.Blocks × b.Succs), so the
// solution round-trips through the artifact store without naming edges.
type FuncSolution struct {
	WCET   uint64
	Blocks []uint64
	Edges  []uint64
}

// ipetEdge is one CFG edge with its IPET variable index (block variables
// occupy indices 0..nb-1, edge variables follow).
type ipetEdge struct {
	e   *cfg.Edge
	idx int
}

// ipetProgram is the placement-independent part of a function's IPET
// program: variable layout, flow-conservation and loop-bound constraints,
// and the edge-penalty objective template. Only the block cost coefficients
// of the objective depend on placement, so a built program can be re-solved
// under any placement without reconstructing the constraint matrix — the
// substrate of the incremental Engine.
type ipetProgram struct {
	f     *cfg.Function
	nb, n int // block variables, total variables
	edges []ipetEdge
	cons  []lp.Constraint
	// template is the objective with every block coefficient zero and the
	// conditional-branch taken penalties on the edge variables.
	template []float64
}

// newIPETProgram builds the constraint skeleton of f's IPET program:
//
//	x(entry source) = 1
//	x(b) = Σ in-edges(b) (+1 for the entry block)
//	x(b) = Σ out-edges(b)            for blocks with successors
//	Σ back-edges(L) ≤ bound(L) · Σ entry-edges(L)
func newIPETProgram(f *cfg.Function) (*ipetProgram, error) {
	nb := len(f.Blocks)
	ip := &ipetProgram{f: f, nb: nb}
	edgeIdx := map[*cfg.Edge]int{}
	for _, b := range f.Blocks {
		for _, e := range b.Succs {
			idx := nb + len(ip.edges)
			edgeIdx[e] = idx
			ip.edges = append(ip.edges, ipetEdge{e: e, idx: idx})
		}
	}
	n := nb + len(ip.edges)
	ip.n = n

	ip.template = make([]float64, n)
	for _, ev := range ip.edges {
		// Conditional-branch taken penalty.
		from := ev.e.From
		last := from.Instrs[len(from.Instrs)-1]
		if ev.e.Taken && last.In.Op == arm.OpBCond {
			ip.template[ev.idx] = float64(arm.CyclesBranchTaken)
		}
	}

	// Flow conservation.
	for _, b := range f.Blocks {
		inRow := make([]float64, n)
		inRow[b.Index] = 1
		for _, e := range b.Preds {
			inRow[edgeIdx[e]] -= 1
		}
		rhs := 0.0
		if b == f.Entry {
			rhs = 1
		}
		ip.cons = append(ip.cons, lp.Constraint{Coef: inRow, Rel: lp.EQ, RHS: rhs})

		if len(b.Succs) > 0 {
			outRow := make([]float64, n)
			outRow[b.Index] = 1
			for _, e := range b.Succs {
				outRow[edgeIdx[e]] -= 1
			}
			ip.cons = append(ip.cons, lp.Constraint{Coef: outRow, Rel: lp.EQ, RHS: 0})
		}
	}

	// Loop bounds.
	for _, l := range f.Loops {
		if l.Bound < 0 {
			return nil, fmt.Errorf("wcet: %s: loop at %#x has no bound (annotate with __loopbound)", f.Name, l.Head.Start)
		}
		row := make([]float64, n)
		for _, e := range l.BackEdges {
			row[edgeIdx[e]] = 1
		}
		for _, e := range l.EntryEdges() {
			row[edgeIdx[e]] -= float64(l.Bound)
		}
		ip.cons = append(ip.cons, lp.Constraint{Coef: row, Rel: lp.LE, RHS: 0})
		if l.BoundTotal > 0 {
			// Global flow fact: total back-edge executions per invocation
			// of this function (the function body executes exactly once in
			// this program).
			trow := make([]float64, n)
			for _, e := range l.BackEdges {
				trow[edgeIdx[e]] = 1
			}
			ip.cons = append(ip.cons, lp.Constraint{Coef: trow, Rel: lp.LE, RHS: float64(l.BoundTotal)})
		}
	}
	return ip, nil
}

// objective instantiates the objective for the given per-block costs:
// the edge-penalty template plus cost(b)+callExtra(b) on each block.
func (ip *ipetProgram) objective(blockCost, callExtra map[*cfg.Block]int64) []float64 {
	obj := append([]float64(nil), ip.template...)
	for _, b := range ip.f.Blocks {
		obj[b.Index] = float64(blockCost[b] + callExtra[b])
	}
	return obj
}

// solve maximises the given objective over the program's flow polytope as
// an ILP (the relaxation of these network-flow programs is integral in
// practice; branch & bound guards the corner cases). The solution vector is
// returned rather than discarded: its x(b) values are the block execution
// counts on the worst-case path, which the WCET-directed scratchpad
// allocator weighs objects by.
func (ip *ipetProgram) solve(objective []float64, opt ilp.Options) (*FuncSolution, error) {
	p := &ilp.Problem{LP: lp.Problem{NumVars: ip.n, Objective: objective, Cons: ip.cons}}
	s, err := ilp.SolveOpts(p, opt)
	if err != nil {
		return nil, fmt.Errorf("wcet: %s: path analysis: %w", ip.f.Name, err)
	}
	if s.Obj < -1e-6 {
		return nil, fmt.Errorf("wcet: %s: negative WCET %f", ip.f.Name, s.Obj)
	}
	sol := &FuncSolution{
		WCET:   uint64(math.Round(s.Obj)),
		Blocks: make([]uint64, ip.nb),
		Edges:  make([]uint64, len(ip.edges)),
	}
	for _, b := range ip.f.Blocks {
		sol.Blocks[b.Index] = uint64(math.Round(s.X[b.Index]))
	}
	for i, ev := range ip.edges {
		sol.Edges[i] = uint64(math.Round(s.X[ev.idx]))
	}
	return sol, nil
}

// ipet computes a function's WCET by implicit path enumeration: maximise
// Σ cost(b)·x(b) + Σ penalty(e)·x(e) over the flow polytope, solved cold.
func ipet(f *cfg.Function, blockCost map[*cfg.Block]int64, callExtra map[*cfg.Block]int64) (*FuncSolution, error) {
	ip, err := newIPETProgram(f)
	if err != nil {
		return nil, err
	}
	return ip.solve(ip.objective(blockCost, callExtra), ilp.Options{})
}
