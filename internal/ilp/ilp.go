// Package ilp solves (mixed) integer linear programs by branch & bound over
// the LP relaxation from internal/lp. It stands in for the commercial ILP
// solver (CPLEX) the paper uses for the scratchpad knapsack, and solves the
// IPET programs of the WCET analyser, whose flow-conservation relaxations
// are almost always integral already.
//
// The search solves its root cold and re-optimises every child from its
// parent's tableau by dual simplex (lp.Workspace.Branch). It returns what
// solving every node cold would, to the bit: a child whose optimum may be
// tied, and an integral child about to become the incumbent, are
// re-solved cold. TestSearchMatchesCloneReference holds it to a
// cold clone-per-node search over every program of the three benchmarks'
// Pareto sweeps.
package ilp

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"

	"repro/internal/lp"
	"repro/internal/obs"
)

// Process-wide solver metrics: one solve may come from the scratchpad
// knapsack or an IPET program — both count here; nodes measure the branch
// & bound search effort.
var (
	mSolves = obs.Default.Counter("wcetlab_ilp_solves_total",
		"Branch & bound ILP solves (knapsack and IPET programs).")
	mNodes = obs.Default.Counter("wcetlab_ilp_nodes_total",
		"Branch & bound nodes explored across all ILP solves.")
	mSeeded = obs.Default.Counter("wcetlab_ilp_seeded_solves_total",
		"Branch & bound ILP solves whose search started from a seeded incumbent.")
	mColdDegenerate = obs.Default.Counter("wcetlab_ilp_cold_resolves_total", coldHelp,
		"reason", "degenerate")
	mColdIncumbent = obs.Default.Counter("wcetlab_ilp_cold_resolves_total", coldHelp,
		"reason", "incumbent")
)

const coldHelp = "Branch & bound children re-solved cold after a dual re-optimisation (degenerate = the optimum may have ties, incumbent = an integral point about to become the incumbent)."

// ErrInfeasible reports that no integral point satisfies the constraints.
// Callers adding ε-constraints (internal/alloc's budget knapsack) branch on
// it to distinguish "constraint unsatisfiable" from solver failure.
var ErrInfeasible = errors.New("ilp: infeasible")

// Problem is an integer program: an LP plus integrality flags.
type Problem struct {
	LP lp.Problem
	// Integer marks variables that must take integral values. A nil slice
	// means every variable is integral.
	Integer []bool
}

// Solution of an integer program.
type Solution struct {
	Status lp.Status
	X      []float64 // integral for all flagged variables
	Obj    float64
}

const intTol = 1e-6

// MaxNodes bounds the branch & bound search; the structured problems in
// this repository stay far below it.
const MaxNodes = 200000

func (p *Problem) integral(i int) bool {
	return p.Integer == nil || (i < len(p.Integer) && p.Integer[i])
}

// Options tune a branch & bound solve with warm-start information carried
// over from a previous, closely related solve.
type Options struct {
	// Root, when non-nil, is a phase-1-solved tableau of p.LP's constraints
	// (lp.Prepare). The root relaxation then skips phase 1. Branched nodes
	// never need it: they re-optimise from their parent's tableau.
	Root *lp.Prepared
	// Incumbent seeds the bound used to prune the search. It MUST be the
	// objective value of some feasible integral point under the CURRENT
	// objective (e.g. the previous iteration's solution re-priced); an
	// unachievable value can prune the optimum away. Seeding only discards
	// subtrees whose relaxation is strictly below the seed, so the returned
	// solution is identical to an unseeded solve.
	Incumbent    float64
	HasIncumbent bool
}

// solveHook, when set, is shown every program SolveOpts is asked to
// solve. It is a test seam: tests capture the programs real sweeps build.
var solveHook func(*Problem, Options)

// Solve runs depth-first branch & bound (maximisation): the open nodes
// form a stack, and of each branching's two children the one that rounds
// the branch variable up is explored first.
func Solve(p *Problem) (Solution, error) { return SolveOpts(p, Options{}) }

// SolveOpts is Solve with warm-start options.
func SolveOpts(p *Problem, o Options) (Solution, error) {
	if solveHook != nil {
		solveHook(p, o)
	}
	s, st, err := solve(p, o)
	mSolves.Inc()
	if o.HasIncumbent {
		mSeeded.Inc()
	}
	mNodes.Add(uint64(st.Nodes))
	mColdDegenerate.Add(uint64(st.Degenerate))
	mColdIncumbent.Add(uint64(st.Incumbent))
	return s, err
}

// workspaces recycles simplex workspaces between solves. A solve holds
// one for its whole search, so no workspace is used by two goroutines.
var workspaces = sync.Pool{New: func() any { return new(lp.Workspace) }}

// Node outcomes besides a branch variable.
const (
	nodePruned   = -2 // infeasible, or bounded away
	nodeIntegral = -1 // a candidate incumbent
)

// search counts the work of one branch & bound search.
type search struct {
	Nodes      int // nodes explored
	Degenerate int // dual children re-solved cold: a possibly tied optimum, or the dual phase at its cap
	Incumbent  int // dual children re-solved cold before becoming the incumbent
	Infeasible int // dual children proved infeasible by dual simplex
}

// solve is SolveOpts reporting the work of its search.
//
// The root relaxation solves cold (or from o.Root). Every other node is
// its parent's optimum plus one bound row, re-optimised by dual simplex
// from the parent's tableau, which the workspace keeps per depth. Two
// guards make the search return exactly what solving every node cold
// would: a child whose dual optimum may not be unique re-solves cold
// (ties between optima must break as the cold solve breaks them), and so
// does an integral child before it becomes the incumbent, so the returned
// X and Obj are the cold solve's bits.
//
// A cold node's constraints are the root program's followed by the bound
// rows on its path, oldest first: the order that copying the parent's
// program and appending one row would give. Bound rows live in one arena,
// each linked to its predecessor on the path, so branching copies
// nothing; a node's constraint list is assembled in one reused buffer
// when it is solved cold. Bound rows on one variable share one unit
// coefficient vector.
func solve(p *Problem, o Options) (Solution, search, error) {
	incumbent := Solution{Status: lp.Infeasible, Obj: math.Inf(-1)}
	type bound struct {
		row  lp.Constraint
		v    int // the bounded variable
		prev int // the previous bound row on the path, or -1
	}
	type node struct {
		last  int // the node's last bound row, or -1 at the root
		depth int // bound rows on the path
	}
	nv := p.LP.NumVars
	ws := workspaces.Get().(*lp.Workspace)
	defer func() {
		ws.Trim()
		workspaces.Put(ws)
	}()
	var (
		bounds []bound
		cons   []lp.Constraint // the cold-solved node's constraints
		units  [][]float64
	)
	relax := lp.Problem{NumVars: nv, Objective: p.LP.Objective}
	// cold solves a node from scratch.
	cold := func(nd node) lp.Solution {
		if nd.last < 0 && o.Root != nil {
			return ws.SolveObjective(o.Root, p.LP.Objective)
		}
		k := len(p.LP.Cons) + nd.depth
		cons = slices.Grow(cons[:0], k)[:k]
		copy(cons, p.LP.Cons)
		for i := nd.last; i >= 0; i = bounds[i].prev {
			k--
			cons[k] = bounds[i].row
		}
		relax.Cons = cons
		return ws.Solve(&relax)
	}
	// judge returns a node's branch variable, nodePruned or nodeIntegral.
	judge := func(rel lp.Solution) (int, error) {
		switch rel.Status {
		case lp.Infeasible:
			return nodePruned, nil
		case lp.Unbounded:
			return 0, fmt.Errorf("ilp: relaxation unbounded")
		case lp.IterationLimit:
			return 0, fmt.Errorf("ilp: relaxation hit the simplex iteration limit")
		}
		if rel.Obj <= incumbent.Obj+intTol && incumbent.Status == lp.Optimal {
			return nodePruned, nil // bound: cannot beat the incumbent
		}
		if o.HasIncumbent && rel.Obj < o.Incumbent-intTol {
			return nodePruned, nil // bound: strictly below a known-achievable value
		}
		// Find the most fractional integral variable.
		branch := nodeIntegral
		worst := intTol
		for i := 0; i < nv; i++ {
			if !p.integral(i) {
				continue
			}
			f := math.Abs(rel.X[i] - math.Round(rel.X[i]))
			if f > worst {
				worst = f
				branch = i
			}
		}
		return branch, nil
	}
	stack := []node{{last: -1}}
	var st search
	for len(stack) > 0 {
		st.Nodes++
		if st.Nodes > MaxNodes {
			return incumbent, st, fmt.Errorf("ilp: node limit %d exceeded", MaxNodes)
		}
		nd := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		// dual reports that the node's optimum came from Branch and is
		// kept at its depth; a cold one is kept only if the node branches.
		var rel lp.Solution
		dual := nd.last >= 0
		if dual {
			b := bounds[nd.last]
			var unique bool
			rel, unique = ws.Branch(nd.depth, b.v, b.row.Rel, b.row.RHS, p.LP.Objective)
			if !unique {
				st.Degenerate++
				rel, dual = cold(nd), false
			} else if rel.Status == lp.Infeasible {
				st.Infeasible++
			}
		} else {
			rel = cold(nd)
		}
		branch, err := judge(rel)
		if err == nil && branch == nodeIntegral && dual {
			st.Incumbent++
			rel, dual = cold(nd), false
			branch, err = judge(rel)
		}
		if err != nil {
			return Solution{}, st, err
		}
		if branch == nodePruned {
			continue
		}
		if branch == nodeIntegral {
			if rel.Obj > incumbent.Obj {
				x := rel.X
				for i, v := range x {
					if p.integral(i) {
						x[i] = math.Round(v)
					}
				}
				incumbent = Solution{Status: lp.Optimal, X: x, Obj: rel.Obj}
			}
			continue
		}
		if !dual {
			ws.Keep(nd.depth)
		}
		v := rel.X[branch]
		lo, hi := math.Floor(v), math.Ceil(v)
		if units == nil {
			units = make([][]float64, nv)
		}
		if units[branch] == nil {
			units[branch] = make([]float64, branch+1)
			units[branch][branch] = 1
		}
		bounds = append(bounds,
			bound{row: lp.Constraint{Coef: units[branch], Rel: lp.LE, RHS: lo}, v: branch, prev: nd.last},
			bound{row: lp.Constraint{Coef: units[branch], Rel: lp.GE, RHS: hi}, v: branch, prev: nd.last})
		le, ge := len(bounds)-2, len(bounds)-1
		stack = append(stack, node{last: le, depth: nd.depth + 1}, node{last: ge, depth: nd.depth + 1})
	}
	if incumbent.Status != lp.Optimal {
		return incumbent, st, ErrInfeasible
	}
	return incumbent, st, nil
}
