package alloc

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/ilp"
	"repro/internal/lp"
	"repro/internal/obs"
	"repro/internal/pipeline"
)

// Process-wide solver metrics: which back-end the front-end picked, how
// big the DP tables were, and how often the multi-objective mode had to
// re-solve under an ε-constraint.
var (
	mSolveDP = obs.Default.Counter("wcetlab_alloc_solver_solves_total",
		"Knapsack solves by chosen back-end.", "solver", "dp")
	mSolveILP = obs.Default.Counter("wcetlab_alloc_solver_solves_total",
		"Knapsack solves by chosen back-end.", "solver", "ilp")
	mDPCells = obs.Default.Counter("wcetlab_alloc_dp_cells_total",
		"Dynamic-programming table cells filled (items × capacity+1).")
	mEpsResolves = obs.Default.Counter("wcetlab_alloc_epsilon_resolves_total",
		"ε-constrained knapsack re-solves in the multi-objective mode.")
)

// Allocation is the shared result type of every allocation solve (an alias
// of pipeline.Allocation).
type Allocation = pipeline.Allocation

// Solver selects the knapsack back-end of the engine's solver front-end.
type Solver uint8

const (
	// SolverAuto uses the exact DP solver when its table is small (always
	// at paper scale) and falls back to the branch & bound ILP — the
	// scheme the energy-directed sweeps use ("auto" in their ConfigKey).
	SolverAuto Solver = iota
	// SolverILP always uses the branch & bound ILP, mirroring the paper's
	// CPLEX formulation — the WCET-directed fixpoint's solver.
	SolverILP
	// SolverDP always uses the exact dynamic-programming solver; it exists
	// to cross-check the ILP path in tests.
	SolverDP
)

// dpCellBudget bounds the dynamic-programming table (items × capacity)
// under which SolverAuto uses the exact DP solver instead of branch &
// bound: for the paper's item counts and capacities the DP is exact and
// orders of magnitude cheaper than the ILP, which dominated sweep
// allocation time.
const dpCellBudget = 1 << 22

// SolveItems is the engine's solver front-end: one 0/1 knapsack over the
// items, dispatched to the selected back-end.
func SolveItems(ctx context.Context, items []Item, capacity uint32, s Solver) (*Allocation, error) {
	return SolveItemsSeeded(ctx, items, capacity, s, nil)
}

// SolveItemsSeeded is SolveItems warm-started from a previous accepted
// allocation: when the branch & bound back-end runs, the search is seeded
// with the previous allocation's value under the *current* item benefits
// (a feasible subset, so the value is achievable and only strictly-worse
// subtrees are pruned — the solution is identical to a cold solve). The DP
// back-end fills its whole table regardless and ignores the seed.
func SolveItemsSeeded(ctx context.Context, items []Item, capacity uint32, s Solver, prev map[string]bool) (*Allocation, error) {
	_, sp := obs.Start(ctx, "solve", obs.A("items", len(items)), obs.A("capacity", capacity))
	defer sp.End()
	opt := seedOptions(items, capacity, prev)
	switch s {
	case SolverILP:
		sp.SetAttr("solver", "ilp")
		return knapsackOpts(items, capacity, opt)
	case SolverDP:
		sp.SetAttr("solver", "dp")
		return KnapsackDP(items, capacity)
	default:
		if int64(len(items))*(int64(capacity)+1) <= dpCellBudget {
			sp.SetAttr("solver", "dp")
			return KnapsackDP(items, capacity)
		}
		sp.SetAttr("solver", "ilp")
		return knapsackOpts(items, capacity, opt)
	}
}

// seedOptions derives the warm-start incumbent from a previous allocation:
// the total benefit of the previous residents still on the item list,
// provided that subset respects the capacity under the current item sizes
// (it always does when the previous allocation fitted, but the guard keeps
// an unachievable seed from ever pruning the optimum). The sum runs in
// item-list order, which is sorted by name, so the seed is reproducible.
func seedOptions(items []Item, capacity uint32, prev map[string]bool) ilp.Options {
	if len(prev) == 0 {
		return ilp.Options{}
	}
	var value float64
	var used uint32
	any := false
	for _, it := range items {
		if prev[it.Name] {
			value += it.Benefit
			used += it.Size
			any = true
		}
	}
	if !any || used > capacity {
		return ilp.Options{}
	}
	return ilp.Options{Incumbent: value, HasIncumbent: true}
}

// Knapsack solves the 0/1 knapsack over the items with the branch & bound
// ILP solver, mirroring the paper's CPLEX formulation: maximise
// Σ benefit_i·y_i subject to Σ size_i·y_i ≤ capacity, y_i ∈ {0, 1}.
func Knapsack(items []Item, capacity uint32) (*Allocation, error) {
	return knapsackOpts(items, capacity, ilp.Options{})
}

func knapsackOpts(items []Item, capacity uint32, opt ilp.Options) (*Allocation, error) {
	a := &Allocation{InSPM: map[string]bool{}}
	if len(items) == 0 {
		return a, nil
	}
	mSolveILP.Inc()
	s, err := ilp.SolveOpts(knapsackProblem(items, capacity, nil, 0), opt)
	if err != nil {
		return nil, fmt.Errorf("alloc: knapsack: %w", err)
	}
	fill(a, items, s.X)
	return a, nil
}

// ErrInfeasible reports that no item subset satisfies an ε-constraint.
var ErrInfeasible = errors.New("alloc: no allocation satisfies the constraint")

// KnapsackBudget solves the ε-constrained knapsack of the multi-objective
// mode: maximise Σ benefit_i·y_i subject to Σ size_i·y_i ≤ capacity and
// Σ weight_i·y_i ≥ minWeight, y_i ∈ {0, 1} — maximise the primary
// objective among allocations the secondary model says stay within budget.
// Returns ErrInfeasible when no subset reaches minWeight.
func KnapsackBudget(ctx context.Context, items []Item, capacity uint32, weights []float64, minWeight float64) (*Allocation, error) {
	return KnapsackBudgetSeeded(ctx, items, capacity, weights, minWeight, nil)
}

// KnapsackBudgetSeeded is KnapsackBudget warm-started from a previous
// allocation. The seed is used only when the previous residents still on
// the item list satisfy the ε-constraint under the *current* weights and
// fit the capacity — i.e. when their benefit is genuinely achievable here —
// so the solve result is identical to the unseeded one.
func KnapsackBudgetSeeded(ctx context.Context, items []Item, capacity uint32, weights []float64, minWeight float64, prev map[string]bool) (*Allocation, error) {
	a := &Allocation{InSPM: map[string]bool{}}
	if minWeight <= 0 {
		return SolveItemsSeeded(ctx, items, capacity, SolverAuto, prev)
	}
	if len(items) == 0 {
		return nil, ErrInfeasible
	}
	opt := ilp.Options{}
	if len(prev) > 0 {
		var value, weight float64
		var used uint32
		for i, it := range items {
			if prev[it.Name] {
				value += it.Benefit
				weight += weights[i]
				used += it.Size
			}
		}
		if weight >= minWeight && used <= capacity {
			opt = ilp.Options{Incumbent: value, HasIncumbent: true}
		}
	}
	mEpsResolves.Inc()
	mSolveILP.Inc()
	_, sp := obs.Start(ctx, "solve", obs.A("items", len(items)), obs.A("capacity", capacity), obs.A("solver", "ilp"))
	defer sp.End()
	s, err := ilp.SolveOpts(knapsackProblem(items, capacity, weights, minWeight), opt)
	if err != nil {
		if errors.Is(err, ilp.ErrInfeasible) {
			return nil, ErrInfeasible
		}
		return nil, fmt.Errorf("alloc: budget knapsack: %w", err)
	}
	fill(a, items, s.X)
	return a, nil
}

// knapsackProblem builds the 0/1 program: the capacity constraint, per-item
// upper bounds, and (with weights) the ε-constraint.
func knapsackProblem(items []Item, capacity uint32, weights []float64, minWeight float64) *ilp.Problem {
	n := len(items)
	p := &ilp.Problem{LP: lp.Problem{NumVars: n, Objective: make([]float64, n)}}
	sizes := make([]float64, n)
	for i, it := range items {
		p.LP.Objective[i] = it.Benefit
		sizes[i] = float64(it.Size)
	}
	p.LP.AddConstraint(sizes, lp.LE, float64(capacity))
	if weights != nil {
		p.LP.AddConstraint(append([]float64(nil), weights...), lp.GE, minWeight)
	}
	for i := 0; i < n; i++ {
		u := make([]float64, n)
		u[i] = 1
		p.LP.AddConstraint(u, lp.LE, 1)
	}
	return p
}

// fill projects an ILP solution vector onto the allocation.
func fill(a *Allocation, items []Item, x []float64) {
	for i, it := range items {
		if x[i] > 0.5 {
			a.InSPM[it.Name] = true
			a.Benefit += it.Benefit
			a.Used += it.Size
		}
	}
}

// KnapsackDP solves the same knapsack exactly by dynamic programming over
// capacities (sizes are small integers). It exists to cross-check the ILP
// path and as a faster solver for sweeps.
func KnapsackDP(items []Item, capacity uint32) (*Allocation, error) {
	a := &Allocation{InSPM: map[string]bool{}}
	if len(items) == 0 {
		return a, nil
	}
	mSolveDP.Inc()
	mDPCells.Add(uint64(len(items)) * (uint64(capacity) + 1))
	c := int(capacity)
	best := make([]float64, c+1)
	take := make([][]bool, len(items))
	for i, it := range items {
		take[i] = make([]bool, c+1)
		w := int(it.Size)
		for cap := c; cap >= w; cap-- {
			if v := best[cap-w] + it.Benefit; v > best[cap] {
				best[cap] = v
				take[i][cap] = true
			}
		}
	}
	// Reconstruct.
	cap := c
	for i := len(items) - 1; i >= 0; i-- {
		if take[i][cap] {
			a.InSPM[items[i].Name] = true
			a.Benefit += items[i].Benefit
			a.Used += items[i].Size
			cap -= int(items[i].Size)
		}
	}
	return a, nil
}
