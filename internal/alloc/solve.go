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

// Process-wide solver metrics: which back-end ran, how big the DP tables
// were, and how often the Pareto front solved under an ε-constraint.
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

// dpCellBudget bounds the dynamic-programming table (items × capacity)
// under which Solve uses the exact DP solver instead of branch & bound:
// for the paper's item counts and capacities the DP is exact and orders of
// magnitude cheaper than the ILP, which dominated sweep allocation time.
const dpCellBudget = 1 << 22

// Solve is the knapsack of the energy policy (and of an ε-solve without a
// floor): the exact dynamic-programming solver when its table fits
// dpCellBudget (always at paper scale), the branch & bound ILP
// warm-started from prev otherwise. The "auto" tag of EnergyAllocator's
// ConfigKey names this choice.
func Solve(ctx context.Context, items []Item, capacity uint32, prev map[string]bool) (*Allocation, error) {
	if int64(len(items))*(int64(capacity)+1) <= dpCellBudget {
		return KnapsackDP(ctx, items, capacity)
	}
	return Knapsack(ctx, items, capacity, prev)
}

// Knapsack solves the 0/1 knapsack over the items with the branch & bound
// ILP solver, mirroring the paper's CPLEX formulation: maximise
// Σ benefit_i·y_i subject to Σ size_i·y_i ≤ capacity, y_i ∈ {0, 1}.
//
// A non-nil prev warm-starts the search from a previous accepted
// allocation: its value under the *current* item benefits is a feasible
// incumbent, so only strictly worse subtrees are pruned and the solution
// is identical to a cold solve (prev == nil).
func Knapsack(ctx context.Context, items []Item, capacity uint32, prev map[string]bool) (*Allocation, error) {
	_, sp := obs.Start(ctx, "solve", obs.A("items", len(items)), obs.A("capacity", capacity), obs.A("solver", "ilp"))
	defer sp.End()
	a := &Allocation{InSPM: map[string]bool{}}
	if len(items) == 0 {
		return a, nil
	}
	mSolveILP.Inc()
	s, err := ilp.SolveOpts(knapsackProblem(items, capacity, nil, 0), seedOptions(items, capacity, prev, nil, 0))
	if err != nil {
		return nil, fmt.Errorf("alloc: knapsack: %w", err)
	}
	fill(a, items, s.X)
	return a, nil
}

// ErrInfeasible reports that no item subset satisfies an ε-constraint.
var ErrInfeasible = errors.New("alloc: no allocation satisfies the constraint")

// KnapsackBudget solves the ε-constrained knapsack of the Pareto front:
// maximise Σ benefit_i·y_i subject to Σ size_i·y_i ≤ capacity and
// Σ weight_i·y_i ≥ minWeight, y_i ∈ {0, 1} — maximise the primary
// objective among allocations the secondary model says stay within budget.
// Returns ErrInfeasible when no subset reaches minWeight; a non-positive
// minWeight is the plain knapsack (Solve). A non-nil prev warm-starts the
// search as in Knapsack, and only when its residents meet the
// ε-constraint under the current weights.
func KnapsackBudget(ctx context.Context, items []Item, capacity uint32, weights []float64, minWeight float64, prev map[string]bool) (*Allocation, error) {
	if minWeight <= 0 {
		return Solve(ctx, items, capacity, prev)
	}
	if len(items) == 0 {
		return nil, ErrInfeasible
	}
	mEpsResolves.Inc()
	mSolveILP.Inc()
	_, sp := obs.Start(ctx, "solve", obs.A("items", len(items)), obs.A("capacity", capacity), obs.A("solver", "ilp"))
	defer sp.End()
	s, err := ilp.SolveOpts(knapsackProblem(items, capacity, weights, minWeight), seedOptions(items, capacity, prev, weights, minWeight))
	if err != nil {
		if errors.Is(err, ilp.ErrInfeasible) {
			return nil, ErrInfeasible
		}
		return nil, fmt.Errorf("alloc: budget knapsack: %w", err)
	}
	a := &Allocation{InSPM: map[string]bool{}}
	fill(a, items, s.X)
	return a, nil
}

// seedOptions derives the warm-start incumbent from a previous allocation:
// the total benefit of the previous residents still on the item list,
// provided that subset fits the capacity under the current item sizes and,
// with weights, meets the ε-constraint (it always fits when the previous
// allocation did, but the guards keep an unachievable seed from ever
// pruning the optimum). The sums run in item-list order, which is sorted
// by name, so the seed is reproducible.
func seedOptions(items []Item, capacity uint32, prev map[string]bool, weights []float64, minWeight float64) ilp.Options {
	if len(prev) == 0 {
		return ilp.Options{}
	}
	var value, weight float64
	var used uint32
	any := false
	for i, it := range items {
		if prev[it.Name] {
			value += it.Benefit
			used += it.Size
			if weights != nil {
				weight += weights[i]
			}
			any = true
		}
	}
	if !any || used > capacity || (weights != nil && weight < minWeight) {
		return ilp.Options{}
	}
	return ilp.Options{Incumbent: value, HasIncumbent: true}
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
// capacities (sizes are small integers): Solve's back-end for the paper's
// sizes, and the ILP's cross-check in tests.
func KnapsackDP(ctx context.Context, items []Item, capacity uint32) (*Allocation, error) {
	_, sp := obs.Start(ctx, "solve", obs.A("items", len(items)), obs.A("capacity", capacity), obs.A("solver", "dp"))
	defer sp.End()
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
