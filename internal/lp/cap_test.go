package lp_test

import (
	"context"
	"errors"
	"testing"

	"repro/internal/alloc"
	"repro/internal/ilp"
	"repro/internal/lp"
)

// TestIterationCapIsNotInfeasible: a relaxation that runs into the simplex
// iteration cap is a solver failure, not an infeasible program. It must
// reach ilp's callers as an error other than ilp.ErrInfeasible, and the
// budget knapsack's as an error other than alloc.ErrInfeasible — which
// the Pareto and budgeted allocators take as "no subset meets the budget"
// and silently fall back on.
func TestIterationCapIsNotInfeasible(t *testing.T) {
	defer lp.SetIterationCap(0)() // one pivot per phase

	p := &ilp.Problem{LP: lp.Problem{NumVars: 3, Objective: []float64{3, 2, 1}}}
	p.LP.AddConstraint([]float64{4, 4, 4}, lp.LE, 8)
	for i := 0; i < 3; i++ {
		u := make([]float64, 3)
		u[i] = 1
		p.LP.AddConstraint(u, lp.LE, 1)
	}
	if _, err := ilp.Solve(p); err == nil || errors.Is(err, ilp.ErrInfeasible) {
		t.Errorf("ilp.Solve: err = %v, want a solver error that is not ErrInfeasible", err)
	}

	items := []alloc.Item{{Name: "a", Size: 4, Benefit: 3}, {Name: "b", Size: 4, Benefit: 2}, {Name: "c", Size: 4, Benefit: 1}}
	_, err := alloc.KnapsackBudget(context.Background(), items, 8, []float64{1, 2, 3}, 1)
	if err == nil || errors.Is(err, alloc.ErrInfeasible) {
		t.Errorf("alloc.KnapsackBudget: err = %v, want a solver error that is not ErrInfeasible", err)
	}
}
