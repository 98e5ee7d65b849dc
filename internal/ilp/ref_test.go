package ilp_test

import (
	"context"
	"fmt"
	"math"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/ilp"
	"repro/internal/lp"
)

// refSolveOpts is the branch & bound search as it was before nodes shared
// their parent's constraints, kept as a test-only oracle: every node
// deep-copies its parent's program and appends a full-width unit bound
// row, and every relaxation is solved in a fresh tableau.
func refSolveOpts(p *ilp.Problem, o ilp.Options) (ilp.Solution, int, error) {
	const intTol = 1e-6
	integral := func(i int) bool { return p.Integer == nil || (i < len(p.Integer) && p.Integer[i]) }
	clone := func(p *lp.Problem) *lp.Problem {
		q := &lp.Problem{NumVars: p.NumVars, Objective: append([]float64(nil), p.Objective...)}
		q.Cons = make([]lp.Constraint, len(p.Cons))
		for i, c := range p.Cons {
			q.Cons[i] = lp.Constraint{Coef: append([]float64(nil), c.Coef...), Rel: c.Rel, RHS: c.RHS}
		}
		return q
	}
	unit := func(n, i int) []float64 {
		c := make([]float64, n)
		c[i] = 1
		return c
	}
	incumbent := ilp.Solution{Status: lp.Infeasible, Obj: math.Inf(-1)}
	type node struct {
		prob *lp.Problem
		root bool
	}
	stack := []node{{prob: clone(&p.LP), root: true}}
	nodes := 0
	for len(stack) > 0 {
		nodes++
		if nodes > ilp.MaxNodes {
			return incumbent, nodes, fmt.Errorf("ilp: node limit %d exceeded", ilp.MaxNodes)
		}
		nd := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		var rel lp.Solution
		if nd.root && o.Root != nil {
			rel = o.Root.SolveObjective(nd.prob.Objective)
		} else {
			rel = lp.Solve(nd.prob)
		}
		switch rel.Status {
		case lp.Infeasible:
			continue
		case lp.Unbounded:
			return ilp.Solution{}, nodes, fmt.Errorf("ilp: relaxation unbounded")
		}
		if rel.Obj <= incumbent.Obj+intTol && incumbent.Status == lp.Optimal {
			continue
		}
		if o.HasIncumbent && rel.Obj < o.Incumbent-intTol {
			continue
		}
		branch := -1
		worst := intTol
		for i := 0; i < nd.prob.NumVars; i++ {
			if !integral(i) {
				continue
			}
			f := math.Abs(rel.X[i] - math.Round(rel.X[i]))
			if f > worst {
				worst = f
				branch = i
			}
		}
		if branch < 0 {
			if rel.Obj > incumbent.Obj {
				x := make([]float64, len(rel.X))
				for i, v := range rel.X {
					if integral(i) {
						x[i] = math.Round(v)
					} else {
						x[i] = v
					}
				}
				incumbent = ilp.Solution{Status: lp.Optimal, X: x, Obj: rel.Obj}
			}
			continue
		}
		v := rel.X[branch]
		lo, hi := math.Floor(v), math.Ceil(v)
		le := clone(nd.prob)
		le.AddConstraint(unit(nd.prob.NumVars, branch), lp.LE, lo)
		ge := clone(nd.prob)
		ge.AddConstraint(unit(nd.prob.NumVars, branch), lp.GE, hi)
		stack = append(stack, node{prob: le}, node{prob: ge})
	}
	if incumbent.Status != lp.Optimal {
		return incumbent, nodes, ilp.ErrInfeasible
	}
	return incumbent, nodes, nil
}

// TestSearchMatchesCloneReference captures every program a MultiSort
// Pareto sweep solves — its ε-constrained knapsacks and the IPET programs
// certifying each point — and re-solves each with the production search
// and with the clone-per-node reference: the node counts, outcomes and
// solutions must be identical.
func TestSearchMatchesCloneReference(t *testing.T) {
	l, err := core.NewLabByName("MultiSort")
	if err != nil {
		t.Fatal(err)
	}
	type call struct {
		p *ilp.Problem
		o ilp.Options
	}
	var mu sync.Mutex
	var calls []call
	restore := ilp.SetSolveHook(func(p *ilp.Problem, o ilp.Options) {
		mu.Lock()
		calls = append(calls, call{p, o})
		mu.Unlock()
	})
	_, err = l.SweepPareto(context.Background())
	restore()
	if err != nil {
		t.Fatal(err)
	}
	knapsacks, branched := 0, 0
	for i, c := range calls {
		got, nodes, err := ilp.SolveNodes(c.p, c.o)
		want, wantNodes, wantErr := refSolveOpts(c.p, c.o)
		if nodes != wantNodes || fmt.Sprint(err) != fmt.Sprint(wantErr) {
			t.Fatalf("program %d: %d nodes (err %v), reference %d nodes (err %v)", i, nodes, err, wantNodes, wantErr)
		}
		if got.Status != want.Status || got.Obj != want.Obj || fmt.Sprint(got.X) != fmt.Sprint(want.X) {
			t.Fatalf("program %d: solution %+v, reference %+v", i, got, want)
		}
		for _, con := range c.p.LP.Cons {
			if con.Rel == lp.GE {
				knapsacks++
				break
			}
		}
		if nodes > 1 {
			branched++
		}
	}
	t.Logf("%d programs, %d ε-knapsacks, %d branched", len(calls), knapsacks, branched)
	if knapsacks == 0 || branched == 0 {
		t.Fatalf("the sweep solved %d ε-knapsacks, %d of its programs branched; want both", knapsacks, branched)
	}
}
