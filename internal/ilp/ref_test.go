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

// TestSearchMatchesCloneReference captures every program the Pareto
// sweeps of all three benchmarks solve — their ε-constrained knapsacks
// and the IPET programs certifying each point — and re-solves each with
// the production search and with the clone-per-node reference, which
// solves every node cold: the node counts, outcomes and solutions must be
// identical. The sweeps must exercise both the production search's cold
// fallback for possibly tied optima and its dual proof of infeasibility.
func TestSearchMatchesCloneReference(t *testing.T) {
	var total ilp.Search
	knapsacks, branched := 0, 0
	for _, bench := range []string{"G.721", "ADPCM", "MultiSort"} {
		l, err := core.NewLabByName(bench)
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
		for i, c := range calls {
			got, st, err := ilp.SolveSearch(c.p, c.o)
			nodes := st.Nodes
			want, wantNodes, wantErr := refSolveOpts(c.p, c.o)
			if nodes != wantNodes || fmt.Sprint(err) != fmt.Sprint(wantErr) {
				t.Fatalf("%s program %d: %d nodes (err %v), reference %d nodes (err %v)", bench, i, nodes, err, wantNodes, wantErr)
			}
			if got.Status != want.Status || got.Obj != want.Obj || fmt.Sprint(got.X) != fmt.Sprint(want.X) {
				t.Fatalf("%s program %d: solution %+v, reference %+v", bench, i, got, want)
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
			total.Nodes += st.Nodes
			total.Degenerate += st.Degenerate
			total.Incumbent += st.Incumbent
			total.Infeasible += st.Infeasible
		}
		t.Logf("%s: %d programs", bench, len(calls))
	}
	t.Logf("%d ε-knapsacks, %d branched; %+v", knapsacks, branched, total)
	if knapsacks == 0 || branched == 0 {
		t.Fatalf("the sweeps solved %d ε-knapsacks, %d of their programs branched; want both", knapsacks, branched)
	}
	if total.Degenerate == 0 || total.Infeasible == 0 {
		t.Fatalf("searches took %d degenerate fallbacks and proved %d dual children infeasible; want both", total.Degenerate, total.Infeasible)
	}
}

// TestTiedKnapsackMatchesCloneReference: knapsacks whose optimum several
// placements attain must come back exactly as the cold clone-per-node
// search places and prices them. Each case is one a dual re-optimisation
// left to itself gets wrong:
//   - four interchangeable items, any two of which fit: without the
//     degeneracy guard the search places items 0 and 2, the cold search
//     1 and 2; without the incumbent guard it prices the optimum at
//     99.99999999999999, the cold search at 100
//   - the shape of an ADPCM knapsack, where any two of the four 4-byte
//     items fill the space beside items 1 and 6: without both guards the
//     search places items 2 and 3, the cold search 4 and 5
//   - two items of equal benefit: without the incumbent guard the search
//     prices the optimum at 55, the cold search at 54.99999999999999
func TestTiedKnapsackMatchesCloneReference(t *testing.T) {
	for _, c := range []struct {
		benefit, size []float64
		capacity      float64
	}{
		{[]float64{50, 50, 50, 50}, []float64{28, 28, 28, 28}, 64},
		{[]float64{600, 1000, 6, 6, 6, 6, 50}, []float64{32, 36, 4, 4, 4, 4, 16}, 60},
		{[]float64{5, 35, 35, 20, 5, 60}, []float64{20, 24, 28, 4, 20, 32}, 28},
	} {
		n := len(c.benefit)
		p := &ilp.Problem{LP: lp.Problem{NumVars: n, Objective: c.benefit}}
		p.LP.AddConstraint(c.size, lp.LE, c.capacity)
		for i := 0; i < n; i++ {
			u := make([]float64, n)
			u[i] = 1
			p.LP.AddConstraint(u, lp.LE, 1)
		}
		got, st, err := ilp.SolveSearch(p, ilp.Options{})
		want, wantNodes, wantErr := refSolveOpts(p, ilp.Options{})
		if err != nil || wantErr != nil || st.Nodes != wantNodes {
			t.Fatalf("%v: %d nodes (err %v), reference %d nodes (err %v)", c.benefit, st.Nodes, err, wantNodes, wantErr)
		}
		if got.Obj != want.Obj || fmt.Sprint(got.X) != fmt.Sprint(want.X) {
			t.Errorf("%v: x %v objective %v, reference x %v objective %v", c.benefit, got.X, got.Obj, want.X, want.Obj)
		}
	}
}
