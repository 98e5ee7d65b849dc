package lp

import "math"

// refTableau is the solver's original dense tableau, kept verbatim as a
// test-only oracle: one slice per row, the RHS and the objective row held
// apart, every pivot sweeping every column of every row. The production
// kernel must reproduce it pivot for pivot (TestSolveMatchesReference,
// FuzzSolveMatchesReference); only the iteration cap's outcome differs,
// which this oracle still reports as Unbounded.
type refTableau struct {
	m, n   int // constraint rows, total columns (excluding RHS)
	nv     int // decision variables (columns 0..nv-1)
	a      [][]float64
	rhs    []float64
	obj    []float64 // reduced-cost row (for maximisation)
	objC   float64   // objective constant
	basis  []int     // basic variable of each row
	pivots int       // pivot operations performed on this tableau
}

// clone deep-copies the tableau so a Prepared base can be re-solved many
// times. The pivot counter restarts at zero: each re-solve reports only its
// own phase-2 effort.
func (t *refTableau) clone() *refTableau {
	c := &refTableau{
		m: t.m, n: t.n, nv: t.nv,
		a:     make([][]float64, t.m),
		rhs:   append([]float64(nil), t.rhs...),
		obj:   append([]float64(nil), t.obj...),
		objC:  t.objC,
		basis: append([]int(nil), t.basis...),
	}
	for i, row := range t.a {
		c.a[i] = append([]float64(nil), row...)
	}
	return c
}

func (t *refTableau) pivot(row, col int) {
	t.pivots++
	p := t.a[row][col]
	inv := 1 / p
	for j := 0; j < t.n; j++ {
		t.a[row][j] *= inv
	}
	t.rhs[row] *= inv
	t.a[row][col] = 1
	for i := 0; i < t.m; i++ {
		if i == row {
			continue
		}
		f := t.a[i][col]
		if f == 0 {
			continue
		}
		for j := 0; j < t.n; j++ {
			t.a[i][j] -= f * t.a[row][j]
		}
		t.rhs[i] -= f * t.rhs[row]
		t.a[i][col] = 0
	}
	f := t.obj[col]
	if f != 0 {
		for j := 0; j < t.n; j++ {
			t.obj[j] -= f * t.a[row][j]
		}
		t.objC -= f * t.rhs[row]
		t.obj[col] = 0
	}
	t.basis[row] = col
}

// iterate runs primal simplex until optimality or unboundedness, using
// Bland's rule (smallest index) to prevent cycling.
func (t *refTableau) iterate() Status {
	for iter := 0; ; iter++ {
		if iter > 50000 {
			// Defensive limit; with Bland's rule this should not trigger.
			return Unbounded
		}
		col := -1
		for j := 0; j < t.n; j++ {
			if t.obj[j] > eps {
				col = j
				break
			}
		}
		if col < 0 {
			return Optimal
		}
		row := -1
		best := math.Inf(1)
		for i := 0; i < t.m; i++ {
			if t.a[i][col] > eps {
				ratio := t.rhs[i] / t.a[i][col]
				if ratio < best-eps || (ratio < best+eps && (row < 0 || t.basis[i] < t.basis[row])) {
					best = ratio
					row = i
				}
			}
		}
		if row < 0 {
			return Unbounded
		}
		t.pivot(row, col)
	}
}

// refSolve is the original Solve, reporting the pivots it performed.
func refSolve(p *Problem) (Solution, int) {
	t, st := refNewTableau(p)
	if st != Optimal {
		return Solution{Status: st}, 0
	}
	sol := t.solveObjective(p.Objective)
	return sol, t.pivots
}

// refNewTableau builds the simplex tableau for p's constraints and runs
// phase 1 (feasibility). The returned tableau depends only on p.NumVars and
// p.Cons — never on p.Objective — so it can be re-solved under any
// objective with solveObjective. A non-Optimal status means the constraints
// are infeasible and the tableau is nil.
func refNewTableau(p *Problem) (*refTableau, Status) {
	m := len(p.Cons)
	nv := p.NumVars

	coef := func(c Constraint, j int) float64 {
		if j < len(c.Coef) {
			return c.Coef[j]
		}
		return 0
	}

	// Count slack and artificial columns.
	nSlack := 0
	nArt := 0
	for _, c := range p.Cons {
		rel, rhs := c.Rel, c.RHS
		if rhs < 0 { // normalised below: flips the relation
			rel = flip(rel)
		}
		switch rel {
		case LE:
			nSlack++
		case GE:
			nSlack++
			nArt++
		case EQ:
			nArt++
		}
	}
	n := nv + nSlack + nArt
	t := &refTableau{
		m: m, n: n, nv: nv,
		a:     make([][]float64, m),
		rhs:   make([]float64, m),
		obj:   make([]float64, n),
		basis: make([]int, m),
	}
	artCols := make([]int, 0, nArt)
	slackCur, artCur := nv, nv+nSlack
	for i, c := range p.Cons {
		t.a[i] = make([]float64, n)
		sign := 1.0
		rel := c.Rel
		if c.RHS < 0 {
			sign = -1
			rel = flip(rel)
		}
		for j := 0; j < nv; j++ {
			t.a[i][j] = sign * coef(c, j)
		}
		t.rhs[i] = sign * c.RHS
		switch rel {
		case LE:
			t.a[i][slackCur] = 1
			t.basis[i] = slackCur
			slackCur++
		case GE:
			t.a[i][slackCur] = -1
			slackCur++
			t.a[i][artCur] = 1
			t.basis[i] = artCur
			artCols = append(artCols, artCur)
			artCur++
		case EQ:
			t.a[i][artCur] = 1
			t.basis[i] = artCur
			artCols = append(artCols, artCur)
			artCur++
		}
	}

	// Phase 1: maximise -(sum of artificials).
	if len(artCols) > 0 {
		isArt := make([]bool, n)
		for _, j := range artCols {
			isArt[j] = true
			t.obj[j] = -1
		}
		// Price out the artificial basis.
		for i := 0; i < t.m; i++ {
			if isArt[t.basis[i]] {
				for j := 0; j < t.n; j++ {
					t.obj[j] += t.a[i][j]
				}
				t.objC += t.rhs[i]
				t.obj[t.basis[i]] = 0
			}
		}
		if st := t.iterate(); st == Unbounded {
			return nil, Infeasible
		}
		// objC tracks the negated objective, so a positive residual means
		// some artificial variable is still non-zero: infeasible.
		if t.objC > 1e-6 {
			return nil, Infeasible
		}
		// Drive remaining artificials out of the basis where possible.
		for i := 0; i < t.m; i++ {
			if !isArt[t.basis[i]] {
				continue
			}
			pivoted := false
			for j := 0; j < nv+nSlack; j++ {
				if math.Abs(t.a[i][j]) > eps {
					t.pivot(i, j)
					pivoted = true
					break
				}
			}
			if !pivoted && math.Abs(t.rhs[i]) > 1e-6 {
				return nil, Infeasible
			}
		}
		// Forbid artificials from re-entering: zero their columns.
		for _, j := range artCols {
			for i := 0; i < t.m; i++ {
				t.a[i][j] = 0
			}
		}
	}
	return t, Optimal
}

// solveObjective runs phase 2 of the simplex method on a phase-1-feasible
// tableau under the given (maximisation) objective and extracts the
// solution. It mutates the tableau, so warm-start callers must clone first.
func (t *refTableau) solveObjective(objective []float64) Solution {
	nv := t.nv
	// Phase 2: the real objective.
	for j := range t.obj {
		t.obj[j] = 0
	}
	t.objC = 0
	for j := 0; j < nv && j < len(objective); j++ {
		t.obj[j] = objective[j]
	}
	// Price out basic variables.
	for i := 0; i < t.m; i++ {
		b := t.basis[i]
		f := t.obj[b]
		if f != 0 {
			for j := 0; j < t.n; j++ {
				t.obj[j] -= f * t.a[i][j]
			}
			t.objC -= f * t.rhs[i]
			t.obj[b] = 0
		}
	}
	if st := t.iterate(); st == Unbounded {
		return Solution{Status: Unbounded}
	}

	x := make([]float64, nv)
	for i := 0; i < t.m; i++ {
		if t.basis[i] < nv {
			x[t.basis[i]] = t.rhs[i]
		}
	}
	obj := 0.0
	for j := 0; j < nv && j < len(objective); j++ {
		obj += objective[j] * x[j]
	}
	return Solution{Status: Optimal, X: x, Obj: obj}
}

// refPrepared is the original Prepared: phase 1 once, and every
// re-solve from a deep clone of the base tableau.
type refPrepared struct {
	base   *refTableau
	status Status
	pivots int // phase-1 pivots
}

func refPrepare(p *Problem) *refPrepared {
	t, st := refNewTableau(p)
	if st != Optimal {
		return &refPrepared{status: st}
	}
	return &refPrepared{base: t, status: st, pivots: t.pivots}
}

// solveObjective is the original Prepared.SolveObjective, reporting the
// phase-2 pivots it performed.
func (pr *refPrepared) solveObjective(objective []float64) (Solution, int) {
	if pr.status != Optimal {
		return Solution{Status: pr.status}, 0
	}
	t := pr.base.clone()
	sol := t.solveObjective(objective)
	return sol, t.pivots
}
