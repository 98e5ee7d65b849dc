// Package lp solves linear programs in the form
//
//	maximise  c·x   subject to  A·x {<=,=,>=} b,  x >= 0
//
// with the two-phase primal simplex method under Bland's anti-cycling
// rule. It is the optimisation substrate for the scratchpad knapsack
// allocation (the paper solves it with a commercial ILP solver) and for
// the IPET path analysis in the WCET tool, both reached through the
// branch & bound search of internal/ilp.
//
// The kernel keeps a tableau in one flat row-major slice: the constraint
// rows, then the reduced-cost row, each ending in its right-hand side.
// Tableaux are built in a Workspace, so a branch & bound search reuses one
// arena for every node it solves. A pivot scales the pivot row once,
// records its nonzero columns and updates the other rows only there.
// Since x − f·0 == x, that is exactly the full dense update: every pivot,
// every nonzero value and every comparison is the same, and zeros differ
// at most in sign.
//
// The dense tableau the kernel replaced is kept verbatim in ref_test.go as
// its oracle. TestSolveMatchesReference and FuzzSolveMatchesReference hold
// Solve and Prepare+SolveObjective to it: the same status, bitwise-equal
// solutions and the same number of pivots.
package lp

import (
	"fmt"
	"math"

	"repro/internal/obs"
)

// Process-wide simplex metrics, split by mode: "cold" counts full two-phase
// solves (Solve, and the phase-1 work done by Prepare); "warm" counts
// phase-2-only re-solves from a Prepared tableau (SolveObjective). The
// pivot counters measure actual simplex effort, so cold-vs-warm ratios
// quantify what constraint-skeleton reuse saves.
var (
	mSolvesCold = obs.Default.Counter("wcetlab_lp_solves_total",
		"Simplex solves by mode (cold = two-phase, warm = phase 2 from a prepared tableau).",
		"mode", "cold")
	mSolvesWarm = obs.Default.Counter("wcetlab_lp_solves_total",
		"Simplex solves by mode (cold = two-phase, warm = phase 2 from a prepared tableau).",
		"mode", "warm")
	mPivotsCold = obs.Default.Counter("wcetlab_lp_pivots_total",
		"Simplex pivots by mode (cold = two-phase, warm = phase 2 from a prepared tableau).",
		"mode", "cold")
	mPivotsWarm = obs.Default.Counter("wcetlab_lp_pivots_total",
		"Simplex pivots by mode (cold = two-phase, warm = phase 2 from a prepared tableau).",
		"mode", "warm")
)

// Rel is a constraint relation.
type Rel int8

// Constraint relations.
const (
	LE Rel = iota // <=
	GE            // >=
	EQ            // ==
)

func (r Rel) String() string { return [...]string{"<=", ">=", "=="}[r] }

// Constraint is one linear constraint: Coef·x Rel RHS. Coef may be shorter
// than the variable count; missing entries are zero.
type Constraint struct {
	Coef []float64
	Rel  Rel
	RHS  float64
}

// Problem is a linear program. All variables are implicitly non-negative.
type Problem struct {
	// NumVars is the number of decision variables.
	NumVars int
	// Objective holds the maximisation coefficients (padded with zeros).
	Objective []float64
	// Cons are the constraints.
	Cons []Constraint
}

// AddConstraint appends a constraint.
func (p *Problem) AddConstraint(coef []float64, rel Rel, rhs float64) {
	p.Cons = append(p.Cons, Constraint{Coef: coef, Rel: rel, RHS: rhs})
}

// Status reports the outcome of a solve.
type Status int8

// Solve outcomes.
const (
	Optimal Status = iota
	Infeasible
	Unbounded
	// IterationLimit reports that a simplex phase gave up after
	// iterationCap pivots without reaching an answer. Bland's rule cannot
	// cycle, so this is a numerical failure, not a property of the
	// problem: neither infeasible nor unbounded.
	IterationLimit
)

func (s Status) String() string {
	return [...]string{"optimal", "infeasible", "unbounded", "iteration limit"}[s]
}

// Solution is the result of solving a Problem.
type Solution struct {
	Status Status
	// X holds the optimal variable values (length NumVars).
	X []float64
	// Obj is the optimal objective value.
	Obj float64
}

const eps = 1e-9

// iterationCap bounds the pivots of one simplex phase. It is a variable
// only so tests can lower it.
var iterationCap = 50000

// tableau is the simplex tableau, stored flat and row-major with stride
// w = n+1: rows 0..m-1 are the constraints and row m is the reduced-cost
// row (for maximisation); column n holds each row's right-hand side, and
// the reduced-cost row's column n the (negated) objective constant.
type tableau struct {
	m, n   int       // constraint rows, total columns (excluding the RHS)
	nv     int       // decision variables (columns 0..nv-1)
	art    int       // first artificial column (artificials are art..n-1)
	w      int       // row stride, n+1
	a      []float64 // (m+1)·w entries
	basis  []int     // basic variable of each constraint row
	nz     []int     // scratch: nonzero columns of the current pivot row
	pivots int       // pivot operations performed on this tableau
}

// Workspace is the memory the simplex kernel builds its tableaux in. The
// zero value is ready to use. Reusing one Workspace across solves, as the
// branch & bound search does across its nodes, allocates the tableau's
// storage once rather than per solve. A Workspace must not be shared
// between goroutines.
type Workspace struct {
	t tableau
}

// row returns constraint row i (i == m is the reduced-cost row), RHS
// included.
func (t *tableau) row(i int) []float64 { return t.a[i*t.w : (i+1)*t.w : (i+1)*t.w] }

// reset shapes the tableau as m constraint rows over n columns, all zero,
// reusing its storage when it is large enough. Storage grows to twice the
// size asked for, since branch & bound asks for a row and a column or two
// more with every level it descends.
func (t *tableau) reset(m, n, nv, art int) {
	t.m, t.n, t.nv, t.art, t.w, t.pivots = m, n, nv, art, n+1, 0
	size := (m + 1) * (n + 1)
	if cap(t.a) < size {
		t.a = make([]float64, size, 2*size)
	} else {
		t.a = t.a[:size]
		clear(t.a)
	}
	if cap(t.basis) < m {
		t.basis = make([]int, m, 2*m)
	}
	t.basis = t.basis[:m]
}

// load makes t a copy of base, whose pivot count it does not inherit:
// each re-solve reports only its own phase-2 effort.
func (t *tableau) load(base *tableau) {
	t.m, t.n, t.nv, t.art, t.w, t.pivots = base.m, base.n, base.nv, base.art, base.w, 0
	t.a = append(t.a[:0], base.a...)
	t.basis = append(t.basis[:0], base.basis...)
}

// pivot makes col basic in row. The pivot row is scaled once and its
// nonzero columns recorded; every other row, the reduced-cost row
// included, is updated only in those columns, which is the dense update
// without its x − f·0 terms.
func (t *tableau) pivot(row, col int) {
	t.pivots++
	w := t.w
	pr := t.row(row)
	inv := 1 / pr[col]
	nz := t.nz[:0]
	for j, v := range pr {
		if v != 0 {
			pr[j] = v * inv
			nz = append(nz, j)
		}
	}
	pr[col] = 1
	t.nz = nz
	// Walk column col down the rows.
	for k := col; k < len(t.a); k += w {
		f := t.a[k]
		if f == 0 || k == row*w+col {
			continue
		}
		r := t.a[k-col : k-col+w]
		for _, j := range nz {
			r[j] -= f * pr[j]
		}
		r[col] = 0
	}
	t.basis[row] = col
}

// iterate runs primal simplex until optimality or unboundedness, using
// Bland's rule (smallest index) to prevent cycling.
func (t *tableau) iterate() Status {
	obj := t.row(t.m)[:t.n]
	for iter := 0; ; iter++ {
		if iter > iterationCap {
			return IterationLimit
		}
		col := -1
		for j, v := range obj {
			if v > eps {
				col = j
				break
			}
		}
		if col < 0 {
			return Optimal
		}
		row := -1
		best := math.Inf(1)
		for i, k := 0, col; i < t.m; i, k = i+1, k+t.w {
			if v := t.a[k]; v > eps {
				ratio := t.a[k-col+t.n] / v
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

// Solve solves the problem with the two-phase simplex method.
func Solve(p *Problem) Solution { return new(Workspace).Solve(p) }

// Solve solves the problem with the two-phase simplex method, building
// its tableau in the workspace. The solution does not refer to the
// workspace, so it outlives the next solve.
func (ws *Workspace) Solve(p *Problem) Solution {
	mSolvesCold.Inc()
	t := &ws.t
	if st := t.build(p); st != Optimal {
		return Solution{Status: st}
	}
	sol := t.solveObjective(p.Objective)
	mPivotsCold.Add(uint64(t.pivots))
	return sol
}

// build shapes the tableau for p's constraints and runs phase 1
// (feasibility). The result depends only on p.NumVars and p.Cons — never
// on p.Objective — so it can be re-solved under any objective with
// solveObjective. A non-Optimal status means the constraints are
// infeasible (or phase 1 hit the iteration cap) and the tableau is unusable.
func (t *tableau) build(p *Problem) Status {
	m := len(p.Cons)
	nv := p.NumVars

	// Count slack and artificial columns.
	nSlack := 0
	nArt := 0
	for _, c := range p.Cons {
		rel := c.Rel
		if c.RHS < 0 { // normalised below: flips the relation
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
	art := nv + nSlack
	t.reset(m, n, nv, art)
	slackCur, artCur := nv, art
	for i, c := range p.Cons {
		r := t.row(i)
		sign := 1.0
		rel := c.Rel
		if c.RHS < 0 {
			sign = -1
			rel = flip(rel)
		}
		for j := 0; j < nv && j < len(c.Coef); j++ {
			r[j] = sign * c.Coef[j]
		}
		r[n] = sign * c.RHS
		switch rel {
		case LE:
			r[slackCur] = 1
			t.basis[i] = slackCur
			slackCur++
		case GE:
			r[slackCur] = -1
			slackCur++
			r[artCur] = 1
			t.basis[i] = artCur
			artCur++
		case EQ:
			r[artCur] = 1
			t.basis[i] = artCur
			artCur++
		}
	}
	if nArt == 0 {
		return Optimal
	}

	// Phase 1: maximise -(sum of artificials).
	obj := t.row(m)
	for j := art; j < n; j++ {
		obj[j] = -1
	}
	// Price out the artificial basis.
	for i := 0; i < m; i++ {
		if b := t.basis[i]; b >= art {
			for j, v := range t.row(i) {
				obj[j] += v
			}
			obj[b] = 0
		}
	}
	switch t.iterate() {
	case Unbounded:
		return Infeasible
	case IterationLimit:
		return IterationLimit
	}
	// obj[n] tracks the negated objective, so a positive residual means
	// some artificial variable is still non-zero: infeasible.
	if obj[n] > 1e-6 {
		return Infeasible
	}
	// Drive remaining artificials out of the basis where possible.
	for i := 0; i < m; i++ {
		if t.basis[i] < art {
			continue
		}
		r := t.row(i)
		pivoted := false
		for j := 0; j < art; j++ {
			if math.Abs(r[j]) > eps {
				t.pivot(i, j)
				pivoted = true
				break
			}
		}
		if !pivoted && math.Abs(r[n]) > 1e-6 {
			return Infeasible
		}
	}
	// Forbid artificials from re-entering: zero their columns.
	for i := 0; i < m; i++ {
		clear(t.row(i)[art:n])
	}
	return Optimal
}

// solveObjective runs phase 2 of the simplex method on a phase-1-feasible
// tableau under the given (maximisation) objective and extracts the
// solution. It mutates the tableau, so warm-start callers load a copy.
func (t *tableau) solveObjective(objective []float64) Solution {
	nv := t.nv
	// Phase 2: the real objective.
	obj := t.row(t.m)
	clear(obj)
	for j := 0; j < nv && j < len(objective); j++ {
		obj[j] = objective[j]
	}
	// Price out basic variables.
	for i := 0; i < t.m; i++ {
		b := t.basis[i]
		if f := obj[b]; f != 0 {
			for j, v := range t.row(i) {
				if v != 0 {
					obj[j] -= f * v
				}
			}
			obj[b] = 0
		}
	}
	if st := t.iterate(); st != Optimal {
		return Solution{Status: st}
	}

	x := make([]float64, nv)
	for i := 0; i < t.m; i++ {
		if b := t.basis[i]; b < nv {
			x[b] = t.a[i*t.w+t.n]
		}
	}
	val := 0.0
	for j := 0; j < nv && j < len(objective); j++ {
		val += objective[j] * x[j]
	}
	return Solution{Status: Optimal, X: x, Obj: val}
}

// Prepared is a phase-1-solved constraint skeleton: the feasibility work of
// Solve done once, re-usable under any number of objectives. It is how the
// IPET analysis warm-starts re-priced solves — the flow constraints of a
// function never change across placements, only the cost row does.
//
// SolveObjective copies the base tableau and runs phase 2 from it, which by
// construction performs the exact pivot sequence a cold Solve would after
// its own phase 1 — so results are bit-identical to Solve, just cheaper.
type Prepared struct {
	base   *tableau
	status Status
}

// Prepare runs phase 1 on p's constraints (the objective is ignored) and
// captures the resulting tableau. The phase-1 pivots count as cold work.
func Prepare(p *Problem) *Prepared {
	var ws Workspace
	if st := ws.t.build(p); st != Optimal {
		return &Prepared{status: st}
	}
	mPivotsCold.Add(uint64(ws.t.pivots))
	base := new(tableau)
	base.load(&ws.t) // sized exactly: Prepared tableaux are long-lived
	return &Prepared{base: base, status: Optimal}
}

// NumVars reports the decision-variable count of the prepared problem, or 0
// if the constraints were infeasible.
func (pr *Prepared) NumVars() int {
	if pr.base == nil {
		return 0
	}
	return pr.base.nv
}

// SolveObjective maximises the given objective over the prepared
// constraints. The base tableau is never mutated after Prepare, so
// concurrent calls on one Prepared are safe.
func (pr *Prepared) SolveObjective(objective []float64) Solution {
	return new(Workspace).SolveObjective(pr, objective)
}

// SolveObjective is Prepared.SolveObjective with the copy of the base
// tableau made in the workspace.
func (ws *Workspace) SolveObjective(pr *Prepared, objective []float64) Solution {
	mSolvesWarm.Inc()
	if pr.status != Optimal {
		return Solution{Status: pr.status}
	}
	t := &ws.t
	t.load(pr.base)
	sol := t.solveObjective(objective)
	mPivotsWarm.Add(uint64(t.pivots))
	return sol
}

func flip(r Rel) Rel {
	switch r {
	case LE:
		return GE
	case GE:
		return LE
	}
	return EQ
}

// String renders the problem for debugging.
func (p *Problem) String() string {
	s := fmt.Sprintf("max %v subject to:\n", p.Objective)
	for _, c := range p.Cons {
		s += fmt.Sprintf("  %v %s %g\n", c.Coef, c.Rel, c.RHS)
	}
	return s
}
