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
// Branch & bound children need not start over. A Workspace keeps the
// optimal tableau of each level of a depth-first search (Keep), and
// Branch re-optimises a child, its parent plus one bound row, from the
// parent's tableau by dual simplex (Lemke, 1954). That takes other pivots
// than a cold Solve of the child's program, so Branch reports whether its
// optimum is one Solve could not differ from; internal/ilp re-solves the
// others cold.
//
// The dense tableau the kernel replaced is kept verbatim in ref_test.go as
// its oracle. TestSolveMatchesReference and FuzzSolveMatchesReference hold
// Solve and Prepare+SolveObjective to it: the same status, bitwise-equal
// solutions and the same number of pivots. TestBranchMatchesSolve and
// FuzzBranchMatchesSolve hold Branch to a cold Solve of the child: the
// same status, objectives within 1e-6, and solutions within 1e-6 wherever
// Branch reports the optimum unique.
package lp

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/obs"
)

// Process-wide simplex metrics, split by mode: "cold" counts full two-phase
// solves (Solve, and the phase-1 work done by Prepare); "warm" counts
// phase-2-only re-solves from a Prepared tableau (SolveObjective); "dual"
// counts branch & bound children re-optimised from their parent's
// tableau (Branch). The pivot counters measure actual simplex effort, so
// the ratios between modes quantify what each kind of reuse saves.
const (
	solvesHelp = "Simplex solves by mode (cold = two-phase, warm = phase 2 from a prepared tableau, dual = dual simplex from a parent tableau)."
	pivotsHelp = "Simplex pivots by mode (cold = two-phase, warm = phase 2 from a prepared tableau, dual = dual simplex from a parent tableau)."
)

var (
	mSolvesCold = obs.Default.Counter("wcetlab_lp_solves_total", solvesHelp, "mode", "cold")
	mSolvesWarm = obs.Default.Counter("wcetlab_lp_solves_total", solvesHelp, "mode", "warm")
	mSolvesDual = obs.Default.Counter("wcetlab_lp_solves_total", solvesHelp, "mode", "dual")
	mPivotsCold = obs.Default.Counter("wcetlab_lp_pivots_total", pivotsHelp, "mode", "cold")
	mPivotsWarm = obs.Default.Counter("wcetlab_lp_pivots_total", pivotsHelp, "mode", "warm")
	mPivotsDual = obs.Default.Counter("wcetlab_lp_pivots_total", pivotsHelp, "mode", "dual")
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
// Columns are the decision variables, the slacks of the built rows, their
// artificials, then the slacks of the bound rows Branch appended.
type tableau struct {
	m, n   int       // constraint rows, total columns (excluding the RHS)
	nv     int       // decision variables (columns 0..nv-1)
	art    int       // first artificial column
	artEnd int       // one past the last artificial column
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
//
// Besides the tableau of the last Solve or SolveObjective, a workspace
// holds one optimal tableau per level of a depth-first search: Keep stores
// a solved tableau at its depth, and Branch re-optimises a child from the
// level above it.
type Workspace struct {
	t      tableau
	levels []tableau
}

// keepFloats caps the level storage a workspace carries from one search
// to the next (Trim): about 4 MB, ample for every level of the knapsack
// searches, which reach 22 levels.
const keepFloats = 1 << 19

// row returns constraint row i (i == m is the reduced-cost row), RHS
// included.
func (t *tableau) row(i int) []float64 { return t.a[i*t.w : (i+1)*t.w : (i+1)*t.w] }

// reset shapes the tableau as m constraint rows over n columns, all zero,
// reusing its storage when it is large enough. Storage grows to twice the
// size asked for, since branch & bound asks for a row and a column or two
// more with every level it descends.
func (t *tableau) reset(m, n, nv, art int) {
	t.m, t.n, t.nv, t.art, t.artEnd, t.w, t.pivots = m, n, nv, art, n, n+1, 0
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
	t.m, t.n, t.nv, t.art, t.artEnd, t.w, t.pivots = base.m, base.n, base.nv, base.art, base.artEnd, base.w, 0
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
	return t.solution(objective)
}

// solution extracts the optimum of an optimal tableau: the basic decision
// variables' values, and the objective priced from them.
func (t *tableau) solution(objective []float64) Solution {
	nv := t.nv
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

// Keep stores a copy of the tableau of the workspace's last Solve or
// SolveObjective as the optimum at the given depth of a depth-first
// search, the parent Branch re-optimises that node's children from.
func (ws *Workspace) Keep(depth int) {
	ws.level(depth).load(&ws.t)
}

// level returns the level tableau at the given depth, adding levels as
// needed.
func (ws *Workspace) level(depth int) *tableau {
	for len(ws.levels) <= depth {
		ws.levels = append(ws.levels, tableau{})
	}
	return &ws.levels[depth]
}

// Branch re-optimises a branch & bound child by dual simplex. The child is
// the optimum kept at depth-1 (by Keep or an earlier Branch) with one more
// bound row, x_v ≤ rhs (LE) or x_v ≥ rhs (GE); the parent level must hold
// an optimal tableau. The row is appended with its own slack column and
// expressed in the parent's basis, which leaves the reduced costs dual
// feasible, so dual simplex only has to restore the right-hand sides. The
// child's tableau becomes the level at depth, for its own children.
//
// unique reports that a cold Solve of the child's program could return
// nothing else: the child is infeasible, or its optimum is dual
// nondegenerate (every nonbasic, non-artificial column has a reduced cost
// below −eps), so no other vertex attains it. Otherwise — an optimum that
// may have ties, or a dual phase at its iteration cap — a caller that
// needs Solve's exact answer must solve the child cold.
func (ws *Workspace) Branch(depth, v int, rel Rel, rhs float64, objective []float64) (sol Solution, unique bool) {
	mSolvesDual.Inc()
	t := ws.level(depth)
	t.extend(&ws.levels[depth-1], v, rel, rhs)
	st := t.dualIterate()
	if st == Optimal {
		// Dual simplex keeps every reduced cost within eps of feasible;
		// primal simplex settles any that drifted, normally in no pivots.
		st = t.iterate()
	}
	mPivotsDual.Add(uint64(t.pivots))
	switch st {
	case Optimal:
		return t.solution(objective), t.unique()
	case Infeasible:
		return Solution{Status: st}, true
	}
	return Solution{Status: st}, false
}

// Trim releases the deepest levels until the workspace keeps at most
// keepFloats tableau entries across them, so a pooled workspace does not
// carry one unusually large search's levels into every later one.
func (ws *Workspace) Trim() {
	total := 0
	for i := range ws.levels {
		total += cap(ws.levels[i].a)
		if total > keepFloats {
			clear(ws.levels[i:])
			ws.levels = ws.levels[:i]
			return
		}
	}
}

// extend shapes t as parent plus the bound row x_v rel rhs and its slack
// column, appended after every column of the parent. The row is written
// in the parent's basis: when x_v is basic, its row (times the bound's
// sign) is subtracted, so the new slack is the row's basic variable and
// the right-hand side the bound's violation, negative when violated.
func (t *tableau) extend(parent *tableau, v int, rel Rel, rhs float64) {
	pm, pn := parent.m, parent.n
	m, n := pm+1, pn+1
	t.m, t.n, t.nv, t.art, t.artEnd, t.w, t.pivots = m, n, parent.nv, parent.art, parent.artEnd, n+1, 0
	size := (m + 1) * (n + 1)
	if cap(t.a) < size {
		t.a = make([]float64, size)
	}
	t.a = t.a[:size]
	// The parent's rows keep their places, the reduced-cost row moves
	// below the new row, and every row gains a zero in the new column.
	for i := 0; i <= pm; i++ {
		dst := i
		if i == pm {
			dst = m
		}
		src, r := parent.row(i), t.row(dst)
		copy(r[:pn], src[:pn])
		r[pn] = 0
		r[n] = src[pn]
	}
	t.basis = append(append(t.basis[:0], parent.basis...), pn)

	sign := 1.0
	if rel == GE { // x_v ≥ rhs as −x_v + s = −rhs
		sign = -1
	} else if rel != LE {
		panic("lp: Branch takes an LE or GE bound row")
	}
	r := t.row(pm)
	k := slices.Index(parent.basis, v)
	if k < 0 { // x_v is nonbasic, zero: the row is already in the basis
		clear(r)
		r[v] = sign
		r[n] = sign * rhs
	} else {
		src := t.row(k)
		for j, a := range src {
			r[j] = -sign * a
		}
		r[v] = 0
		r[n] = sign * (rhs - src[n])
	}
	r[pn] = 1
}

// dualIterate runs dual simplex on a dual-feasible tableau until its
// right-hand sides are feasible (Optimal) or a row proves the program
// infeasible. Bland's rule carries over: the leaving row is the violated
// one whose basic variable has the smallest index, and ratio ties enter
// the smallest column.
func (t *tableau) dualIterate() Status {
	obj := t.row(t.m)
	for iter := 0; ; iter++ {
		if iter > iterationCap {
			return IterationLimit
		}
		row := -1
		for i, k := 0, t.n; i < t.m; i, k = i+1, k+t.w {
			if t.a[k] < -eps && (row < 0 || t.basis[i] < t.basis[row]) {
				row = i
			}
		}
		if row < 0 {
			return Optimal
		}
		col := -1
		best := math.Inf(1)
		for j, v := range t.row(row)[:t.n] {
			if v < -eps {
				if ratio := obj[j] / v; ratio < best-eps {
					best = ratio
					col = j
				}
			}
		}
		if col < 0 {
			return Infeasible // the row's basic variable cannot rise to zero
		}
		t.pivot(row, col)
	}
}

// unique reports that an optimal tableau's optimum is dual nondegenerate:
// no nonbasic column outside the artificial range has a reduced cost
// within eps of zero. Basic columns are exact unit columns with a zero
// reduced cost, so it suffices that the columns with reduced costs of
// -eps or more are exactly the basic non-artificial ones.
func (t *tableau) unique() bool {
	basic := 0
	for _, b := range t.basis {
		if b < t.art || b >= t.artEnd {
			basic++
		}
	}
	zero := 0
	for j, v := range t.row(t.m)[:t.n] {
		if v >= -eps && (j < t.art || j >= t.artEnd) {
			zero++
		}
	}
	return zero == basic
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
