package lp

import (
	"math"
	"math/rand"
	"testing"
)

// maxPath bounds the search depth checkBranch descends to; the knapsack
// searches of the benchmarks reach 22 levels.
const maxPath = 24

// branchOutcomes tallies what checkBranch saw, so tests can require that
// every kind of dual re-optimisation occurred.
type branchOutcomes struct {
	unique, degenerate, infeasible int
}

// checkBranch solves p cold, then applies the bound rows path encodes one
// after another, each a child of the last, re-optimising every child with
// Branch from its parent's tableau and comparing it with a cold Solve of
// the program with every row so far appended. The statuses must be
// equal and the objectives agree within 1e-6; so must the solutions,
// unless Branch reports the optimum may not be unique.
//
// path holds two bytes per row. The first picks the variable (modulo the
// variable count) and, by its high bit, the relation: LE or GE. The
// second's high bit rounds the variable's value in the parent's optimum
// down (LE) or up (GE), as branch & bound does; otherwise its low bits
// pick a right-hand side in {-1, -0.5, …, 2.5}. Rows past maxPath are
// ignored, which bounds the cold solves a long path costs.
func checkBranch(t *testing.T, p *Problem, path []byte, seen *branchOutcomes) {
	t.Helper()
	if len(path) > 2*maxPath {
		path = path[:2*maxPath]
	}
	var ws Workspace
	parent := ws.Solve(p)
	if parent.Status != Optimal {
		return
	}
	ws.Keep(0)
	q := &Problem{NumVars: p.NumVars, Objective: p.Objective, Cons: append([]Constraint(nil), p.Cons...)}
	for d := 1; 2*d <= len(path); d++ {
		b0, b1 := path[2*d-2], path[2*d-1]
		v := int(b0) % p.NumVars
		rel := LE
		if b0&0x80 != 0 {
			rel = GE
		}
		rhs := float64(int(b1%8)-2) / 2
		if b1&0x80 != 0 {
			if rhs = math.Floor(parent.X[v]); rel == GE {
				rhs = math.Ceil(parent.X[v])
			}
		}
		u := make([]float64, v+1)
		u[v] = 1
		q.AddConstraint(u, rel, rhs)

		got, unique := ws.Branch(d, v, rel, rhs, p.Objective)
		want := Solve(q)
		if got.Status != want.Status {
			t.Fatalf("depth %d: Branch status %v, Solve %v\n%v", d, got.Status, want.Status, q)
		}
		if got.Status != Optimal {
			seen.infeasible++
			return
		}
		if math.Abs(got.Obj-want.Obj) > 1e-6 {
			t.Fatalf("depth %d: Branch objective %v, Solve %v\n%v", d, got.Obj, want.Obj, q)
		}
		if !unique {
			seen.degenerate++
		} else {
			seen.unique++
			for j := range got.X {
				if math.Abs(got.X[j]-want.X[j]) > 1e-6 {
					t.Fatalf("depth %d: Branch x %v, Solve %v at a unique optimum\n%v", d, got.X, want.X, q)
				}
			}
		}
		parent = got
	}
}

// TestBranchMatchesSolve holds dual re-optimisation to cold solves on
// random LPs, ε-knapsacks and IPET programs under random paths of bound
// rows, which must between them produce unique and degenerate optima and
// infeasible children.
func TestBranchMatchesSolve(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	shapes := []struct {
		name  string
		count int
		gen   func(*rand.Rand) *Problem
	}{
		{"random", 3000, randomLP},
		{"epsilon-knapsack", 1000, epsilonKnapsack},
		{"ipet", 300, ipetProgram},
	}
	var all branchOutcomes
	for _, s := range shapes {
		var seen branchOutcomes
		for i := 0; i < s.count; i++ {
			p := s.gen(rng)
			path := make([]byte, 2*(1+rng.Intn(8)))
			rng.Read(path)
			checkBranch(t, p, path, &seen)
		}
		t.Logf("%s: %+v", s.name, seen)
		all.unique += seen.unique
		all.degenerate += seen.degenerate
		all.infeasible += seen.infeasible
	}
	if all.unique == 0 || all.degenerate == 0 || all.infeasible == 0 {
		t.Errorf("want unique, degenerate and infeasible children, saw %+v", all)
	}
}

// FuzzBranchMatchesSolve is checkBranch on arbitrary programs and paths: a
// nonzero seed draws an ε-knapsack (data is then unused), a zero seed
// decodes data with fuzzProblem. The seed corpus in testdata/fuzz replays
// as part of every go test run.
func FuzzBranchMatchesSolve(f *testing.F) {
	f.Add(int64(0), []byte{1, 10, 2, 3, 1, 1, 0, 4}, []byte{0, 0x80, 0x80, 0x80})
	f.Add(int64(7), []byte{}, []byte{3, 0x80, 0x85, 0x80, 1, 0x80})
	f.Fuzz(func(t *testing.T, seed int64, data, path []byte) {
		var p *Problem
		if seed != 0 {
			p = epsilonKnapsack(rand.New(rand.NewSource(seed)))
		} else {
			p, _ = fuzzProblem(data)
		}
		checkBranch(t, p, path, new(branchOutcomes))
	})
}
