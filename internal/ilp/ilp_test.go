package ilp

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/lp"
)

func approx(a, b float64) bool { return math.Abs(a-b) < 1e-6 }

func TestKnapsackSmall(t *testing.T) {
	// Items (value, weight): (60,10) (100,20) (120,30), capacity 50.
	// Classic optimum: items 2+3 = 220.
	p := &Problem{LP: lp.Problem{NumVars: 3, Objective: []float64{60, 100, 120}}}
	p.LP.AddConstraint([]float64{10, 20, 30}, lp.LE, 50)
	for i := 0; i < 3; i++ {
		u := make([]float64, 3)
		u[i] = 1
		p.LP.AddConstraint(u, lp.LE, 1)
	}
	s, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if !approx(s.Obj, 220) {
		t.Fatalf("obj %g, want 220", s.Obj)
	}
	if !approx(s.X[0], 0) || !approx(s.X[1], 1) || !approx(s.X[2], 1) {
		t.Fatalf("x = %v, want (0,1,1)", s.X)
	}
}

func TestFractionalRelaxationForcedIntegral(t *testing.T) {
	// max x s.t. 2x <= 3, x integral → x = 1 (LP gives 1.5).
	p := &Problem{LP: lp.Problem{NumVars: 1, Objective: []float64{1}}}
	p.LP.AddConstraint([]float64{2}, lp.LE, 3)
	s, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if !approx(s.X[0], 1) {
		t.Fatalf("x = %v, want 1", s.X)
	}
}

func TestMixedInteger(t *testing.T) {
	// max x + y, x integral, y continuous; x <= 2.5, y <= 0.5.
	p := &Problem{
		LP:      lp.Problem{NumVars: 2, Objective: []float64{1, 1}},
		Integer: []bool{true, false},
	}
	p.LP.AddConstraint([]float64{1, 0}, lp.LE, 2.5)
	p.LP.AddConstraint([]float64{0, 1}, lp.LE, 0.5)
	s, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if !approx(s.X[0], 2) || !approx(s.X[1], 0.5) {
		t.Fatalf("x = %v, want (2, 0.5)", s.X)
	}
}

func TestInfeasibleInteger(t *testing.T) {
	// 0.4 <= x <= 0.6 has no integer point.
	p := &Problem{LP: lp.Problem{NumVars: 1, Objective: []float64{1}}}
	p.LP.AddConstraint([]float64{1}, lp.GE, 0.4)
	p.LP.AddConstraint([]float64{1}, lp.LE, 0.6)
	if _, err := Solve(p); err == nil {
		t.Fatal("expected infeasible")
	}
}

// TestPropertyAgainstExhaustiveKnapsack cross-checks branch & bound against
// exhaustive enumeration on random 0/1 knapsacks.
func TestPropertyAgainstExhaustiveKnapsack(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	f := func() bool {
		n := 1 + rng.Intn(10)
		values := make([]float64, n)
		weights := make([]float64, n)
		for i := 0; i < n; i++ {
			values[i] = float64(1 + rng.Intn(100))
			weights[i] = float64(1 + rng.Intn(50))
		}
		capacity := float64(10 + rng.Intn(150))

		p := &Problem{LP: lp.Problem{NumVars: n, Objective: values}}
		p.LP.AddConstraint(weights, lp.LE, capacity)
		for i := 0; i < n; i++ {
			u := make([]float64, n)
			u[i] = 1
			p.LP.AddConstraint(u, lp.LE, 1)
		}
		s, err := Solve(p)
		if err != nil {
			return false
		}
		// Exhaustive optimum.
		best := 0.0
		for mask := 0; mask < 1<<n; mask++ {
			v, w := 0.0, 0.0
			for i := 0; i < n; i++ {
				if mask&(1<<i) != 0 {
					v += values[i]
					w += weights[i]
				}
			}
			if w <= capacity && v > best {
				best = v
			}
		}
		return approx(s.Obj, best)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120, Rand: rng}); err != nil {
		t.Fatal(err)
	}
}

// TestSolveLeavesProgramUntouched: the search assembles its nodes'
// constraint lists in memory of its own. Neither the caller's constraints
// nor the spare capacity behind them may be written, since callers share
// one constraint slice between concurrent solves.
func TestSolveLeavesProgramUntouched(t *testing.T) {
	sentinel := lp.Constraint{Coef: []float64{7}, Rel: lp.EQ, RHS: 7}
	cons := make([]lp.Constraint, 0, 16)
	cons = append(cons,
		lp.Constraint{Coef: []float64{10, 20, 30}, Rel: lp.LE, RHS: 45},
		lp.Constraint{Coef: []float64{1}, Rel: lp.LE, RHS: 1},
		lp.Constraint{Coef: []float64{0, 1}, Rel: lp.LE, RHS: 1},
		lp.Constraint{Coef: []float64{0, 0, 1}, Rel: lp.LE, RHS: 1})
	spare := cons[len(cons):cap(cons)]
	for i := range spare {
		spare[i] = sentinel
	}
	p := &Problem{LP: lp.Problem{NumVars: 3, Objective: []float64{60, 100, 120}, Cons: cons}}
	s, nodes, err := solve(p, Options{})
	if err != nil || nodes < 3 {
		t.Fatalf("solve: %d nodes, err %v; want a search that branches", nodes, err)
	}
	if !approx(s.Obj, 180) {
		t.Fatalf("obj %g, want 180", s.Obj)
	}
	if len(p.LP.Cons) != 4 || p.LP.Cons[0].RHS != 45 || p.LP.Cons[3].Rel != lp.LE {
		t.Fatalf("constraints changed: %v", p.LP.Cons)
	}
	for i, c := range spare {
		if c.Rel != sentinel.Rel || c.RHS != sentinel.RHS || len(c.Coef) != 1 {
			t.Fatalf("spare capacity slot %d overwritten with %v", i, c)
		}
	}
}

// TestConcurrentSolvesShareProgramAndRoot: solves running at once on one
// constraint slice and one prepared root, as the WCET engine's IPET solves
// do, each take their own workspace and match a solve made alone.
func TestConcurrentSolvesShareProgramAndRoot(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	n := 12
	weights := make([]float64, n)
	for i := range weights {
		weights[i] = float64(1 + rng.Intn(40))
	}
	base := lp.Problem{NumVars: n}
	base.AddConstraint(weights, lp.LE, 100)
	for i := 0; i < n; i++ {
		u := make([]float64, n)
		u[i] = 1
		base.AddConstraint(u, lp.LE, 1)
	}
	root := lp.Prepare(&base)
	objectives := make([][]float64, 16)
	want := make([]Solution, len(objectives))
	for k := range objectives {
		objectives[k] = make([]float64, n)
		for i := range objectives[k] {
			objectives[k][i] = float64(1 + rng.Intn(100))
		}
		p := &Problem{LP: lp.Problem{NumVars: n, Objective: objectives[k], Cons: base.Cons}}
		s, err := Solve(p)
		if err != nil {
			t.Fatal(err)
		}
		want[k] = s
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k, obj := range objectives {
				p := &Problem{LP: lp.Problem{NumVars: n, Objective: obj, Cons: base.Cons}}
				s, err := SolveOpts(p, Options{Root: root})
				if err != nil || s.Obj != want[k].Obj || fmt.Sprint(s.X) != fmt.Sprint(want[k].X) {
					t.Errorf("objective %d: %+v (err %v), alone %+v", k, s, err, want[k])
				}
			}
		}()
	}
	wg.Wait()
}
