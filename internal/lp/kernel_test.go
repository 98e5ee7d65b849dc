package lp

import (
	"math"
	"math/rand"
	"testing"
)

// sameFloat reports bitwise equality, counting +0 and -0 as equal: the
// kernel skips the x − f·0 terms of the dense update, which can change
// only the sign of a zero.
func sameFloat(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (a == 0 && b == 0)
}

// diffSolution describes how got differs from want, or returns "".
func diffSolution(got, want Solution) string {
	if got.Status != want.Status {
		return "status " + got.Status.String() + ", reference " + want.Status.String()
	}
	if len(got.X) != len(want.X) {
		return "solution lengths differ"
	}
	for j := range got.X {
		if !sameFloat(got.X[j], want.X[j]) {
			return "x differs from the reference"
		}
	}
	if !sameFloat(got.Obj, want.Obj) {
		return "objective differs from the reference"
	}
	return ""
}

// counted runs f and returns the cold and warm pivots it added to the
// process-wide counters: exactly what the solver's metrics report.
func counted(f func()) (cold, warm int) {
	c0, w0 := mPivotsCold.Value(), mPivotsWarm.Value()
	f()
	return int(mPivotsCold.Value() - c0), int(mPivotsWarm.Value() - w0)
}

// checkAgainstReference holds Solve and Prepare+SolveObjective (under p's
// objective and under alt) to the reference tableau: equal status,
// bitwise-equal solutions and equal pivot counts.
func checkAgainstReference(t *testing.T, name string, p *Problem, alt []float64) {
	t.Helper()
	var got Solution
	cold, _ := counted(func() { got = Solve(p) })
	want, wantPivots := refSolve(p)
	if d := diffSolution(got, want); d != "" {
		t.Fatalf("%s: Solve: %s\ngot  %+v\nwant %+v\n%v", name, d, got, want, p)
	}
	if cold != wantPivots {
		t.Fatalf("%s: Solve: %d pivots, reference %d\n%v", name, cold, wantPivots, p)
	}

	var pr *Prepared
	cold, _ = counted(func() { pr = Prepare(p) })
	rp := refPrepare(p)
	if pr.status != rp.status || cold != rp.pivots {
		t.Fatalf("%s: Prepare: status %v after %d pivots, reference %v after %d\n%v",
			name, pr.status, cold, rp.status, rp.pivots, p)
	}
	var ws Workspace
	for _, obj := range [][]float64{p.Objective, alt, p.Objective} {
		var got Solution
		_, warm := counted(func() { got = ws.SolveObjective(pr, obj) })
		want, wantPivots := rp.solveObjective(obj)
		if d := diffSolution(got, want); d != "" {
			t.Fatalf("%s: SolveObjective(%v): %s\ngot  %+v\nwant %+v\n%v", name, obj, d, got, want, p)
		}
		if warm != wantPivots {
			t.Fatalf("%s: SolveObjective(%v): %d pivots, reference %d\n%v", name, obj, warm, wantPivots, p)
		}
	}
}

// randomLP draws a small LP over every relation, with negative right-hand
// sides, short coefficient rows and no bounding row, so that infeasible
// and unbounded programs occur alongside optimal ones.
func randomLP(rng *rand.Rand) *Problem {
	nv := 1 + rng.Intn(6)
	p := &Problem{NumVars: nv, Objective: randomVec(rng, nv, 10)}
	rels := []Rel{LE, LE, LE, GE, GE, EQ}
	for c := rng.Intn(8); c > 0; c-- {
		width := nv
		if rng.Intn(4) == 0 {
			width = rng.Intn(nv)
		}
		p.AddConstraint(randomVec(rng, width, 5), rels[rng.Intn(len(rels))], float64(rng.Intn(31)-5))
	}
	return p
}

// randomVec draws n small integers in [-k, k], a third of them halved.
func randomVec(rng *rand.Rand, n, k int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = float64(rng.Intn(2*k+1) - k)
		if rng.Intn(3) == 0 {
			v[i] /= 2
		}
	}
	return v
}

// epsilonKnapsack draws the relaxation of an ε-constrained 0/1 knapsack
// (internal/alloc's budget knapsack): maximise benefit subject to a
// capacity row, Σ weight·y ≥ minWeight and y ≤ 1 per item.
func epsilonKnapsack(rng *rand.Rand) *Problem {
	n := 2 + rng.Intn(12)
	p := &Problem{NumVars: n, Objective: make([]float64, n)}
	sizes := make([]float64, n)
	weights := make([]float64, n)
	var totalSize, totalWeight float64
	for i := 0; i < n; i++ {
		p.Objective[i] = math.Round(rng.Float64()*1e5) / 100
		sizes[i] = float64(4 * (1 + rng.Intn(128)))
		if rng.Intn(4) > 0 {
			weights[i] = float64(rng.Intn(5000))
		}
		totalSize += sizes[i]
		totalWeight += weights[i]
	}
	p.AddConstraint(sizes, LE, math.Floor(totalSize*rng.Float64()))
	p.AddConstraint(weights, GE, math.Floor(totalWeight*rng.Float64()*0.8))
	for i := 0; i < n; i++ {
		u := make([]float64, n)
		u[i] = 1
		p.AddConstraint(u, LE, 1)
	}
	return p
}

// ipetProgram draws an IPET-shaped program (internal/wcet's): a random
// structured control-flow graph of blocks, diamonds and bounded loops,
// with one variable per block and per edge, flow-conservation equalities,
// loop-bound rows, block costs and taken-branch penalties on some edges.
func ipetProgram(rng *rand.Rand) *Problem {
	g := &flowGraph{rng: rng}
	entry := g.block()
	g.region(entry, 0)
	nb := g.nb
	n := nb + len(g.edges)
	p := &Problem{NumVars: n, Objective: make([]float64, n)}
	for b := 0; b < nb; b++ {
		p.Objective[b] = float64(1 + rng.Intn(50))
		in, out := make([]float64, n), make([]float64, n)
		in[b], out[b] = 1, 1
		succs := 0
		for e, ft := range g.edges {
			if ft[1] == b {
				in[nb+e]--
			}
			if ft[0] == b {
				out[nb+e]--
				succs++
			}
		}
		rhs := 0.0
		if b == entry {
			rhs = 1
		}
		p.AddConstraint(in, EQ, rhs)
		if succs > 0 {
			p.AddConstraint(out, EQ, 0)
		}
	}
	for e := range g.edges {
		if rng.Intn(3) == 0 {
			p.Objective[nb+e] = 2
		}
	}
	for _, l := range g.loops {
		row := make([]float64, n)
		row[nb+l.back] = 1
		row[nb+l.entry] = -l.bound
		p.AddConstraint(row, LE, 0)
	}
	return p
}

// flowGraph builds a random structured control-flow graph.
type flowGraph struct {
	rng   *rand.Rand
	nb    int
	edges [][2]int // from, to
	loops []flowLoop
}

// flowLoop is a loop of a flowGraph: its back and entry edges (as edge
// indices) and its iteration bound per entry.
type flowLoop struct {
	back, entry int
	bound       float64
}

func (g *flowGraph) block() int { g.nb++; return g.nb - 1 }

func (g *flowGraph) edge(from, to int) int {
	g.edges = append(g.edges, [2]int{from, to})
	return len(g.edges) - 1
}

// region appends a sequence of constructs after block from and returns
// the last block.
func (g *flowGraph) region(from, depth int) int {
	for k := 1 + g.rng.Intn(3); k > 0; k-- {
		kind := 0
		if depth < 2 {
			kind = g.rng.Intn(3)
		}
		switch kind {
		case 0: // straight-line block
			b := g.block()
			g.edge(from, b)
			from = b
		case 1: // if/else diamond
			then, els := g.block(), g.block()
			g.edge(from, then)
			g.edge(from, els)
			join := g.block()
			g.edge(g.region(then, depth+1), join)
			g.edge(els, join)
			from = join
		case 2: // bounded loop: head, body, back edge, exit
			head := g.block()
			entry := g.edge(from, head)
			body := g.block()
			g.edge(head, body)
			back := g.edge(g.region(body, depth+1), head)
			exit := g.block()
			g.edge(head, exit)
			g.loops = append(g.loops, flowLoop{back, entry, float64(1 + g.rng.Intn(20))})
			from = exit
		}
	}
	return from
}

// withBranchRows appends up to three branch & bound rows, x_i ≤ v or
// x_i ≥ v on a unit coefficient vector as short as internal/ilp's.
func withBranchRows(rng *rand.Rand, p *Problem) *Problem {
	for k := rng.Intn(4); k > 0; k-- {
		i := rng.Intn(p.NumVars)
		u := make([]float64, i+1)
		u[i] = 1
		rel := LE
		if rng.Intn(2) == 0 {
			rel = GE
		}
		p.AddConstraint(u, rel, float64(rng.Intn(3)))
	}
	return p
}

func TestSolveMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	shapes := []struct {
		name  string
		count int
		gen   func(*rand.Rand) *Problem
	}{
		{"random", 3000, randomLP},
		{"epsilon-knapsack", 600, epsilonKnapsack},
		{"ipet", 300, ipetProgram},
	}
	for _, s := range shapes {
		statuses := map[Status]int{}
		for i := 0; i < s.count; i++ {
			p := withBranchRows(rng, s.gen(rng))
			alt := randomVec(rng, p.NumVars, 20)
			checkAgainstReference(t, s.name, p, alt)
			st, _ := refSolve(p)
			statuses[st.Status]++
		}
		t.Logf("%s: %v", s.name, statuses)
		if statuses[Optimal] == 0 {
			t.Errorf("%s: no optimal programs drawn", s.name)
		}
		if s.name == "random" && (statuses[Infeasible] == 0 || statuses[Unbounded] == 0) {
			t.Errorf("random: want infeasible and unbounded programs too, drew %v", statuses)
		}
	}
}

// fuzzProblem decodes arbitrary bytes into a small LP and a second
// objective; missing bytes read as zero.
func fuzzProblem(data []byte) (*Problem, []float64) {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := int(data[0])
		data = data[1:]
		return b
	}
	val := func(k int) float64 {
		b := next()
		v := float64(b%(2*k+1) - k)
		if b&0x80 != 0 {
			v /= 2
		}
		return v
	}
	nv := 1 + next()%6
	p := &Problem{NumVars: nv, Objective: make([]float64, nv)}
	for j := range p.Objective {
		p.Objective[j] = val(10)
	}
	for c := next() % 10; c > 0; c-- {
		coef := make([]float64, next()%(nv+1))
		for j := range coef {
			coef[j] = val(5)
		}
		p.AddConstraint(coef, Rel(next()%3), val(12))
	}
	alt := make([]float64, nv)
	for j := range alt {
		alt[j] = val(10)
	}
	return p, alt
}

// FuzzSolveMatchesReference holds the kernel to the reference tableau on
// arbitrary small programs. The seed corpus in testdata/fuzz replays as
// part of every go test run.
func FuzzSolveMatchesReference(f *testing.F) {
	f.Add([]byte{1, 10, 2, 3, 1, 1, 0, 4})
	f.Fuzz(func(t *testing.T, data []byte) {
		p, alt := fuzzProblem(data)
		checkAgainstReference(t, "fuzz", p, alt)
	})
}

// TestIterationCapIsItsOwnOutcome: a phase that runs into the iteration
// cap reports IterationLimit, in phase 1 as well as phase 2, never
// Unbounded or Infeasible.
func TestIterationCapIsItsOwnOutcome(t *testing.T) {
	defer func(n int) { iterationCap = n }(iterationCap)
	iterationCap = 0 // one pivot per phase

	// Phase 2 needs two pivots: x and y both enter.
	p := &Problem{NumVars: 2, Objective: []float64{1, 1}}
	p.AddConstraint([]float64{1, 0}, LE, 1)
	p.AddConstraint([]float64{0, 1}, LE, 1)
	if s := Solve(p); s.Status != IterationLimit {
		t.Errorf("phase 2: status %v, want %v", s.Status, IterationLimit)
	}
	if s := Prepare(p).SolveObjective(p.Objective); s.Status != IterationLimit {
		t.Errorf("prepared phase 2: status %v, want %v", s.Status, IterationLimit)
	}

	// Phase 1 needs two pivots to drive both artificials out.
	q := &Problem{NumVars: 2, Objective: []float64{-1, -1}}
	q.AddConstraint([]float64{1, 0}, GE, 1)
	q.AddConstraint([]float64{0, 1}, GE, 1)
	if s := Solve(q); s.Status != IterationLimit {
		t.Errorf("phase 1: status %v, want %v", s.Status, IterationLimit)
	}
	if s := Prepare(q).SolveObjective(q.Objective); s.Status != IterationLimit {
		t.Errorf("prepared phase 1: status %v, want %v", s.Status, IterationLimit)
	}

	iterationCap = 50000
	if s := Solve(q); s.Status != Optimal || s.Obj != -2 {
		t.Errorf("uncapped: %+v, want optimal with objective -2", s)
	}
}
