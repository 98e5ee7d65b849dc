package alloc_test

// WCET-directed scratchpad allocation: the witness fixpoint, its knapsack
// solvers, seeding and tie-breaking (block granularity is in
// granularity_test.go).

import (
	"context"
	"fmt"
	"math/bits"
	"reflect"
	"sort"
	"testing"

	"repro/internal/alloc"
	"repro/internal/benchprog"
	"repro/internal/cc"
	"repro/internal/core"
	"repro/internal/obj"
	"repro/internal/pipeline"
	"repro/internal/wcet"
)

// testProgram is a small program with several functions and globals of
// different sizes and access weights, so the knapsack has real choices.
const testProgram = `
int a[64];
int b[16];
int c = 5;

int suma() {
    int s = 0;
    for (int i = 0; i < 64; i += 1) s = s + a[i];
    return s;
}

int sumb() {
    int s = 0;
    for (int i = 0; i < 16; i += 1) s = s + b[i];
    return s;
}

int main() {
    int s = 0;
    for (int k = 0; k < 4; k += 1) s = s + suma() + sumb() + c;
    return s & 7;
}
`

// allocate runs the WCET-directed fixpoint on a private pipeline.
func allocate(ctx context.Context, prog *obj.Program, capacity uint32, opts alloc.Options) (*alloc.Result, error) {
	return allocateIn(ctx, pipeline.New(prog, "", nil), capacity, opts)
}

// allocateIn runs the fixpoint against a shared pipeline.
func allocateIn(ctx context.Context, p *pipeline.Pipeline, capacity uint32, opts alloc.Options) (*alloc.Result, error) {
	return alloc.Run(ctx, p, capacity, opts)
}

// bruteForceKnapsack enumerates every subset (≤ 2^20) and returns the
// maximal total benefit over the feasible ones.
func bruteForceKnapsack(items []alloc.Item, capacity uint32) float64 {
	best := 0.0
	for mask := 0; mask < 1<<len(items); mask++ {
		var size uint32
		benefit := 0.0
		for m := mask; m != 0; m &= m - 1 {
			it := items[bits.TrailingZeros(uint(m))]
			size += it.Size
			benefit += it.Benefit
		}
		if size <= capacity && benefit > best {
			best = benefit
		}
	}
	return best
}

// witnessCandidates returns the candidate lists the fixpoint solves on
// testProgram at one capacity: its items priced by the witness of every
// allocation the loop accepts, baseline first.
func witnessCandidates(t *testing.T, capacity uint32) [][]alloc.Item {
	t.Helper()
	prog, err := cc.Compile(testProgram)
	if err != nil {
		t.Fatal(err)
	}
	p := pipeline.New(prog, "", nil)
	r, err := allocateIn(context.Background(), p, capacity, alloc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var lists [][]alloc.Item
	for _, it := range r.Iterations {
		res, err := p.AnalyzeUnits(context.Background(), nil, capacity, it.InSPM, wcet.Options{Witness: true})
		if err != nil {
			t.Fatal(err)
		}
		lists = append(lists, alloc.Candidates(prog, alloc.WCETBenefit(res.Witness), capacity))
	}
	return lists
}

// TestKnapsackILPvsDPvsBruteForce: the branch & bound ILP, the exact DP
// and the auto front-end must all find a benefit-optimal set, on small
// hand-made sets (ties, exact fits) and on the witness-priced lists the
// fixpoint solves on testProgram.
func TestKnapsackILPvsDPvsBruteForce(t *testing.T) {
	type knapsackCase struct {
		name     string
		items    []alloc.Item
		capacity uint32
	}
	cases := []knapsackCase{
		{"empty", nil, 128},
		{"one-fits", []alloc.Item{{Name: "a", Size: 64, Benefit: 10}}, 64},
		{"classic", []alloc.Item{
			{Name: "a", Size: 24, Benefit: 24},
			{Name: "b", Size: 10, Benefit: 18},
			{Name: "c", Size: 10, Benefit: 18},
			{Name: "d", Size: 7, Benefit: 10},
		}, 25},
		{"ties", []alloc.Item{
			{Name: "a", Size: 8, Benefit: 5},
			{Name: "b", Size: 8, Benefit: 5},
			{Name: "c", Size: 8, Benefit: 5},
		}, 16},
		{"dense", []alloc.Item{
			{Name: "a", Size: 12, Benefit: 4},
			{Name: "b", Size: 1, Benefit: 2},
			{Name: "c", Size: 2, Benefit: 2},
			{Name: "d", Size: 1, Benefit: 1},
			{Name: "e", Size: 4, Benefit: 10},
			{Name: "f", Size: 3, Benefit: 2},
			{Name: "g", Size: 2, Benefit: 1},
		}, 15},
	}
	for _, capacity := range []uint32{64, 128, 512} {
		lists := witnessCandidates(t, capacity)
		if len(lists) == 0 || len(lists[0]) == 0 {
			t.Fatalf("testProgram at %d B: no witness-priced candidates", capacity)
		}
		for i, items := range lists {
			cases = append(cases, knapsackCase{fmt.Sprintf("witness-%dB-iter%d", capacity, i), items, capacity})
		}
	}
	ctx := context.Background()
	for _, tc := range cases {
		want := bruteForceKnapsack(tc.items, tc.capacity)
		ilpA, err := alloc.Knapsack(ctx, tc.items, tc.capacity)
		if err != nil {
			t.Fatalf("%s: ILP: %v", tc.name, err)
		}
		dpA, err := alloc.KnapsackDP(ctx, tc.items, tc.capacity)
		if err != nil {
			t.Fatalf("%s: DP: %v", tc.name, err)
		}
		autoA, err := alloc.Solve(ctx, tc.items, tc.capacity)
		if err != nil {
			t.Fatalf("%s: auto: %v", tc.name, err)
		}
		if ilpA.Benefit != want {
			t.Errorf("%s: ILP benefit %v, brute force %v", tc.name, ilpA.Benefit, want)
		}
		if dpA.Benefit != want {
			t.Errorf("%s: DP benefit %v, brute force %v", tc.name, dpA.Benefit, want)
		}
		if autoA.Benefit != want {
			t.Errorf("%s: auto benefit %v, brute force %v", tc.name, autoA.Benefit, want)
		}
		if ilpA.Used > tc.capacity || dpA.Used > tc.capacity || autoA.Used > tc.capacity {
			t.Errorf("%s: capacity exceeded: ILP %d, DP %d, auto %d > %d", tc.name, ilpA.Used, dpA.Used, autoA.Used, tc.capacity)
		}
	}
}

// TestFixpointTermination: the loop must converge, its accepted trace must
// be monotone non-increasing, and the final allocation must respect the
// capacity and beat the empty-scratchpad baseline.
func TestFixpointTermination(t *testing.T) {
	prog, err := cc.Compile(testProgram)
	if err != nil {
		t.Fatal(err)
	}
	for _, size := range []uint32{64, 256, 1024} {
		r, err := allocate(context.Background(), prog, size, alloc.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !r.Converged {
			t.Errorf("size %d: did not converge within %d iterations", size, alloc.DefaultMaxIter)
		}
		if len(r.Iterations) == 0 || r.Iterations[0].WCET != r.Baseline {
			t.Errorf("size %d: trace must start at the baseline", size)
		}
		prev := r.Iterations[0].WCET
		for i, it := range r.Iterations[1:] {
			if it.WCET > prev {
				t.Errorf("size %d: bound rose at iteration %d: %d > %d", size, i+1, it.WCET, prev)
			}
			prev = it.WCET
		}
		if r.WCET != prev {
			t.Errorf("size %d: result WCET %d != last accepted %d", size, r.WCET, prev)
		}
		if r.WCET > r.Baseline {
			t.Errorf("size %d: bound %d worse than baseline %d", size, r.WCET, r.Baseline)
		}
		if r.Used > size {
			t.Errorf("size %d: allocation uses %d bytes", size, r.Used)
		}
		// Determinism: a second run must reproduce the result.
		r2, err := allocate(context.Background(), prog, size, alloc.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if r2.WCET != r.WCET || len(r2.Iterations) != len(r.Iterations) {
			t.Errorf("size %d: not deterministic: %d/%d vs %d/%d iterations",
				size, r.WCET, len(r.Iterations), r2.WCET, len(r2.Iterations))
		}
	}
}

// TestSeedRejection: seeds naming unknown objects or exceeding the
// capacity are rejected (the run proceeds from the baseline), not errors.
func TestSeedRejection(t *testing.T) {
	prog, err := cc.Compile(testProgram)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := allocate(context.Background(), prog, 128, alloc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	seeded, err := allocate(context.Background(), prog, 128, alloc.Options{
		Seeds: []map[string]bool{
			{"no_such_object": true},
			{"a": true, "suma": true, "sumb": true}, // far beyond 128 bytes
			{"c": false},                            // effectively empty
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if seeded.WCET != plain.WCET {
		t.Errorf("rejected seeds changed the result: %d vs %d", seeded.WCET, plain.WCET)
	}
}

// TestWCETDirectedNotWorseThanEnergy is the headline property: on every
// Table 2 benchmark and every swept capacity, the WCET-directed
// allocation's bound is at most the energy-directed allocation's bound,
// and the loop converges.
func TestWCETDirectedNotWorseThanEnergy(t *testing.T) {
	for _, b := range benchprog.All() {
		lab, err := core.NewLabByName(b.Name)
		if err != nil {
			t.Fatal(err)
		}
		cs, err := lab.SweepWCETAllocation(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range cs {
			if c.WCET.WCET > c.Energy.WCET {
				t.Errorf("%s spm %d: WCET-directed bound %d above energy-directed %d",
					b.Name, c.SPMSize, c.WCET.WCET, c.Energy.WCET)
			}
			if !c.Converged {
				t.Errorf("%s spm %d: fixpoint loop did not converge", b.Name, c.SPMSize)
			}
			t.Logf("%s spm %5d: energy-alloc WCET %9d | wcet-alloc WCET %9d (%d iters)",
				b.Name, c.SPMSize, c.Energy.WCET, c.WCET.WCET, c.Iterations)
		}
	}
}

// symmetricProgram has two arrays with byte-identical access patterns, so
// placing either one yields exactly the same WCET bound — a genuine tie
// for the fixpoint's secondary objective to break.
const symmetricProgram = `
int b1[16];
int b2[16];

int sum1() {
    int s = 0;
    for (int i = 0; i < 16; i += 1) s = s + b1[i];
    return s;
}

int sum2() {
    int s = 0;
    for (int i = 0; i < 16; i += 1) s = s + b2[i];
    return s;
}

int main() {
    int s = 0;
    for (int k = 0; k < 4; k += 1) s = s + sum1() + sum2();
    return s & 7;
}
`

// placementNames canonicalises an allocation set for comparison.
func placementNames(inSPM map[string]bool) []string {
	var names []string
	for n, in := range inSPM {
		if in {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	return names
}

// TestTieBreakPrefersLowerEnergy: among equal-WCET allocations the
// fixpoint must keep the one the energy model prices lower, whichever
// order the candidates arrive in — the reported placement is canonical.
func TestTieBreakPrefersLowerEnergy(t *testing.T) {
	prog, err := cc.Compile(symmetricProgram)
	if err != nil {
		t.Fatal(err)
	}
	// Verify the tie is real: each array alone certifies the same bound.
	only1, err := allocate(context.Background(), prog, 64, alloc.Options{
		Seeds: []map[string]bool{{"b1": true}}, MaxIter: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	only2, err := allocate(context.Background(), prog, 64, alloc.Options{
		Seeds: []map[string]bool{{"b2": true}}, MaxIter: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(only1.Iterations) < 2 || len(only2.Iterations) < 2 {
		t.Fatal("seeds were not accepted")
	}
	if w1, w2 := only1.Iterations[1].WCET, only2.Iterations[1].WCET; w1 != w2 {
		t.Skipf("program not symmetric after all: %d vs %d", w1, w2)
	}

	// An energy model that prices b2 cheaper must canonicalise on b2, in
	// either seed order; pricing b1 cheaper must canonicalise on b1.
	price := func(cheap string) func(map[string]bool) float64 {
		return func(inSPM map[string]bool) float64 {
			e := 100.0
			for n, in := range inSPM {
				if !in {
					continue
				}
				if n == cheap {
					e -= 10
				} else {
					e -= 5
				}
			}
			return e
		}
	}
	for _, tc := range []struct {
		cheap string
		seeds []map[string]bool
	}{
		{"b2", []map[string]bool{{"b1": true}, {"b2": true}}},
		{"b2", []map[string]bool{{"b2": true}, {"b1": true}}},
		{"b1", []map[string]bool{{"b1": true}, {"b2": true}}},
		{"b1", []map[string]bool{{"b2": true}, {"b1": true}}},
	} {
		r, err := allocate(context.Background(), prog, 64, alloc.Options{
			Seeds:   tc.seeds,
			Energy:  price(tc.cheap),
			MaxIter: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		last := r.Iterations[len(r.Iterations)-1]
		if last.WCET == only1.Iterations[1].WCET && !last.InSPM[tc.cheap] {
			t.Errorf("cheap=%s seeds=%v: accepted %v, want the lower-energy placement",
				tc.cheap, tc.seeds, placementNames(last.InSPM))
		}
	}
}

// TestTieBreakDeterministic: with the tie-break in place, repeated runs
// must report byte-identical placements and traces.
func TestTieBreakDeterministic(t *testing.T) {
	prog, err := cc.Compile(symmetricProgram)
	if err != nil {
		t.Fatal(err)
	}
	energy := func(inSPM map[string]bool) float64 {
		e := 0.0
		for n, in := range inSPM {
			if in {
				e -= float64(len(n))
			}
		}
		return e
	}
	var first *alloc.Result
	for i := 0; i < 5; i++ {
		r, err := allocate(context.Background(), prog, 128, alloc.Options{Energy: energy})
		if err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first = r
			continue
		}
		if !reflect.DeepEqual(placementNames(r.InSPM), placementNames(first.InSPM)) ||
			r.WCET != first.WCET || len(r.Iterations) != len(first.Iterations) {
			t.Fatalf("run %d diverged: %v (%d) vs %v (%d)", i,
				placementNames(r.InSPM), r.WCET, placementNames(first.InSPM), first.WCET)
		}
	}
}
