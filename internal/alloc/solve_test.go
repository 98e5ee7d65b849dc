package alloc

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// items with tie-free benefits so every solver has a unique optimum.
var testItems = []Item{
	{Name: "a", Size: 12, Benefit: 30},
	{Name: "b", Size: 8, Benefit: 21},
	{Name: "c", Size: 20, Benefit: 44},
	{Name: "d", Size: 4, Benefit: 9.5},
	{Name: "e", Size: 16, Benefit: 33},
	{Name: "f", Size: 24, Benefit: 50},
	{Name: "g", Size: 8, Benefit: 17},
}

// bruteForce enumerates every subset: max benefit subject to the capacity
// and (when weights != nil) the ε-constraint Σ weight ≥ minWeight.
// Returns -Inf benefit when no subset is feasible.
func bruteForce(items []Item, capacity uint32, weights []float64, minWeight float64) float64 {
	best := math.Inf(-1)
	for mask := 0; mask < 1<<len(items); mask++ {
		var size uint32
		var benefit, weight float64
		for i, it := range items {
			if mask&(1<<i) != 0 {
				size += it.Size
				benefit += it.Benefit
				if weights != nil {
					weight += weights[i]
				}
			}
		}
		if size > capacity || (weights != nil && weight < minWeight) {
			continue
		}
		if benefit > best {
			best = benefit
		}
	}
	return best
}

// TestSolversAgree: the branch & bound ILP (cold, and warm-started from
// another solver's optimum), the exact DP and the auto front-end all find
// the brute-force optimum at every capacity.
func TestSolversAgree(t *testing.T) {
	ctx := context.Background()
	for capacity := uint32(0); capacity <= 100; capacity += 4 {
		want := bruteForce(testItems, capacity, nil, 0)
		dp, err := KnapsackDP(ctx, testItems, capacity)
		if err != nil {
			t.Fatalf("cap %d dp: %v", capacity, err)
		}
		for _, s := range []struct {
			name  string
			solve func() (*Allocation, error)
		}{
			{"auto", func() (*Allocation, error) { return Solve(ctx, testItems, capacity) }},
			{"ilp", func() (*Allocation, error) { return Knapsack(ctx, testItems, capacity) }},
			{"ilp-seeded", func() (*Allocation, error) { return Knapsack(ctx, testItems, capacity, dp.InSPM) }},
			{"dp", func() (*Allocation, error) { return dp, nil }},
		} {
			a, err := s.solve()
			if err != nil {
				t.Fatalf("cap %d solver %s: %v", capacity, s.name, err)
			}
			if math.Abs(a.Benefit-want) > 1e-9 {
				t.Errorf("cap %d solver %s: benefit %v, brute force %v", capacity, s.name, a.Benefit, want)
			}
			var used uint32
			for i, it := range testItems {
				if a.InSPM[it.Name] {
					used += testItems[i].Size
				}
			}
			if used > capacity {
				t.Errorf("cap %d solver %s: overfull (%d bytes)", capacity, s.name, used)
			}
		}
	}
}

// TestKnapsackBudget: the ε-constrained solve maximises the primary
// objective among subsets meeting the secondary-weight floor, and reports
// infeasibility distinctly.
func TestKnapsackBudget(t *testing.T) {
	weights := []float64{5, 12, 7, 20, 3, 9, 14}
	for _, tc := range []struct {
		capacity  uint32
		minWeight float64
	}{
		{40, 0}, {40, 15}, {40, 30}, {60, 45}, {100, 70}, {24, 25},
	} {
		want := bruteForce(testItems, tc.capacity, weights, tc.minWeight)
		a, err := KnapsackBudget(context.Background(), testItems, tc.capacity, weights, tc.minWeight)
		if math.IsInf(want, -1) {
			if !errors.Is(err, ErrInfeasible) {
				t.Errorf("cap %d min %v: want ErrInfeasible, got %v (alloc %+v)", tc.capacity, tc.minWeight, err, a)
			}
			continue
		}
		if err != nil {
			t.Fatalf("cap %d min %v: %v", tc.capacity, tc.minWeight, err)
		}
		if math.Abs(a.Benefit-want) > 1e-9 {
			t.Errorf("cap %d min %v: benefit %v, brute force %v", tc.capacity, tc.minWeight, a.Benefit, want)
		}
		var weight float64
		var used uint32
		for i, it := range testItems {
			if a.InSPM[it.Name] {
				weight += weights[i]
				used += it.Size
			}
		}
		if weight < tc.minWeight {
			t.Errorf("cap %d min %v: constraint violated (weight %v)", tc.capacity, tc.minWeight, weight)
		}
		if used > tc.capacity {
			t.Errorf("cap %d min %v: overfull (%d bytes)", tc.capacity, tc.minWeight, used)
		}
	}
	// No items at a positive floor is infeasible, not an empty solution.
	if _, err := KnapsackBudget(context.Background(), nil, 64, nil, 1); !errors.Is(err, ErrInfeasible) {
		t.Errorf("empty items: want ErrInfeasible, got %v", err)
	}
}

// TestKnapsackBudgetNoFloor: a non-positive floor degenerates to the
// plain knapsack (the auto solver path).
func TestKnapsackBudgetNoFloor(t *testing.T) {
	weights := make([]float64, len(testItems))
	a, err := KnapsackBudget(context.Background(), testItems, 48, weights, 0)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := Solve(context.Background(), testItems, 48)
	if err != nil {
		t.Fatal(err)
	}
	if a.Benefit != plain.Benefit {
		t.Errorf("no-floor budget solve benefit %v, plain %v", a.Benefit, plain.Benefit)
	}
}

// TestKnapsackBudgetSeedsChangeNothing: on random ε-constrained knapsacks,
// seeding the search with random placements — ones that fit and meet the
// floor, ones that overflow the capacity or miss the floor, and the
// unseeded optimum itself — returns exactly the unseeded answer: the same
// error, placement and benefit bits. Small integral benefits make tied
// optima common.
func TestKnapsackBudgetSeedsChangeNothing(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(1))
	engaged, ignored := 0, 0
	for trial := 0; trial < 300; trial++ {
		n := 4 + rng.Intn(9)
		items := make([]Item, n)
		weights := make([]float64, n)
		var total uint32
		for i := range items {
			items[i] = Item{Name: fmt.Sprintf("o%02d", i), Size: 4 * uint32(1+rng.Intn(8))}
			if trial%2 == 0 {
				items[i].Benefit = float64(1 + rng.Intn(6))
				weights[i] = float64(rng.Intn(5))
			} else {
				items[i].Benefit = 100 * rng.Float64()
				weights[i] = 50 * rng.Float64()
			}
			total += items[i].Size
		}
		capacity := uint32(rng.Intn(int(total) + 1))
		var wsum float64
		for _, w := range weights {
			wsum += w
		}
		minWeight := wsum * rng.Float64() * 0.8
		want, wantErr := KnapsackBudget(ctx, items, capacity, weights, minWeight)
		seeds := []map[string]bool{nil, {}}
		for k := 0; k < 6; k++ {
			seed := map[string]bool{}
			for _, it := range items {
				if rng.Intn(3) == 0 {
					seed[it.Name] = true
				}
			}
			seeds = append(seeds, seed)
		}
		if want != nil {
			seeds = append(seeds, want.InSPM)
		}
		for k := range seeds {
			if seedOptions(items, capacity, weights, minWeight, seeds[k:k+1]).HasIncumbent {
				engaged++
			} else {
				ignored++
			}
			for _, set := range [][]map[string]bool{seeds[k : k+1], seeds[:k+1]} {
				got, err := KnapsackBudget(ctx, items, capacity, weights, minWeight, set...)
				if fmt.Sprint(err) != fmt.Sprint(wantErr) {
					t.Fatalf("trial %d seeds %v: error %v, unseeded %v", trial, set, err, wantErr)
				}
				if err == nil && (!reflect.DeepEqual(got.InSPM, want.InSPM) || got.Benefit != want.Benefit || got.Used != want.Used) {
					t.Fatalf("trial %d seeds %v: %+v, unseeded %+v", trial, set, got, want)
				}
			}
		}
	}
	t.Logf("%d seeds engaged, %d ignored", engaged, ignored)
	if engaged == 0 || ignored == 0 {
		t.Fatalf("%d seeds engaged and %d were ignored; want both", engaged, ignored)
	}
}

// TestParseGranularity: round trip and rejection.
func TestParseGranularity(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Granularity
	}{{"object", GranObject}, {"", GranObject}, {"block", GranBlock}} {
		g, err := ParseGranularity(tc.in)
		if err != nil || g != tc.want {
			t.Errorf("ParseGranularity(%q) = %v, %v", tc.in, g, err)
		}
	}
	if _, err := ParseGranularity("word"); err == nil {
		t.Error("ParseGranularity accepted an unknown granularity")
	}
}
