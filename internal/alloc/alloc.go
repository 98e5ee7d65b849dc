// Package alloc is the scratchpad allocator: three concrete policies over
// one candidate builder and one solver function per knapsack problem.
//
//   - EnergyAllocator is the paper's static allocation (Steinke et al.,
//     DATE 2002): one knapsack over the energy the typical-input profile
//     saves, solved by Solve (the exact dynamic-programming knapsack when
//     its table is small, the branch & bound ILP otherwise).
//   - Directed is the WCET-directed allocation: Run's link → analyse →
//     re-solve fixpoint over the worst-case cycles the IPET witness saves,
//     each round a branch & bound Knapsack, seeded with the energy
//     allocation and tie-broken by the energy model. At block granularity
//     hot loop regions become placement units of their own.
//   - Budgeted is one point of the energy/WCET Pareto front (ParetoFront):
//     the ε-constrained KnapsackBudget maximising energy benefit under a
//     certified-WCET budget, falling back to Directed.
//
// Candidates and CandidatesBi turn a program's placement units — whole
// objects, or hot-region fragments of a split program — into knapsack
// items priced by a benefit function (EnergyBenefit, WCETBenefit).
package alloc

import (
	"sort"

	"repro/internal/energy"
	"repro/internal/obj"
	"repro/internal/sim"
	"repro/internal/wcet"
)

// Item is one knapsack candidate: a placement unit (memory object or
// hot-region fragment) with its scratchpad occupancy and the objective
// value of moving it there.
type Item struct {
	Name    string
	Size    uint32
	Benefit float64
}

// AlignedSize over-approximates the scratchpad bytes an object occupies by
// rounding its size up to its alignment. With the uniform word alignment
// the toolchain emits, any chosen set whose AlignedSizes sum within the
// capacity is guaranteed to link; under mixed alignments the sum can miss
// inter-object padding, in which case the linker still rejects an
// overflowing set loudly ("scratchpad overflow") rather than mislinking.
func AlignedSize(o *obj.Object) uint32 {
	return (o.Size() + o.Align - 1) &^ (o.Align - 1)
}

// EnergyBenefit prices a unit by the energy its typical-input accesses
// save per program run when served from the scratchpad — the paper's
// static allocation objective (Steinke knapsack).
func EnergyBenefit(m energy.Model, prof *sim.Profile) func(*obj.Object) float64 {
	return func(o *obj.Object) float64 { return m.ObjectBenefit(prof.ByObject[o.Name]) }
}

// WCETBenefit prices a unit by the worst-case cycles its accesses on the
// witness's worst-case path save per program run when served from the
// scratchpad — the WCET-directed objective.
func WCETBenefit(w *wcet.Witness) func(*obj.Object) float64 {
	return func(o *obj.Object) float64 {
		ac := w.ObjectAccesses[o.Name]
		if ac == nil {
			return 0
		}
		return float64(ac.Saving())
	}
}

// Candidates builds the knapsack items for one program: every placement
// unit with a positive benefit that individually fits the capacity, in
// deterministic (name) order. The program's objects are the units, so a
// split program (hot-region fragments included) yields block-granularity
// items from the same code path.
func Candidates(prog *obj.Program, benefit func(*obj.Object) float64, capacity uint32) []Item {
	var items []Item
	for _, o := range prog.Objects {
		b := benefit(o)
		if b <= 0 {
			continue
		}
		sz := AlignedSize(o)
		if sz == 0 || sz > capacity {
			continue
		}
		items = append(items, Item{Name: o.Name, Size: sz, Benefit: b})
	}
	sort.Slice(items, func(i, j int) bool { return items[i].Name < items[j].Name })
	return items
}

// CandidatesBi builds the bi-objective candidate list for ε-constraint
// solves: items are priced by the primary benefit and weighted by the
// secondary, and a unit is admitted when either prices it positive (a unit
// worthless on the typical input can still be the one that buys down the
// worst-case bound). weights[i] is the secondary value of items[i].
func CandidatesBi(prog *obj.Program, primary, secondary func(*obj.Object) float64, capacity uint32) ([]Item, []float64) {
	var items []Item
	var weights []float64
	for _, o := range prog.Objects {
		b := primary(o)
		w := secondary(o)
		if b <= 0 && w <= 0 {
			continue
		}
		sz := AlignedSize(o)
		if sz == 0 || sz > capacity {
			continue
		}
		if b < 0 {
			b = 0
		}
		if w < 0 {
			w = 0
		}
		items = append(items, Item{Name: o.Name, Size: sz, Benefit: b})
		weights = append(weights, w)
	}
	order := make([]int, len(items))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(i, j int) bool { return items[order[i]].Name < items[order[j]].Name })
	sortedItems := make([]Item, len(items))
	sortedWeights := make([]float64, len(items))
	for i, idx := range order {
		sortedItems[i] = items[idx]
		sortedWeights[i] = weights[idx]
	}
	return sortedItems, sortedWeights
}

// placementBenefit totals the benefit of one placement. The sum runs in
// sorted name order: float addition is not associative, so summing in map
// iteration order would make the reported benefit differ in the last ulp
// between runs.
func placementBenefit(prog *obj.Program, benefit func(*obj.Object) float64, inSPM map[string]bool) float64 {
	names := make([]string, 0, len(inSPM))
	for name, in := range inSPM {
		if in {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	var total float64
	for _, name := range names {
		if o := prog.Object(name); o != nil {
			if b := benefit(o); b > 0 {
				total += b
			}
		}
	}
	return total
}
