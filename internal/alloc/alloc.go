// Package alloc is the unified scratchpad-allocation engine behind every
// allocation policy in the repository. The paper's two objectives — energy
// benefit on the typical input (Steinke et al., DATE 2002) and worst-case
// cycles on the IPET witness (the WCET-directed optimisation) — were
// historically two parallel allocator implementations; this package
// collapses them into one engine with three interchangeable parts:
//
//   - one candidate-item builder (Candidates/CandidatesBi) that turns the
//     program's placement units — whole objects, or hot-region fragments
//     under block granularity — into knapsack items priced by a pluggable
//     Objective mapping profile/witness evidence to benefit;
//   - one solver front-end (SolveItems) selecting between the exact
//     dynamic-programming knapsack and the paper's branch & bound ILP, with
//     an optional ε-constraint for bi-objective solves (KnapsackBudget);
//   - one fixpoint driver (Run) owning seeding, pre-evaluated allocations,
//     tie-breaking, and the link → analyse → re-allocate loop, shared by
//     the energy-directed policy (a static objective: one solve, no
//     analysis), the WCET-directed policy (the witness fixpoint), and the
//     multi-objective ε-constraint mode behind the Pareto-front sweep.
//
// Outputs are byte-identical to the pre-engine implementations
// (golden-asserted in internal/core).
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

// Evidence is the measured behaviour an Objective prices items from: the
// typical-input access profile, the worst-case-path witness, or both. The
// engine collects only the evidence the objective declares it needs.
type Evidence struct {
	// Profile is the typical-input access profile (nil unless the
	// objective needs it).
	Profile *sim.Profile
	// Witness is the worst-case-path witness of the current incumbent
	// allocation (nil unless the objective needs it).
	Witness *wcet.Witness
}

// Objective prices placement units from evidence. It is the knob that
// turns the one engine into the energy-directed allocator, the
// WCET-directed allocator, or any future policy.
type Objective interface {
	// Name identifies the objective ("energy", "wcet").
	Name() string
	// Key canonically identifies the objective's parameters for solve
	// memoization ("" disables it).
	Key() string
	// NeedsProfile reports whether Benefit reads Evidence.Profile.
	NeedsProfile() bool
	// NeedsWitness reports whether Benefit reads Evidence.Witness. A
	// witness-priced objective is iterative: placements move the worst
	// path, so the engine re-analyses and re-solves to a fixpoint. An
	// objective needing neither is static: one solve, no analysis.
	NeedsWitness() bool
	// Benefit prices one placement unit; values <= 0 exclude it.
	Benefit(ev Evidence, o *obj.Object) float64
}

// EnergyObjective prices a unit by the energy its typical-input accesses
// save when served from the scratchpad — the paper's static allocation
// objective (Steinke knapsack).
type EnergyObjective struct {
	Model energy.Model
}

// Name identifies the objective.
func (EnergyObjective) Name() string { return "energy" }

// Key identifies the energy model's parameters.
func (o EnergyObjective) Key() string { return o.Model.Key() }

// NeedsProfile reports that the objective prices from the profile.
func (EnergyObjective) NeedsProfile() bool { return true }

// NeedsWitness reports that the objective is static.
func (EnergyObjective) NeedsWitness() bool { return false }

// Benefit is the energy saved per program run by placing the unit in the
// scratchpad.
func (ob EnergyObjective) Benefit(ev Evidence, o *obj.Object) float64 {
	return ob.Model.ObjectBenefit(ev.Profile.ByObject[o.Name])
}

// WCETObjective prices a unit by the worst-case cycles its witness
// accesses save when served from the scratchpad — the WCET-directed
// objective. It is iterative: the witness moves with the placement.
type WCETObjective struct{}

// Name identifies the objective.
func (WCETObjective) Name() string { return "wcet" }

// Key identifies the objective (it has no parameters beyond the witness,
// which is per-solve evidence, not configuration).
func (WCETObjective) Key() string { return "witness-cycles" }

// NeedsProfile reports that the objective ignores the profile.
func (WCETObjective) NeedsProfile() bool { return false }

// NeedsWitness reports that the objective prices from the witness.
func (WCETObjective) NeedsWitness() bool { return true }

// Benefit is the worst-case cycles saved per program run by placing the
// unit in the scratchpad.
func (WCETObjective) Benefit(ev Evidence, o *obj.Object) float64 {
	ac := ev.Witness.ObjectAccesses[o.Name]
	if ac == nil {
		return 0
	}
	return float64(ac.Saving())
}

// Candidates builds the knapsack items for one program under one
// objective: every placement unit with a positive benefit that
// individually fits the capacity, in deterministic (name) order. It is the
// single candidate builder of the engine — the program's objects are the
// units, so a split program (hot-region fragments included) yields
// block-granularity items from the same code path.
func Candidates(prog *obj.Program, ev Evidence, objective Objective, capacity uint32) []Item {
	var items []Item
	for _, o := range prog.Objects {
		b := objective.Benefit(ev, o)
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
// solves: items are priced by the primary objective and weighted by the
// secondary, and a unit is admitted when either prices it positive (a unit
// worthless on the typical input can still be the one that buys down the
// worst-case bound). weights[i] is the secondary value of items[i].
func CandidatesBi(prog *obj.Program, ev Evidence, primary, secondary Objective, capacity uint32) ([]Item, []float64) {
	var items []Item
	var weights []float64
	for _, o := range prog.Objects {
		b := primary.Benefit(ev, o)
		w := secondary.Benefit(ev, o)
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
