package alloc

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"repro/internal/energy"
	"repro/internal/pipeline"
	"repro/internal/wcet"
)

// Budgeted is one point of the energy/WCET Pareto front as a
// pipeline.Allocator: the ε-constraint solve that maximises energy benefit
// on the typical input subject to a budget on the *certified* WCET bound.
// The witness provides a linear model of the bound, the ILP solves the
// bi-objective knapsack, a full re-analysis certifies the result, and the
// loop refines the witness until a certified allocation fits the budget.
// When the placements repeat or DefaultMaxIter is hit, the fallback —
// Directed under the same model, which meets every budget the Pareto scan
// asks for — is used.
//
// Going through pipeline.Allocate gives every point the standard solve
// memoization: the ConfigKey embeds the budget, so a warm store serves a
// whole Pareto sweep without re-solving anything.
type Budgeted struct {
	// Budget is the certified-WCET bound the allocation must stay within.
	Budget uint64
	// Model prices the energy objective and identifies it in the key.
	Model energy.Model
}

// fallback is the object-granularity WCET-directed policy whose solve
// anchors every budget (and is shared with the front's WCET endpoint).
func (b Budgeted) fallback() Directed { return Directed{Model: b.Model} }

// ConfigKey identifies the ε-solve's full configuration — budget,
// iteration cap, energy model and the fallback policy's own ConfigKey —
// for solve memoization. The stack and root fields are always empty; they
// stay in the key so that stores written with them remain valid.
func (b Budgeted) ConfigKey() string {
	return fmt.Sprintf("pareto|budget=%d|maxiter=%d|energy=%s|stack=0|root=|fallback=(%s)",
		b.Budget, DefaultMaxIter, b.Model.Key(), b.fallback().ConfigKey())
}

// Allocate runs the ε-constraint loop at one capacity. The returned
// Allocation's Benefit is the energy benefit (nJ per run) of the chosen
// placement; its certified bound is the pipeline's memoized analysis of
// the placement (re-derivable by any caller at zero cost).
func (b Budgeted) Allocate(ctx context.Context, p *pipeline.Pipeline, capacity uint32) (*Allocation, error) {
	prof, err := p.Profile(ctx)
	if err != nil {
		return nil, err
	}
	wopts := wcet.Options{Witness: true}
	base, err := p.AnalyzeUnits(ctx, nil, capacity, nil, wopts)
	if err != nil {
		return nil, err
	}
	eb := EnergyBenefit(b.Model, prof)

	// best tracks the feasible (certified ≤ budget) allocation with the
	// highest energy benefit; ties go to the lexicographically smallest
	// placement so the point is canonical.
	var best *Allocation
	keep := func(inSPM map[string]bool, benefit float64) {
		if best != nil && (benefit < best.Benefit ||
			(benefit == best.Benefit && allocKey(inSPM) >= allocKey(best.InSPM))) {
			return
		}
		var used uint32
		for name, in := range inSPM {
			if in {
				used += AlignedSize(p.Prog.Object(name))
			}
		}
		best = &Allocation{InSPM: inSPM, Benefit: benefit, Used: used}
	}

	fa, err := p.Allocate(ctx, b.fallback(), capacity)
	if err != nil {
		return nil, err
	}
	// The fallback already derived the energy optimum through the same
	// stage, so this is a memo hit.
	ea, err := p.Allocate(ctx, EnergyAllocator{Model: b.Model}, capacity)
	if err != nil {
		return nil, err
	}
	cert, err := p.AnalyzeUnits(ctx, nil, capacity, fa.InSPM, wopts)
	if err != nil {
		return nil, err
	}
	if cert.WCET <= b.Budget {
		keep(fa.InSPM, placementBenefit(p.Prog, eb, fa.InSPM))
	}

	incumbent := &evaluation{inSPM: map[string]bool{}, wcet: base.WCET, witness: base.Witness}
	seen := map[string]bool{allocKey(incumbent.inSPM): true}
	rounds := 0
	converged := false
	for i := 0; i < DefaultMaxIter; i++ {
		items, weights := CandidatesBi(p.Prog, eb, WCETBenefit(incumbent.witness), capacity)
		weightOf := make(map[string]float64, len(items))
		for j, it := range items {
			weightOf[it.Name] = weights[j]
		}
		// The witness models the bound linearly around its own placement:
		// WCET(S) ≈ pseudoBase − Σ_{i∈S} savings_i, where pseudoBase folds
		// the incumbent's already-banked savings back in. The ε-constraint
		// then asks for enough savings to reach the budget. The fold runs
		// over the sorted item list (not incumbent.inSPM's map order) so
		// the float sum — and with it the solve — is bit-reproducible.
		pseudoBase := float64(incumbent.wcet)
		for _, it := range items {
			if incumbent.inSPM[it.Name] {
				pseudoBase += weightOf[it.Name]
			}
		}
		required := pseudoBase - float64(b.Budget)
		// Warm-start from the placements in hand: the one the model is
		// linearised around, the fallback and the energy optimum. A seed
		// only engages when it meets the ε-constraint under the refreshed
		// weights, and the best one that does bounds the search.
		a, err := KnapsackBudget(ctx, items, capacity, weights, required, incumbent.inSPM, fa.InSPM, ea.InSPM)
		if errors.Is(err, ErrInfeasible) {
			break // no subset models within budget: fall back
		}
		if err != nil {
			return nil, err
		}
		key := allocKey(a.InSPM)
		if seen[key] {
			break // the model stopped producing new placements
		}
		seen[key] = true
		cert, err := p.AnalyzeUnits(ctx, nil, capacity, a.InSPM, wopts)
		if err != nil {
			return nil, err
		}
		rounds++
		if cert.WCET <= b.Budget {
			// Certified within budget at the model's energy optimum.
			converged = true
			keep(a.InSPM, a.Benefit)
			break
		}
		// Over budget: the worst path moved. Refine around the certified
		// placement and re-solve.
		incumbent = &evaluation{inSPM: a.InSPM, wcet: cert.WCET, witness: cert.Witness}
	}
	if best == nil {
		return nil, fmt.Errorf("alloc: no allocation certifies within WCET budget %d at capacity %d", b.Budget, capacity)
	}
	best.Iterations = rounds
	best.Converged = converged
	return best, nil
}

// ParetoPoint is one allocation on the energy/WCET Pareto front: a
// placement with its certified worst-case bound and modelled average-case
// energy. Lower is better on both axes; within one front every point is
// mutually non-dominated.
type ParetoPoint struct {
	// Kind records how the point was obtained: "wcet" (the pure
	// WCET-directed endpoint), "energy" (the pure energy-directed
	// endpoint), or "budget" (an ε-constraint point between them).
	Kind string
	// Budget is the ε bound the point was solved under (the endpoints
	// carry their own certified bound).
	Budget uint64
	// InSPM names the objects placed in the scratchpad.
	InSPM map[string]bool
	// Used is the scratchpad occupancy in bytes (alignment-rounded).
	Used uint32
	// WCET is the certified worst-case bound of the placement, from a
	// full re-analysis (never the linear model's estimate).
	WCET uint64
	// EnergyNJ is the modelled energy of the profiled run under the
	// placement (lower is better).
	EnergyNJ float64
	// EnergyBenefit is the energy the placement saves over an empty
	// scratchpad (the knapsack objective; higher is better).
	EnergyBenefit float64
	// Iterations counts the solve→certify rounds the point took and
	// Converged whether its ε-solve certified within budget (endpoints
	// report their own policies' fixpoint figures).
	Iterations int
	Converged  bool
}

// ParetoOptions configures a Pareto-front scan.
type ParetoOptions struct {
	// Adaptive replaces the even ε-step scan with bisection of the largest
	// certified gap (in either normalised objective) between adjacent front
	// points, concentrating solves where the front bends. Endpoints are
	// identical to the even scan's; the front is mutually non-dominated by
	// the same assembly.
	Adaptive bool
	// MaxPoints caps the adaptive front's size, endpoints included: 0
	// means DefaultParetoSteps+1, matching the even scan's maximum, and
	// any other value must be at least 2 (see Validate). Ignored without
	// Adaptive.
	MaxPoints int
}

// Validate rejects a MaxPoints no front can honour: a non-degenerate
// front always keeps both endpoints, so a cap below 2 (other than 0, the
// default) would be silently exceeded.
func (o ParetoOptions) Validate() error {
	if o.MaxPoints != 0 && o.MaxPoints < 2 {
		return fmt.Errorf("maxpoints must be an integer ≥ 2 (0 for the default), got %d", o.MaxPoints)
	}
	return nil
}

// DefaultParetoSteps is the ε-constraint resolution of a front: the even
// scan tries up to DefaultParetoSteps-1 interior budgets.
const DefaultParetoSteps = 8

// ParetoFront computes the energy/WCET Pareto front at one capacity by an
// ε-constraint scan: the endpoints are the pure energy-directed and pure
// WCET-directed allocations (EnergyAllocator and Directed, memoized under
// their usual keys), and the interior maximises energy benefit under a
// stepped budget on the certified WCET bound. Every returned point's bound
// comes from a full re-analysis, and the returned points are mutually
// non-dominated, sorted by ascending WCET (so energy strictly falls along
// the front). When the two endpoints coincide in either objective the
// front degenerates to a single point.
//
// The energy model prices the energy axis (and breaks the WCET endpoint's
// ties). All solves and analyses go through the pipeline's memoized stages,
// so a warm store serves a whole front (endpoints, interior points and
// their certifications) with zero recomputation.
func ParetoFront(ctx context.Context, p *pipeline.Pipeline, capacity uint32, model energy.Model, opts ParetoOptions) ([]ParetoPoint, error) {
	if err := opts.Validate(); err != nil {
		return nil, fmt.Errorf("alloc: pareto: %w", err)
	}
	prof, err := p.Profile(ctx)
	if err != nil {
		return nil, err
	}
	wopts := wcet.Options{Witness: true}
	// The per-placement energy pricing (model evaluation + benefit total)
	// is memoized so re-certified placements — common when several budgets
	// resolve to the same allocation — are priced once.
	eb := EnergyBenefit(model, prof)
	type pricing struct {
		energyNJ, benefit float64
	}
	priced := make(map[string]pricing)
	price := func(inSPM map[string]bool) pricing {
		key := allocKey(inSPM)
		if pr, ok := priced[key]; ok {
			return pr
		}
		pr := pricing{
			energyNJ: model.ProgramEnergy(p.Prog, prof, inSPM),
			benefit:  placementBenefit(p.Prog, eb, inSPM),
		}
		priced[key] = pr
		return pr
	}
	point := func(kind string, budget uint64, a *Allocation) (ParetoPoint, error) {
		cert, err := p.AnalyzeUnits(ctx, nil, capacity, a.InSPM, wopts)
		if err != nil {
			return ParetoPoint{}, err
		}
		pr := price(a.InSPM)
		return ParetoPoint{
			Kind:          kind,
			Budget:        budget,
			InSPM:         a.InSPM,
			Used:          a.Used,
			WCET:          cert.WCET,
			EnergyNJ:      pr.energyNJ,
			EnergyBenefit: pr.benefit,
			Iterations:    a.Iterations,
			Converged:     a.Converged,
		}, nil
	}

	ea, err := p.Allocate(ctx, EnergyAllocator{Model: model}, capacity)
	if err != nil {
		return nil, err
	}
	// The WCET endpoint stays at object granularity: the energy axis is an
	// object-granularity model (fragments are not profiled objects), so
	// every point of one front prices identically.
	wa, err := p.Allocate(ctx, Directed{Model: model}, capacity)
	if err != nil {
		return nil, err
	}
	E, err := point("energy", 0, ea)
	if err != nil {
		return nil, err
	}
	W, err := point("wcet", 0, wa)
	if err != nil {
		return nil, err
	}
	E.Budget, W.Budget = E.WCET, W.WCET
	// The energy endpoint is a static exact solve (no fixpoint), so it is
	// converged by definition; the WCET endpoint keeps its own fixpoint's
	// convergence flag.
	E.Converged = true
	if W.WCET > E.WCET {
		// The fixpoint is seeded with the energy allocation, so its bound
		// can never exceed the seed's.
		return nil, fmt.Errorf("alloc: pareto: WCET endpoint %d above energy endpoint %d", W.WCET, E.WCET)
	}
	if E.WCET == W.WCET {
		// Degenerate front: the energy optimum already has the best
		// certifiable bound (typical once the capacity fits everything
		// hot). One point, canonical placement: the energy optimum.
		E.Budget = E.WCET
		return []ParetoPoint{E}, nil
	}
	if W.EnergyNJ <= E.EnergyNJ {
		// Degenerate the other way: the WCET optimum is also
		// energy-optimal, so the energy endpoint is dominated.
		return []ParetoPoint{W}, nil
	}

	solveBudget := func(budget uint64) (ParetoPoint, error) {
		ba, err := p.Allocate(ctx, Budgeted{Budget: budget, Model: model}, capacity)
		if err != nil {
			return ParetoPoint{}, err
		}
		return point("budget", budget, ba)
	}

	if opts.Adaptive {
		return adaptiveFront(W, E, opts.MaxPoints, solveBudget)
	}

	span := E.WCET - W.WCET
	var budgets []uint64
	seen := map[uint64]bool{W.WCET: true, E.WCET: true}
	for k := 1; k < DefaultParetoSteps; k++ {
		b := W.WCET + span*uint64(k)/uint64(DefaultParetoSteps)
		if !seen[b] {
			seen[b] = true
			budgets = append(budgets, b)
		}
	}
	var interior []ParetoPoint
	for _, budget := range budgets {
		pt, err := solveBudget(budget)
		if err != nil {
			return nil, err
		}
		interior = append(interior, pt)
	}
	return assembleFront(W, E, interior), nil
}

// assembleFront anchors the endpoints and admits interior points only
// strictly inside the endpoints' rectangle and in strictly monotone order —
// which is exactly mutual non-domination.
func assembleFront(W, E ParetoPoint, interior []ParetoPoint) []ParetoPoint {
	interior = append([]ParetoPoint(nil), interior...)
	sort.Slice(interior, func(i, j int) bool {
		if interior[i].WCET != interior[j].WCET {
			return interior[i].WCET < interior[j].WCET
		}
		if interior[i].EnergyNJ != interior[j].EnergyNJ {
			return interior[i].EnergyNJ < interior[j].EnergyNJ
		}
		return interior[i].Budget < interior[j].Budget
	})
	front := []ParetoPoint{W}
	for _, pt := range interior {
		last := front[len(front)-1]
		if pt.WCET <= last.WCET || pt.EnergyNJ >= last.EnergyNJ {
			continue // dominated by (or duplicating) an accepted point
		}
		if pt.WCET >= E.WCET || pt.EnergyNJ <= E.EnergyNJ {
			continue // dominated by (or clashing with) the energy endpoint
		}
		front = append(front, pt)
	}
	return append(front, E)
}

// adaptiveFront refines the front by bisection: each round re-assembles the
// front from the certified points so far, finds the adjacent pair with the
// largest gap in either normalised objective, and solves the ε-constraint
// at that gap's midpoint budget. Solves concentrate where the front bends;
// flat stretches are never subdivided beyond what certification shows. The
// scan stops when the front reaches maxPoints, when no gap spans at least
// two cycles, or when every midpoint budget has already been attempted
// (each round attempts a fresh integer budget, so termination is
// guaranteed). Endpoints are the same W and E the even scan anchors.
func adaptiveFront(W, E ParetoPoint, maxPoints int, solveBudget func(uint64) (ParetoPoint, error)) ([]ParetoPoint, error) {
	if maxPoints == 0 {
		maxPoints = DefaultParetoSteps + 1
	}
	spanW := float64(E.WCET - W.WCET)
	spanE := W.EnergyNJ - E.EnergyNJ
	attempted := map[uint64]bool{W.WCET: true, E.WCET: true}
	var interior []ParetoPoint
	for {
		front := assembleFront(W, E, interior)
		if len(front) >= maxPoints {
			return front, nil
		}
		// Largest normalised gap between adjacent front points; strict >
		// keeps the lowest-WCET pair on ties, so the scan is deterministic.
		bestGap := 0.0
		var lo, hi ParetoPoint
		found := false
		for i := 1; i < len(front); i++ {
			a, b := front[i-1], front[i]
			gap := float64(b.WCET-a.WCET) / spanW
			if spanE > 0 {
				if g := (a.EnergyNJ - b.EnergyNJ) / spanE; g > gap {
					gap = g
				}
			}
			if b.WCET-a.WCET < 2 {
				continue // no integer budget strictly between the pair
			}
			mid := a.WCET + (b.WCET-a.WCET)/2
			if attempted[mid] {
				continue
			}
			if gap > bestGap {
				bestGap, lo, hi, found = gap, a, b, true
			}
		}
		if !found {
			return front, nil
		}
		mid := lo.WCET + (hi.WCET-lo.WCET)/2
		attempted[mid] = true
		pt, err := solveBudget(mid)
		if err != nil {
			return nil, err
		}
		interior = append(interior, pt)
	}
}
