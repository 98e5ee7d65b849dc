package alloc

import (
	"context"
	"fmt"

	"repro/internal/energy"
	"repro/internal/pipeline"
)

// EnergyAllocator is the energy-directed allocation policy as a
// pipeline.Allocator: the Steinke knapsack over the pipeline's memoized
// typical-input profile (one solve, no analysis).
type EnergyAllocator struct {
	Model energy.Model
}

// ConfigKey identifies the policy's configuration for solve memoization:
// the knapsack depends only on the energy model (the profile is a
// per-pipeline artifact, fixed for every solve against that pipeline).
// The "auto" tag records Solve's back-end choice: persisted solves from a
// differently-tie-breaking scheme must not be served for this one.
func (a EnergyAllocator) ConfigKey() string { return "energy|auto|" + a.Model.Key() }

// Allocate solves the energy knapsack at one capacity using the pipeline's
// profile artifact.
func (a EnergyAllocator) Allocate(ctx context.Context, p *pipeline.Pipeline, capacity uint32) (*Allocation, error) {
	prof, err := p.Profile(ctx)
	if err != nil {
		return nil, err
	}
	return Solve(ctx, Candidates(p.Prog, EnergyBenefit(a.Model, prof), capacity), capacity)
}

// Directed is the WCET-directed allocation policy as a pipeline.Allocator:
// Run's witness fixpoint, seeded with the energy allocation under Model
// (so its bound is never worse than the energy policy's) and breaking
// equal-bound ties by Model's energy of the placement.
type Directed struct {
	// Model prices the energy seed and the equal-bound tie-break, and
	// identifies both in the key.
	Model energy.Model
	// Granularity selects whole-object or hot-region placement units.
	Granularity Granularity
}

// ConfigKey identifies the fixpoint's full configuration for solve
// memoization: granularity, iteration cap, tie-break model and the seed
// policy's own ConfigKey. The stack, root and seeds fields are always
// empty; they stay in the key so that stores written with them remain
// valid.
func (d Directed) ConfigKey() string {
	return fmt.Sprintf("wcet|gran=%s|maxiter=%d|energy=%s|stack=0|root=|seeds=|seed=(%s)",
		d.Granularity, DefaultMaxIter, d.Model.Key(), EnergyAllocator{Model: d.Model}.ConfigKey())
}

// Allocate runs the fixpoint against the pipeline and converts the result
// to the shared allocation type; Benefit is the worst-case cycles saved
// over the empty-scratchpad baseline.
func (d Directed) Allocate(ctx context.Context, p *pipeline.Pipeline, capacity uint32) (*Allocation, error) {
	// Through the pipeline's allocation stage, so the seed solve is shared
	// with direct sweeps of the energy policy.
	seed, err := p.Allocate(ctx, EnergyAllocator{Model: d.Model}, capacity)
	if err != nil {
		return nil, err
	}
	prof, err := p.Profile(ctx)
	if err != nil {
		return nil, err
	}
	r, err := Run(ctx, p, capacity, Options{
		Seeds:       []map[string]bool{seed.InSPM},
		Energy:      func(inSPM map[string]bool) float64 { return d.Model.ProgramEnergy(p.Prog, prof, inSPM) },
		Granularity: d.Granularity,
	})
	if err != nil {
		return nil, err
	}
	return &Allocation{
		InSPM:      r.InSPM,
		Benefit:    float64(r.Baseline - r.WCET),
		Used:       r.Used,
		Splits:     r.Splits,
		Iterations: len(r.Iterations),
		Converged:  r.Converged,
	}, nil
}
