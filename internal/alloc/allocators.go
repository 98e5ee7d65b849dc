package alloc

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"repro/internal/energy"
	"repro/internal/pipeline"
)

// EnergyAllocator is the energy-directed allocation policy as a
// pipeline.Allocator: the Steinke knapsack over the pipeline's memoized
// typical-input profile, run through the engine with the static energy
// objective (one solve, no analysis).
type EnergyAllocator struct {
	Model energy.Model
}

// Name identifies the policy.
func (EnergyAllocator) Name() string { return "energy" }

// ConfigKey identifies the policy's configuration for solve memoization:
// the knapsack depends only on the energy model (the profile is a
// per-pipeline artifact, fixed for every solve against that pipeline).
// The "auto" tag records the solver-selection scheme (see SolverAuto):
// persisted solves from a differently-tie-breaking scheme must not be
// served for this one.
func (a EnergyAllocator) ConfigKey() string { return "energy|auto|" + a.Model.Key() }

// Allocate solves the energy knapsack at one capacity using the pipeline's
// profile artifact.
func (a EnergyAllocator) Allocate(ctx context.Context, p *pipeline.Pipeline, capacity uint32) (*Allocation, error) {
	r, err := Run(ctx, p, capacity, EnergyObjective{Model: a.Model}, SolverAuto, Options{})
	if err != nil {
		return nil, err
	}
	return &Allocation{InSPM: r.InSPM, Benefit: r.Benefit, Used: r.Used}, nil
}

// Directed is the WCET-directed allocation policy as a pipeline.Allocator:
// the engine's fixpoint under the witness-priced objective.
type Directed struct {
	Opts Options
	// Seed, when non-nil, supplies an additional seed allocation per
	// capacity (typically the energy policy), so the interface preserves
	// the never-worse-than-seed guarantee the fixpoint gives its seeds.
	Seed pipeline.Allocator
}

// Name identifies the policy.
func (Directed) Name() string { return "wcet" }

// ConfigKey identifies the fixpoint's full configuration — analysis
// options, iteration cap, tie-break model, explicit seeds and the seed
// policy's own ConfigKey — for solve memoization. It returns "",
// disabling memoization, when the configuration cannot be captured: an
// Energy tie-break without an EnergyKey, or an unkeyable seed policy.
func (d Directed) ConfigKey() string {
	o := d.Opts
	if o.Energy != nil && o.EnergyKey == "" {
		return ""
	}
	seedKey := "none"
	if d.Seed != nil {
		if seedKey = d.Seed.ConfigKey(); seedKey == "" {
			return ""
		}
	}
	seeds := make([]string, 0, len(o.Seeds))
	for _, s := range o.Seeds {
		seeds = append(seeds, strings.ReplaceAll(allocKey(s), "\x00", ","))
	}
	sort.Strings(seeds)
	return fmt.Sprintf("wcet|gran=%s|maxiter=%d|energy=%s|stack=%d|root=%s|seeds=%s|seed=(%s)",
		o.Granularity, o.maxIter(), o.EnergyKey, o.WCET.StackBound, o.WCET.Root, strings.Join(seeds, ";"), seedKey)
}

// Allocate runs the fixpoint against the pipeline and converts the result
// to the shared allocation type; Benefit is the worst-case cycles saved
// over the empty-scratchpad baseline.
func (d Directed) Allocate(ctx context.Context, p *pipeline.Pipeline, capacity uint32) (*Allocation, error) {
	opts := d.Opts
	if d.Seed != nil {
		// Through the pipeline's allocation stage, so the seed solve is
		// shared with direct sweeps of the seed policy.
		sa, err := p.Allocate(ctx, d.Seed, capacity)
		if err != nil {
			return nil, err
		}
		opts.Seeds = append(append([]map[string]bool{}, opts.Seeds...), sa.InSPM)
	}
	r, err := Run(ctx, p, capacity, WCETObjective{}, SolverILP, opts)
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
