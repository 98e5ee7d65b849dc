package core

import (
	"context"

	"repro/internal/alloc"
)

// ParetoFrontAt is the energy/WCET Pareto front at one scratchpad
// capacity: the pure-WCET and pure-energy endpoints plus the mutually
// non-dominated ε-constraint points between them, sorted by ascending
// certified WCET (so modelled energy strictly falls along the front).
type ParetoFrontAt struct {
	Benchmark string
	SPMSize   uint32
	Points    []alloc.ParetoPoint
}

// ParetoFront computes the energy/WCET Pareto front at one capacity
// through the lab's pipeline, priced by the lab's energy model and scanned
// as opts says: the endpoints are the lab's pure energy-directed and pure
// WCET-directed allocations (the same memoized solves every other sweep
// uses), every point's bound is certified by a full re-analysis, and all
// solves and analyses are served through the pipeline's memoized stages —
// against a warm store a whole front recomputes nothing.
func (l *Lab) ParetoFront(ctx context.Context, size uint32, opts alloc.ParetoOptions) (ParetoFrontAt, error) {
	points, err := alloc.ParetoFront(ctx, l.Pipe, size, l.Model, opts)
	if err != nil {
		return ParetoFrontAt{}, err
	}
	return ParetoFrontAt{Benchmark: l.Bench.Name, SPMSize: size, Points: points}, nil
}

// SweepPareto computes the even-scan Pareto front at every paper capacity
// on the lab's worker pool; fronts come back in capacity order regardless
// of completion order.
func (l *Lab) SweepPareto(ctx context.Context) ([]ParetoFrontAt, error) {
	return sweep(ctx, l, "pareto", PaperSizes, func(ctx context.Context, size uint32) (ParetoFrontAt, error) {
		return l.ParetoFront(ctx, size, alloc.ParetoOptions{})
	})
}

// SweepParetoStream computes the Pareto front, scanned as opts says, at
// every paper capacity, delivering each front to emit in capacity order as
// soon as it is ready.
func (l *Lab) SweepParetoStream(ctx context.Context, opts alloc.ParetoOptions, emit func(ParetoFrontAt) error) error {
	return sweepStream(ctx, l, "pareto", PaperSizes, func(ctx context.Context, size uint32) (ParetoFrontAt, error) {
		return l.ParetoFront(ctx, size, opts)
	}, func(_ int, f ParetoFrontAt) error { return emit(f) })
}
