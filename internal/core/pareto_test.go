package core

import (
	"context"

	"reflect"
	"testing"

	"repro/internal/alloc"
	"repro/internal/benchprog"
	"repro/internal/store"
	"repro/internal/wcet"
)

// samePlacement compares the true-sets of two allocations.
func samePlacement(a, b map[string]bool) bool {
	return reflect.DeepEqual(sortedNames(a), sortedNames(b))
}

// TestParetoFrontProperties asserts, per benchmark × paper capacity, the
// front's defining properties: the endpoints are bit-identical to the
// pure energy-directed and pure WCET-directed allocations, every point's
// bound is certified by a full re-analysis, and the points are mutually
// non-dominated (WCET strictly rises, modelled energy strictly falls
// along the front).
func TestParetoFrontProperties(t *testing.T) {
	for _, b := range benchprog.All() {
		t.Run(b.Name, func(t *testing.T) {
			t.Parallel()
			lab, err := NewLabWithStore(b, nil)
			if err != nil {
				t.Fatal(err)
			}
			for _, size := range PaperSizes {
				front, err := lab.ParetoFront(context.Background(), size)
				if err != nil {
					t.Fatalf("cap %d: %v", size, err)
				}
				pts := front.Points
				if len(pts) == 0 {
					t.Fatalf("cap %d: empty front", size)
				}
				ealloc, err := lab.Pipe.Allocate(context.Background(), lab.EnergyAllocator(), size)
				if err != nil {
					t.Fatal(err)
				}
				walloc, err := lab.Pipe.Allocate(context.Background(), lab.WCETAllocatorGran(alloc.GranObject), size)
				if err != nil {
					t.Fatal(err)
				}
				if len(pts) == 1 {
					// Degenerate front: one allocation optimal in both
					// objectives — it must be one of the pure endpoints.
					if !samePlacement(pts[0].InSPM, ealloc.InSPM) && !samePlacement(pts[0].InSPM, walloc.InSPM) {
						t.Errorf("cap %d: single point matches neither pure allocation: %v",
							size, sortedNames(pts[0].InSPM))
					}
				} else {
					first, last := pts[0], pts[len(pts)-1]
					if first.Kind != "wcet" || !samePlacement(first.InSPM, walloc.InSPM) {
						t.Errorf("cap %d: first point (%s) is not the pure WCET-directed allocation:\ngot  %v\nwant %v",
							size, first.Kind, sortedNames(first.InSPM), sortedNames(walloc.InSPM))
					}
					if last.Kind != "energy" || !samePlacement(last.InSPM, ealloc.InSPM) {
						t.Errorf("cap %d: last point (%s) is not the pure energy-directed allocation:\ngot  %v\nwant %v",
							size, last.Kind, sortedNames(last.InSPM), sortedNames(ealloc.InSPM))
					}
				}
				for i, pt := range pts {
					// Certification: the reported bound is the analysed bound
					// of the placement, never the linear model's estimate.
					res, err := lab.Pipe.Analyze(context.Background(), size, pt.InSPM, wcet.Options{})
					if err != nil {
						t.Fatal(err)
					}
					if res.WCET != pt.WCET {
						t.Errorf("cap %d point %d: reported WCET %d, analysis certifies %d", size, i, pt.WCET, res.WCET)
					}
					if i == 0 {
						continue
					}
					// Mutual non-domination.
					if pt.WCET <= pts[i-1].WCET {
						t.Errorf("cap %d: WCET not strictly increasing at point %d (%d after %d)",
							size, i, pt.WCET, pts[i-1].WCET)
					}
					if pt.EnergyNJ >= pts[i-1].EnergyNJ {
						t.Errorf("cap %d: energy not strictly decreasing at point %d (%.1f after %.1f)",
							size, i, pt.EnergyNJ, pts[i-1].EnergyNJ)
					}
				}
			}
		})
	}
}

// TestParetoSweepDeterministic: the full Pareto sweep is bit-identical
// across fresh labs and across worker-pool sizes.
func TestParetoSweepDeterministic(t *testing.T) {
	for _, b := range benchprog.All() {
		t.Run(b.Name, func(t *testing.T) {
			t.Parallel()
			var runs [][]ParetoFrontAt
			for _, workers := range []int{1, 4, 4} {
				lab, err := NewLabWithStore(b, nil)
				if err != nil {
					t.Fatal(err)
				}
				lab.Workers = workers
				fronts, err := lab.SweepPareto(context.Background())
				if err != nil {
					t.Fatal(err)
				}
				runs = append(runs, fronts)
			}
			for i := 1; i < len(runs); i++ {
				if !reflect.DeepEqual(runs[0], runs[i]) {
					t.Errorf("run %d diverged from run 0", i)
				}
			}
		})
	}
}

// TestParetoWarmStoreZeroResolve: against a store warmed by one Pareto
// sweep, a second process's identical sweep re-solves nothing — zero
// allocation solves, zero analyses, zero links, zero simulations, zero
// profiles — and returns bit-identical fronts.
func TestParetoWarmStoreZeroResolve(t *testing.T) {
	for _, b := range benchprog.All() {
		t.Run(b.Name, func(t *testing.T) {
			t.Parallel()
			st, err := store.Open(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			lab1, err := NewLabWithStore(b, st)
			if err != nil {
				t.Fatal(err)
			}
			cold, err := lab1.SweepPareto(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			lab2, err := NewLabWithStore(b, st)
			if err != nil {
				t.Fatal(err)
			}
			warm, err := lab2.SweepPareto(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(cold, warm) {
				t.Error("warm sweep diverged from cold sweep")
			}
			s := lab2.Pipe.Stats()
			if s.Allocs != 0 || s.Analyses != 0 || s.Links != 0 || s.Sims != 0 || s.Profiles != 0 {
				t.Errorf("warm pareto sweep recomputed: allocs=%d analyses=%d links=%d sims=%d profiles=%d",
					s.Allocs, s.Analyses, s.Links, s.Sims, s.Profiles)
			}
		})
	}
}
