package core

import (
	"context"

	"testing"

	"repro/internal/alloc"
	"repro/internal/benchprog"
)

// TestAdaptiveParetoFront asserts the adaptive bisection scan's contract
// against the even ε-step scan, per benchmark × paper capacity: identical
// endpoints (the same pure WCET- and energy-directed allocations), a
// mutually non-dominated interior, and no more points than the even
// scan's maximum.
func TestAdaptiveParetoFront(t *testing.T) {
	for _, b := range benchprog.All() {
		t.Run(b.Name, func(t *testing.T) {
			t.Parallel()
			lab, err := NewLabWithStore(b, nil)
			if err != nil {
				t.Fatal(err)
			}
			adaptive := *lab
			adaptive.ParetoAdaptive = true
			for _, size := range PaperSizes {
				even, err := lab.ParetoFront(context.Background(), size)
				if err != nil {
					t.Fatalf("cap %d: even: %v", size, err)
				}
				ad, err := adaptive.ParetoFront(context.Background(), size)
				if err != nil {
					t.Fatalf("cap %d: adaptive: %v", size, err)
				}
				ep, ap := even.Points, ad.Points
				if len(ap) == 0 {
					t.Fatalf("cap %d: empty adaptive front", size)
				}
				if len(ap) > alloc.DefaultParetoSteps+1 {
					t.Errorf("cap %d: adaptive front has %d points, even scan's maximum is %d",
						size, len(ap), alloc.DefaultParetoSteps+1)
				}
				// Endpoint identity with the even scan.
				ef, el := ep[0], ep[len(ep)-1]
				af, al := ap[0], ap[len(ap)-1]
				if af.WCET != ef.WCET || af.EnergyNJ != ef.EnergyNJ || !samePlacement(af.InSPM, ef.InSPM) {
					t.Errorf("cap %d: first points diverge: adaptive (%s, %d) vs even (%s, %d)",
						size, af.Kind, af.WCET, ef.Kind, ef.WCET)
				}
				if al.WCET != el.WCET || al.EnergyNJ != el.EnergyNJ || !samePlacement(al.InSPM, el.InSPM) {
					t.Errorf("cap %d: last points diverge: adaptive (%s, %d) vs even (%s, %d)",
						size, al.Kind, al.WCET, el.Kind, el.WCET)
				}
				// Mutual non-domination along the adaptive front.
				for i := 1; i < len(ap); i++ {
					if ap[i].WCET <= ap[i-1].WCET {
						t.Errorf("cap %d: WCET not strictly increasing at adaptive point %d (%d after %d)",
							size, i, ap[i].WCET, ap[i-1].WCET)
					}
					if ap[i].EnergyNJ >= ap[i-1].EnergyNJ {
						t.Errorf("cap %d: energy not strictly decreasing at adaptive point %d (%.1f after %.1f)",
							size, i, ap[i].EnergyNJ, ap[i-1].EnergyNJ)
					}
				}
			}
		})
	}
}

// TestAdaptiveParetoMaxPoints: the adaptive scan honours the MaxPoints
// cap while keeping the endpoints, at every capacity.
func TestAdaptiveParetoMaxPoints(t *testing.T) {
	lab := labFor(t, "MultiSort")
	capped := *lab
	capped.ParetoAdaptive = true
	capped.ParetoMaxPoints = 3
	for _, size := range PaperSizes {
		front, err := capped.ParetoFront(context.Background(), size)
		if err != nil {
			t.Fatalf("cap %d: %v", size, err)
		}
		pts := front.Points
		if len(pts) > 3 {
			t.Errorf("cap %d: %d points exceed MaxPoints 3", size, len(pts))
		}
		if len(pts) > 1 {
			if pts[0].Kind != "wcet" {
				t.Errorf("cap %d: first point is %q, want the pure WCET endpoint", size, pts[0].Kind)
			}
			if pts[len(pts)-1].Kind != "energy" {
				t.Errorf("cap %d: last point is %q, want the pure energy endpoint", size, pts[len(pts)-1].Kind)
			}
		}
	}
}
