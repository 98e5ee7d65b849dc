// customprogram shows the full workflow on user-written time-critical code:
// flow-fact annotations for data-dependent loops, profile-guided scratchpad
// allocation, and a per-function WCET breakdown — the workflow an engineer
// would use to check a deadline.
package main

import (
	"context"
	"fmt"
	"log"
	"sort"

	"repro/internal/alloc"
	"repro/internal/cc"
	"repro/internal/energy"
	"repro/internal/link"
	"repro/internal/sim"
	"repro/internal/wcet"
)

// A small digital controller: FIR filter + saturation + a data-dependent
// binary search, annotated with __loopbound where the compiler cannot
// derive the trip count.
const src = `
short coeff[16] = {3, -1, 4, 1, -5, 9, 2, -6, 5, 3, -5, 8, 9, -7, 9, 3};
short window[16];
int setpoints[32] = {10, 20, 30, 40, 50, 60, 70, 80, 90, 100, 110, 120,
                     130, 140, 150, 160, 170, 180, 190, 200, 210, 220,
                     230, 240, 250, 260, 270, 280, 290, 300, 310, 320};
int sensor = 137;

int fir_step(int sample) {
    /* Shift the delay line and accumulate. */
    for (int i = 15; i > 0; i -= 1) window[i] = window[i - 1];
    window[0] = sample;
    int acc = 0;
    for (int i = 0; i < 16; i += 1) acc += coeff[i] * window[i];
    return acc >> 4;
}

int saturate(int v) {
    if (v > 1000) return 1000;
    if (v < -1000) return -1000;
    return v;
}

/* Find the largest setpoint <= v: binary search, bounded by log2(32). */
int lookup(int v) {
    int lo = 0;
    int hi = 31;
    __loopbound(6) while (lo < hi) {
        int mid = (lo + hi + 1) / 2;
        if (setpoints[mid] <= v) lo = mid;
        else hi = mid - 1;
    }
    return setpoints[lo];
}

int main() {
    int out = 0;
    for (int t = 0; t < 50; t += 1) {
        int filtered = fir_step(sensor + t * 3);
        out = saturate(filtered) + lookup(filtered & 255);
    }
    return out;
}
`

func main() {
	prog, err := cc.Compile(src)
	if err != nil {
		log.Fatal(err)
	}

	// Profile on main memory only.
	base, err := link.Link(prog, 0, nil)
	if err != nil {
		log.Fatal(err)
	}
	prof, err := sim.CollectProfile(base, sim.Options{})
	if err != nil {
		log.Fatal(err)
	}

	// Allocate a 512-byte scratchpad (the energy knapsack over the
	// profile, solved by branch & bound) and re-link.
	items := alloc.Candidates(prog, alloc.EnergyBenefit(energy.Default(), prof), 512)
	placed, err := alloc.Knapsack(context.Background(), items, 512)
	if err != nil {
		log.Fatal(err)
	}
	tuned, err := link.Link(prog, 512, placed.InSPM)
	if err != nil {
		log.Fatal(err)
	}

	for _, setup := range []struct {
		name string
		exe  *link.Executable
	}{{"main memory only", base}, {"512B scratchpad", tuned}} {
		res, err := sim.Run(setup.exe, sim.Options{})
		if err != nil {
			log.Fatal(err)
		}
		bound, err := wcet.Analyze(setup.exe, wcet.Options{})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s: sim %d cycles, WCET %d cycles\n", setup.name, res.Cycles, bound.WCET)
		if setup.name != "main memory only" {
			fmt.Printf("  scratchpad contents:")
			names := make([]string, 0, len(placed.InSPM))
			for n := range placed.InSPM {
				names = append(names, n)
			}
			sort.Strings(names)
			for _, n := range names {
				fmt.Printf(" %s", n)
			}
			fmt.Println()
		}
		// Per-function breakdown, heaviest first.
		type fw struct {
			name string
			w    uint64
		}
		var fws []fw
		for name, w := range bound.PerFunction {
			fws = append(fws, fw{name, w})
		}
		sort.Slice(fws, func(i, j int) bool { return fws[i].w > fws[j].w })
		for _, f := range fws {
			fmt.Printf("  %-14s WCET %8d cycles\n", f.name, f.w)
		}
	}
}
