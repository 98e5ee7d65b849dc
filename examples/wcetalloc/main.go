// wcetalloc demonstrates WCET-directed scratchpad allocation: instead of
// weighing memory objects by their simulated typical-input access counts
// (the energy knapsack), internal/alloc's WCET-directed fixpoint weighs
// them by their access counts on the worst-case path — the IPET witness —
// re-links, re-analyses and iterates. The sweep below shows the bound
// it certifies is never worse than the energy-directed allocation's, and
// the iteration trace shows the monotone descent at one capacity.
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/alloc"
	"repro/internal/core"
)

func main() {
	lab, err := core.NewLabByName("MultiSort")
	if err != nil {
		log.Fatal(err)
	}
	ctx := context.Background()

	fmt.Println("MultiSort: energy-directed vs WCET-directed scratchpad allocation")
	fmt.Printf("%8s | %12s %12s | %8s %5s\n",
		"SPM [B]", "energy WCET", "wcet WCET", "Δ WCET", "iters")
	cs, err := lab.SweepWCETAllocation(ctx)
	if err != nil {
		log.Fatal(err)
	}
	for _, c := range cs {
		delta := 100 * (float64(c.Energy.WCET) - float64(c.WCET.WCET)) / float64(c.Energy.WCET)
		fmt.Printf("%8d | %12d %12d | %7.2f%% %5d\n",
			c.SPMSize, c.Energy.WCET, c.WCET.WCET, delta, c.Iterations)
	}

	// The fixpoint trace at one capacity: each accepted iteration re-links
	// and re-analyses through the lab's shared artifact pipeline, and the
	// bound never rises. Running it against lab.Pipe after the sweep above
	// means the seed and baseline analyses are cache hits, not re-runs.
	const size = 2048
	ealloc, err := lab.Pipe.Allocate(ctx, lab.EnergyAllocator(), size)
	if err != nil {
		log.Fatal(err)
	}
	res, err := alloc.Run(ctx, lab.Pipe, size, alloc.Options{
		Seeds: []map[string]bool{ealloc.InSPM},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nFixpoint trace at %d bytes (baseline first, converged=%v):\n", size, res.Converged)
	for i, it := range res.Iterations {
		fmt.Printf("  iter %d: WCET %9d  (%2d objects, %4d bytes)\n", i, it.WCET, len(it.InSPM), it.Used)
	}
	fmt.Printf("\nFinal bound %d vs empty-scratchpad baseline %d (-%.1f%%).\n",
		res.WCET, res.Baseline, 100*(1-float64(res.WCET)/float64(res.Baseline)))

	// Placement units below whole objects: at block granularity the
	// allocator splits hot loop regions (derived from the IPET witness) out
	// of their functions and places the fragments independently — a loop
	// body fits a small scratchpad that its whole function would overflow.
	// The certified bound is never worse than whole-object placement; where
	// a split fragment wins, it is strictly tighter.
	fmt.Println("\nObject vs block placement-unit granularity (WCET-directed bound):")
	fmt.Printf("%8s | %12s %12s | %7s %7s\n", "SPM [B]", "object", "block", "Δ", "splits")
	for _, capacity := range []uint32{64, 128, 256, 512} {
		objRes, err := alloc.Run(ctx, lab.Pipe, capacity, alloc.Options{})
		if err != nil {
			log.Fatal(err)
		}
		blkRes, err := alloc.Run(ctx, lab.Pipe, capacity, alloc.Options{Granularity: alloc.GranBlock})
		if err != nil {
			log.Fatal(err)
		}
		delta := 100 * (float64(objRes.WCET) - float64(blkRes.WCET)) / float64(objRes.WCET)
		fmt.Printf("%8d | %12d %12d | %6.2f%% %7d\n",
			capacity, objRes.WCET, blkRes.WCET, delta, len(blkRes.Splits))
	}

	// The two objectives meet in the energy/WCET Pareto front. Its
	// endpoints are the pure energy-directed and pure WCET-directed
	// allocations above; between them, ε-constraint solves maximise energy
	// benefit subject to a stepped budget on the *certified* WCET bound. Every point's bound comes from a full
	// re-analysis, and all points are mutually non-dominated — each trades
	// worst-case cycles for average-case energy.
	front, err := lab.ParetoFront(ctx, 2048, alloc.ParetoOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nEnergy/WCET Pareto front at %d bytes (%d points):\n", front.SPMSize, len(front.Points))
	fmt.Printf("%-7s | %12s %14s | %s\n", "kind", "WCET bound", "energy [nJ]", "placed units")
	for _, pt := range front.Points {
		fmt.Printf("%-7s | %12d %14.0f | %d objects, %d bytes\n",
			pt.Kind, pt.WCET, pt.EnergyNJ, len(pt.InSPM), pt.Used)
	}
	fmt.Println("The first row is the pure WCET-directed allocation (tightest certified")
	fmt.Println("bound), the last the pure energy-directed one (lowest modelled energy);")
	fmt.Println("interior rows are the certified trade-offs between them.")

	// The artifact cache is what made the sweep cheap: every repeated
	// link/simulate/analyse was served from the pipeline.
	s := lab.Pipe.Stats()
	fmt.Printf("\nPipeline artifacts: %d analyses (%d served from cache), %d links (%d cached), %d sims (%d cached).\n",
		s.Analyses, s.AnalyzeHits, s.Links, s.LinkHits, s.Sims, s.SimHits)
}
