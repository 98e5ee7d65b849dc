package core

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/alloc"
	"repro/internal/benchprog"
	"repro/internal/link"
	"repro/internal/pipeline"
	"repro/internal/sim"
)

// TestRetimeOracleBenchmarks: on every benchmark, the scratchpad
// placements the paper sweeps measure (the energy and the WCET-directed
// allocation at every capacity) and seeded random whole-object placements
// are all retimed from the profile, and each equals a full simulation of
// a from-scratch link.
func TestRetimeOracleBenchmarks(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(5))
	for _, b := range benchprog.All() {
		l, err := NewLabWithStore(b, nil)
		if err != nil {
			t.Fatal(err)
		}
		type placement struct {
			size uint32
			in   map[string]bool
		}
		var ps []placement
		for _, size := range PaperSizes {
			for _, a := range []pipeline.Allocator{l.EnergyAllocator(), l.WCETAllocatorGran(alloc.GranObject)} {
				al, err := l.Pipe.Allocate(ctx, a, size)
				if err != nil {
					t.Fatal(err)
				}
				ps = append(ps, placement{size, al.InSPM})
			}
		}
		for i := 0; i < 14; i++ {
			in := map[string]bool{}
			for _, o := range l.Prog.Objects {
				in[o.Name] = rng.Intn(2) == 0
			}
			ps = append(ps, placement{link.SPMMax, in})
		}
		for _, p := range ps {
			got, err := l.Pipe.Simulate(ctx, p.size, p.in, nil)
			if err != nil {
				t.Fatal(err)
			}
			exe, err := link.Link(l.Prog, p.size, p.in)
			if err != nil {
				t.Fatal(err)
			}
			want, err := sim.Run(exe, sim.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if got.Cycles != want.Cycles || got.Instrs != want.Instrs || got.ExitCode != want.ExitCode ||
				got.CacheHits != want.CacheHits || got.CacheMisses != want.CacheMisses {
				t.Errorf("%s %s: retimed %+v, simulated %+v", b.Name, pipeline.PlacementKey(p.size, p.in), *got, *want)
			}
		}
		if s := l.Pipe.Stats(); s.Sims == 0 || s.SimsRetimed != s.Sims {
			t.Errorf("%s: %d of %d simulations retimed, want all", b.Name, s.SimsRetimed, s.Sims)
		}
	}
}
