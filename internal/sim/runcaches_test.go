package sim_test

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/benchprog"
	"repro/internal/cache"
	"repro/internal/cc"
	"repro/internal/core"
	"repro/internal/link"
	"repro/internal/sim"
	"repro/internal/testgen"
)

// matchesReference fails unless one RunCaches pass over cfgs equals, per
// configuration, a run on the reference bus: cycles, instructions, hits,
// misses and exit code.
func matchesReference(t *testing.T, what string, exe *link.Executable, cfgs []cache.Config) {
	t.Helper()
	got, err := sim.RunCaches(exe, cfgs)
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	pricedAsReference(t, what, exe, cfgs, got)
}

// pricedAsReference fails unless got[i] equals a run of cfgs[i] on the
// reference bus, for every i.
func pricedAsReference(t *testing.T, what string, exe *link.Executable, cfgs []cache.Config, got []*sim.Result) {
	t.Helper()
	for i, cfg := range cfgs {
		want, err := refRun(exe, cfg)
		if err != nil {
			t.Fatalf("%s: %+v: %v", what, cfg, err)
		}
		if *got[i] != *want {
			t.Errorf("%s: %+v: RunCaches %+v, reference %+v", what, cfg, *got[i], *want)
		}
	}
}

// shapeGroups splits allShapes into runs of the reference bus of about
// equal cost: the direct-mapped capacities up to 512 B, those from 1 KB,
// and the other shapes.
var shapeGroups = []struct {
	name   string
	lo, hi int // allShapes()[lo:hi]
}{{"direct-mapped-16B-512B", 0, 6}, {"direct-mapped-1KB-64KB", 6, 13}, {"other-shapes", 13, 17}}

// allShapes is every direct-mapped capacity from 16 B to 64 KB, then a
// 2-way, a 4-way, an instruction-only and a 32-byte-line cache.
func allShapes() []cache.Config {
	var cfgs []cache.Config
	for size := uint32(16); size <= 64<<10; size <<= 1 {
		cfgs = append(cfgs, cache.Config{Size: size})
	}
	return append(cfgs,
		cache.Config{Size: 1024, Assoc: 2}, cache.Config{Size: 2048, Assoc: 4},
		cache.Config{Size: 1024, InstructionOnly: true}, cache.Config{Size: 1024, LineSize: 32})
}

// TestRunCachesMatchesReference: on every benchmark, without a scratchpad
// and under energy allocations, one pass prices every cache shape as the
// reference bus does; so it does on generated programs under random
// configuration batches and placements. The reference runs of each
// benchmark's shapes are split into parallel subtests by shapeGroups.
func TestRunCachesMatchesReference(t *testing.T) {
	forBenchmarks(t, []uint32{0, 512, 4096}, func(t *testing.T, what string, exe *link.Executable) {
		cfgs := allShapes()
		if n := shapeGroups[len(shapeGroups)-1].hi; n != len(cfgs) {
			t.Fatalf("shapeGroups cover %d shapes, allShapes has %d", n, len(cfgs))
		}
		got, err := sim.RunCaches(exe, cfgs)
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		for _, g := range shapeGroups {
			t.Run(g.name, func(t *testing.T) {
				t.Parallel()
				pricedAsReference(t, what, exe, cfgs[g.lo:g.hi], got[g.lo:g.hi])
			})
		}
	})
	t.Run("generated", func(t *testing.T) {
		t.Parallel()
		for seed := range int64(12) {
			exe := generated(t, seed, uint64(seed)*0xBF58476D1CE4E5B9)
			if exe == nil {
				t.Errorf("seed %d: placement does not fit", seed)
				continue
			}
			matchesReference(t, fmt.Sprintf("seed %d", seed), exe, batch(uint64(seed)*0x9E3779B97F4A7C15))
		}
	})
}

// forBenchmarks calls check on every benchmark linked under an energy
// allocation at each scratchpad size of sizes (0: no scratchpad), in one
// parallel subtest per benchmark and size with a lab of its own.
func forBenchmarks(t *testing.T, sizes []uint32, check func(t *testing.T, what string, exe *link.Executable)) {
	for _, b := range append(benchprog.All(), benchprog.WorstCaseSort) {
		for _, size := range sizes {
			what := fmt.Sprintf("%s spm=%d", b.Name, size)
			t.Run(what, func(t *testing.T) {
				t.Parallel()
				lab, err := core.NewLab(b)
				if err != nil {
					t.Fatal(err)
				}
				var in map[string]bool
				if size > 0 {
					a, err := lab.Pipe.Allocate(context.Background(), lab.EnergyAllocator(), size)
					if err != nil {
						t.Fatal(err)
					}
					in = a.InSPM
				}
				exe, err := link.Link(lab.Prog, size, in)
				if err != nil {
					t.Fatal(err)
				}
				check(t, what, exe)
			})
		}
	}
}

// FuzzRunCachesMatchesReference: a generated program under a random
// configuration batch and scratchpad placement prices every configuration
// as the reference bus does.
func FuzzRunCachesMatchesReference(f *testing.F) {
	f.Add(int64(1), uint64(0), uint64(0))
	f.Add(int64(2), uint64(0x0123_4567_89AB_CDEF), uint64(0b1010))
	f.Fuzz(func(t *testing.T, seed int64, bits, placement uint64) {
		if exe := generated(t, seed, placement); exe != nil {
			matchesReference(t, fmt.Sprintf("seed %d placement %#x", seed, placement), exe, batch(bits))
		}
	})
}

// generated compiles the generated program of seed and links it with the
// objects picked by the bits of placement in a 4 KB scratchpad. It returns
// nil when the placement does not fit.
func generated(t *testing.T, seed int64, placement uint64) *link.Executable {
	t.Helper()
	prog, err := cc.Compile(testgen.LoopProgram(rand.New(rand.NewSource(seed))))
	if err != nil {
		t.Fatal(err)
	}
	in := map[string]bool{}
	for i, o := range prog.Objects {
		in[o.Name] = placement>>(i%64)&1 != 0
	}
	exe, err := link.Link(prog, 4096, in)
	if err != nil {
		return nil
	}
	return exe
}

// batch returns the cache configurations bits encodes: 1 + its low two
// bits configurations, eight bits each, with any too small for their sets
// grown until valid.
func batch(bits uint64) []cache.Config {
	var cfgs []cache.Config
	for k := range 1 + bits&3 {
		b := bits >> (2 + 8*k)
		cfg := cache.Config{
			Size:            16 << (b & 15 % 13),
			Assoc:           1 << (b >> 4 & 3 % 3),
			InstructionOnly: b>>6&1 != 0,
			LineSize:        16 << (b >> 7 & 1),
		}
		for cfg.Validate() != nil {
			cfg.Size <<= 1
		}
		cfgs = append(cfgs, cfg)
	}
	return cfgs
}
