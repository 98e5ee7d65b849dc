package wcet

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/benchprog"
	"repro/internal/cache"
	"repro/internal/cc"
	"repro/internal/link"
	"repro/internal/testgen"
)

// skeletonModes are the analysis modes a pipeline builds on one skeleton:
// cache-less, then direct-mapped, 2-way and 4-way unified caches.
var skeletonModes = []*cache.Config{nil, {Assoc: 1}, {Assoc: 2}, {Assoc: 4}}

// randomPlacement draws a scratchpad capacity and a random set of the
// program's objects that fits it.
func randomPlacement(t *testing.T, rng *rand.Rand, base *link.Executable) (uint32, map[string]bool) {
	t.Helper()
	spmSize := []uint32{256, 1024, 4096}[rng.Intn(3)]
	inSPM := make(map[string]bool)
	for _, i := range rng.Perm(len(base.Placements)) {
		name := base.Placements[i].Obj.Name
		if rng.Intn(2) == 0 {
			continue
		}
		inSPM[name] = true
		if _, err := link.Layout(base.Prog, spmSize, inSPM); err != nil {
			delete(inSPM, name)
		}
	}
	return spmSize, inSPM
}

// checkInterleaved builds one engine per mode on a single skeleton of base
// and, per random placement, analyses it with each engine in the order
// cache-less, direct-mapped, 2-way, 4-way, then cache-less again. Every
// result — bound, per-function bounds, classification counts and witness —
// must equal a from-scratch link + Analyze bit for bit.
func checkInterleaved(t *testing.T, rng *rand.Rand, base *link.Executable, placements int) {
	t.Helper()
	sk := skeletonOf(t, base)
	engines := make([]*Engine, len(skeletonModes))
	for i, mode := range skeletonModes {
		engines[i] = engineOn(t, sk, Options{Cache: mode, StackBound: 256})
	}
	if n := sk.Engines(); n != uint64(len(skeletonModes)) {
		t.Fatalf("skeleton counts %d engines, want %d", n, len(skeletonModes))
	}
	order := []int{0, 1, 2, 3, 0}
	for p := 0; p < placements; p++ {
		spmSize, inSPM := randomPlacement(t, rng, base)
		cacheSize := []uint32{128, 512, 2048}[rng.Intn(3)]
		exe, err := link.Link(base.Prog, spmSize, inSPM)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range order {
			opts := Options{StackBound: 256, Witness: true}
			var size uint32
			if mode := skeletonModes[m]; mode != nil {
				c := *mode
				c.Size, size = cacheSize, cacheSize
				opts.Cache = &c
			}
			cold, err := Analyze(exe, opts)
			if err != nil {
				t.Fatal(err)
			}
			warm, err := engines[m].Analyze(context.Background(), size, spmSize, inSPM, true)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(warm, cold) {
				t.Fatalf("placement %d (spm %d %v), mode %d, cache %d: engine %+v != from-scratch %+v",
					p, spmSize, inSPM, m, size, warm, cold)
			}
		}
	}
}

// TestSkeletonEnginesInterleaved runs checkInterleaved on the paper's
// benchmarks and on generated loop programs.
func TestSkeletonEnginesInterleaved(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	for _, b := range benchprog.All() {
		t.Run(b.Name, func(t *testing.T) {
			checkInterleaved(t, rng, baseProg(t, b.Source), 3)
		})
	}
	for trial := 0; trial < 6; trial++ {
		t.Run(fmt.Sprintf("loop%d", trial), func(t *testing.T) {
			checkInterleaved(t, rng, baseProg(t, testgen.LoopProgram(rng)), 3)
		})
	}
}

// TestSkeletonSharedAcrossGoroutines analyses one skeleton from every mode
// at once, one goroutine per engine, and checks each result against the
// from-scratch analysis. Under -race it asserts that engines only read
// their shared skeleton.
func TestSkeletonSharedAcrossGoroutines(t *testing.T) {
	prog, err := cc.Compile(cacheCtxSrc)
	if err != nil {
		t.Fatal(err)
	}
	base, err := link.Link(prog, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	type step struct {
		spmSize uint32
		inSPM   map[string]bool
	}
	steps := []step{
		{0, nil},
		{512, map[string]bool{"table": true}},
		{512, map[string]bool{"scale": true, "weight": true}},
		{0, nil},
	}
	sizes := []uint32{64, 256}
	type job struct {
		mode, step int
		size       uint32
	}
	want := make(map[job]*Result)
	for m, mode := range skeletonModes {
		for si, st := range steps {
			for _, size := range sizes {
				opts := Options{StackBound: 256, Witness: true}
				if mode == nil {
					if size != sizes[0] {
						continue
					}
					size = 0
				} else {
					c := *mode
					c.Size = size
					opts.Cache = &c
				}
				exe, err := link.Link(prog, st.spmSize, st.inSPM)
				if err != nil {
					t.Fatal(err)
				}
				if want[job{m, si, size}], err = Analyze(exe, opts); err != nil {
					t.Fatal(err)
				}
			}
		}
	}

	sk := skeletonOf(t, base)
	var wg sync.WaitGroup
	errs := make(chan error, len(skeletonModes))
	for m, mode := range skeletonModes {
		e := engineOn(t, sk, Options{Cache: mode, StackBound: 256})
		wg.Add(1)
		go func() {
			defer wg.Done()
			for pass := 0; pass < 2; pass++ {
				for si, st := range steps {
					for _, size := range sizes {
						if mode == nil {
							size = 0
						}
						got, err := e.Analyze(context.Background(), size, st.spmSize, st.inSPM, true)
						if err != nil {
							errs <- err
							return
						}
						if !reflect.DeepEqual(got, want[job{m, si, size}]) {
							errs <- fmt.Errorf("mode %d step %d cache %d pass %d: engine %+v != from-scratch %+v",
								m, si, size, pass, got, want[job{m, si, size}])
							return
						}
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
