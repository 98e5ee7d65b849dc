package core

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/benchprog"
	"repro/internal/cache"
	"repro/internal/link"
	"repro/internal/wcet"
)

// TestCacheIncrementalMatchesFromScratch asserts the cache-path tentpole's
// correctness bar: the pipeline's incremental cache context produces
// bit-identical results — bound, per-function bounds, classification
// counts and the full witness — to a from-scratch link + wcet.Analyze, on
// every benchmark × paper cache capacity × associativity, plus a
// placement-move sequence that forces partial re-classification.
func TestCacheIncrementalMatchesFromScratch(t *testing.T) {
	for _, b := range append(benchprog.All(), benchprog.WorstCaseSort) {
		t.Run(b.Name, func(t *testing.T) {
			t.Parallel()
			lab, err := NewLab(b)
			if err != nil {
				t.Fatal(err)
			}
			ctx := context.Background()
			check := func(ccfg cache.Config, spmSize uint32, inSPM map[string]bool) {
				t.Helper()
				opts := wcet.Options{Cache: &ccfg, Witness: true}
				inc, err := lab.Pipe.Analyze(ctx, spmSize, inSPM, opts)
				if err != nil {
					t.Fatalf("cache %d assoc %d spm %d: incremental: %v", ccfg.Size, ccfg.Assoc, spmSize, err)
				}
				exe, err := lab.Pipe.Link(ctx, spmSize, inSPM)
				if err != nil {
					t.Fatalf("cache %d assoc %d spm %d: link: %v", ccfg.Size, ccfg.Assoc, spmSize, err)
				}
				ref, err := wcet.Analyze(exe, opts)
				if err != nil {
					t.Fatalf("cache %d assoc %d spm %d: from-scratch: %v", ccfg.Size, ccfg.Assoc, spmSize, err)
				}
				if !reflect.DeepEqual(inc, ref) {
					t.Errorf("cache %d assoc %d spm %d %v: results diverge:\nincremental  %+v\nfrom-scratch %+v",
						ccfg.Size, ccfg.Assoc, spmSize, inSPM, inc, ref)
				}
			}
			// Paper capacity sweep at the paper's direct-mapped shape and
			// the §5 set-associative variants (one shared context each).
			for _, assoc := range []int{1, 2, 4} {
				for _, size := range PaperSizes {
					check(cache.Config{Size: size, Assoc: assoc}, 0, nil)
				}
			}
			// Placement-move sequence at a fixed shape: objects migrate into
			// and out of the scratchpad, so consecutive layouts differ in a
			// subset of objects and the context re-enters the fixed point
			// only where the moves (or propagated states) demand.
			base, err := lab.Pipe.Link(ctx, 0, nil)
			if err != nil {
				t.Fatal(err)
			}
			for _, spmCap := range []uint32{0, 256, 1024, 0, 256} {
				if spmCap == 0 {
					check(cache.Config{Size: 1024}, 0, nil)
					continue
				}
				check(cache.Config{Size: 1024}, spmCap, greedyPlacement(base.Prog, spmCap))
			}
			st := lab.Pipe.Stats()
			if st.CacheContextBuilds == 0 || st.CacheContextReuses == 0 {
				t.Errorf("cache analyses did not share contexts: %d builds, %d reuses",
					st.CacheContextBuilds, st.CacheContextReuses)
			}
			if st.CacheFuncs == 0 {
				t.Error("no cache-context function counters recorded")
			}
		})
	}
}

// TestCacheContextSavesReanalysis counter-asserts the perf claim on G.721:
// over three passes of a capacity × placement sweep, the cache context re-runs at most half the
// function-level MUST solves a from-scratch run would (every function,
// every analysis) — repeated configurations replay entirely from the
// layout-keyed memo.
func TestCacheContextSavesReanalysis(t *testing.T) {
	lab, err := NewLabByName("G.721")
	if err != nil {
		t.Fatal(err)
	}
	base, err := link.Link(lab.Prog, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	ccfg := cache.Config{}
	cctx, err := wcet.NewEngine(base, wcet.Options{Cache: &ccfg})
	if err != nil {
		t.Fatal(err)
	}
	for pass := 0; pass < 3; pass++ {
		for _, size := range PaperSizes {
			for _, spmCap := range []uint32{0, 512} {
				var inSPM map[string]bool
				if spmCap > 0 {
					inSPM = greedyPlacement(base.Prog, spmCap)
				}
				if _, err := cctx.Analyze(context.Background(), size, spmCap, inSPM, false); err != nil {
					t.Fatalf("pass %d cache %d spm %d: %v", pass, size, spmCap, err)
				}
			}
		}
	}
	st := cctx.Stats()
	if st.FuncsReanalyzed == 0 || st.FuncsTotal == 0 {
		t.Fatalf("degenerate counters: %+v", st)
	}
	if 2*st.FuncsReanalyzed > st.FuncsTotal {
		t.Errorf("re-ran %d of %d function solves; want at least a 2x reduction",
			st.FuncsReanalyzed, st.FuncsTotal)
	}
	t.Logf("G.721: %d/%d function MUST solves re-ran over %d analyses",
		st.FuncsReanalyzed, st.FuncsTotal, st.Analyses)
}
