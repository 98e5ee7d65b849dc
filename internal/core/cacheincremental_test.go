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
			lab, err := NewLabWithStore(b, nil)
			if err != nil {
				t.Fatal(err)
			}
			ctx := context.Background()
			check := func(ccfg cache.Config, spmSize uint32, inSPM map[string]bool) {
				t.Helper()
				opts := wcet.Options{Cache: &ccfg, Witness: true}
				inc, err := lab.Pipe.AnalyzeUnits(ctx, nil, spmSize, inSPM, opts)
				if err != nil {
					t.Fatalf("cache %d assoc %d spm %d: incremental: %v", ccfg.Size, ccfg.Assoc, spmSize, err)
				}
				exe, err := lab.Pipe.LinkUnits(ctx, nil, spmSize, inSPM)
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
			base, err := lab.Pipe.LinkUnits(ctx, nil, 0, nil)
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

// TestCacheContextSavesReanalysis counter-asserts what the cache engine
// saves on G.721 over a capacity × placement sweep: within each MUST pass
// some function visits keep the function's current record because its
// entry and callee exit states are unchanged (within-pass reuse).
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
	sk, err := wcet.NewSkeleton(base)
	if err != nil {
		t.Fatal(err)
	}
	cctx, err := sk.Engine(wcet.Options{Cache: &ccfg})
	if err != nil {
		t.Fatal(err)
	}
	for _, size := range PaperSizes {
		for _, spmCap := range []uint32{0, 512} {
			var inSPM map[string]bool
			if spmCap > 0 {
				inSPM = greedyPlacement(base.Prog, spmCap)
			}
			if _, err := cctx.Analyze(context.Background(), size, spmCap, inSPM, false); err != nil {
				t.Fatalf("cache %d spm %d: %v", size, spmCap, err)
			}
		}
	}
	st := cctx.Stats()
	if st.FuncsReanalyzed == 0 || st.FuncsTotal == 0 {
		t.Fatalf("degenerate counters: %+v", st)
	}
	if st.MustReused == 0 {
		t.Errorf("no function visit reused its current MUST record: %+v", st)
	}
	t.Logf("G.721: %d/%d function MUST solves re-ran, %d visits reused over %d analyses",
		st.FuncsReanalyzed, st.FuncsTotal, st.MustReused, st.Analyses)
}
