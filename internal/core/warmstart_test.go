package core

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/alloc"
	"repro/internal/benchprog"
	"repro/internal/cache"
	"repro/internal/link"
	"repro/internal/obj"
	"repro/internal/store"
	"repro/internal/wcet"
)

// granularities returns the placement-unit partitions to test: whole
// objects, plus the witness-derived hot-region split when it is non-empty.
func granularities(t *testing.T, lab *Lab) []struct {
	name    string
	regions []obj.Region
} {
	t.Helper()
	res0, err := lab.Pipe.Analyze(context.Background(), 0, nil, wcet.Options{Witness: true})
	if err != nil {
		t.Fatal(err)
	}
	regions, err := alloc.HotRegions(context.Background(), lab.Pipe, res0.Witness, link.SPMMax, "")
	if err != nil {
		t.Fatal(err)
	}
	grans := []struct {
		name    string
		regions []obj.Region
	}{{"object", nil}}
	if len(regions) > 0 {
		grans = append(grans, struct {
			name    string
			regions []obj.Region
		}{"block", regions})
	}
	return grans
}

// TestSolverStateRoundTrip asserts the persistence bar: solver state
// exported after a capacity sweep, pushed through the store codec and
// imported into a fresh engine yields bit-identical bounds and witnesses
// with every per-function solve served as a state hit.
func TestSolverStateRoundTrip(t *testing.T) {
	for _, b := range append(benchprog.All(), benchprog.WorstCaseSort) {
		t.Run(b.Name, func(t *testing.T) {
			t.Parallel()
			lab, err := NewLab(b)
			if err != nil {
				t.Fatal(err)
			}
			for _, g := range granularities(t, lab) {
				t.Run(g.name, func(t *testing.T) {
					base, err := lab.Pipe.LinkUnits(context.Background(), g.regions, 0, nil)
					if err != nil {
						t.Fatal(err)
					}
					cold, err := wcet.NewEngine(base, wcet.Options{})
					if err != nil {
						t.Fatal(err)
					}
					coldRes := make([]*wcet.Result, 0, len(PaperSizes))
					for _, size := range PaperSizes {
						r, err := cold.Analyze(context.Background(), 0, size, greedyPlacement(base.Prog, size), true)
						if err != nil {
							t.Fatalf("cap %d: cold: %v", size, err)
						}
						coldRes = append(coldRes, r)
					}

					// Round-trip through the store codec, as a cold process
					// loading the persisted artifact would.
					decoded, err := store.DecodeSolverState(store.EncodeSolverState(cold.ExportState()))
					if err != nil {
						t.Fatal(err)
					}
					warm, err := wcet.NewEngine(base, wcet.Options{})
					if err != nil {
						t.Fatal(err)
					}
					if n := warm.ImportState(decoded); n == 0 {
						t.Fatal("no solver state imported")
					}
					for i, size := range PaperSizes {
						r, err := warm.Analyze(context.Background(), 0, size, greedyPlacement(base.Prog, size), true)
						if err != nil {
							t.Fatalf("cap %d: warm: %v", size, err)
						}
						if r.WCET != coldRes[i].WCET {
							t.Errorf("cap %d: warm WCET %d != cold %d", size, r.WCET, coldRes[i].WCET)
						}
						if !reflect.DeepEqual(r.PerFunction, coldRes[i].PerFunction) {
							t.Errorf("cap %d: per-function bounds diverge", size)
						}
						if !reflect.DeepEqual(r.Witness, coldRes[i].Witness) {
							t.Errorf("cap %d: witnesses diverge", size)
						}
					}
					ws := warm.Stats()
					if ws.StateHits == 0 {
						t.Error("warm engine recorded no state hits")
					}
					if ws.FuncsSolved != 0 {
						t.Errorf("warm engine re-solved %d functions despite full imported state", ws.FuncsSolved)
					}
				})
			}
		})
	}
}

// TestCacheSolverStateRoundTrip is TestSolverStateRoundTrip for cache
// engines: the solver state of a direct-mapped capacity sweep, pushed
// through the store codec into a fresh engine, re-serves the sweep with
// zero IPET solves and bit-identical results (bounds, classification
// counts, witnesses).
func TestCacheSolverStateRoundTrip(t *testing.T) {
	for _, b := range benchprog.All() {
		t.Run(b.Name, func(t *testing.T) {
			t.Parallel()
			lab, err := NewLab(b)
			if err != nil {
				t.Fatal(err)
			}
			base, err := link.Link(lab.Prog, 0, nil)
			if err != nil {
				t.Fatal(err)
			}
			opts := wcet.Options{Cache: &cache.Config{Assoc: 1}, StackBound: lab.StackBound}
			cold, err := wcet.NewEngine(base, opts)
			if err != nil {
				t.Fatal(err)
			}
			coldRes := make([]*wcet.Result, 0, len(PaperSizes))
			for _, size := range PaperSizes {
				r, err := cold.Analyze(context.Background(), size, 0, nil, true)
				if err != nil {
					t.Fatalf("cache %d: cold: %v", size, err)
				}
				coldRes = append(coldRes, r)
			}
			decoded, err := store.DecodeSolverState(store.EncodeSolverState(cold.ExportState()))
			if err != nil {
				t.Fatal(err)
			}
			warm, err := wcet.NewEngine(base, opts)
			if err != nil {
				t.Fatal(err)
			}
			if n := warm.ImportState(decoded); n == 0 {
				t.Fatal("no solver state imported")
			}
			for i, size := range PaperSizes {
				r, err := warm.Analyze(context.Background(), size, 0, nil, true)
				if err != nil {
					t.Fatalf("cache %d: warm: %v", size, err)
				}
				if !reflect.DeepEqual(r, coldRes[i]) {
					t.Errorf("cache %d: warm %+v != cold %+v", size, r, coldRes[i])
				}
			}
			if ws := warm.Stats(); ws.FuncsSolved != 0 || ws.StateHits == 0 {
				t.Errorf("warm engine: %d solves, %d state hits; want 0 solves", ws.FuncsSolved, ws.StateHits)
			}
		})
	}
}

// TestCrossProcessWarmSolverState drives the full pipeline/store loop: a
// second "process" (fresh lab, same store, analyses evicted) re-derives
// identical bounds with its solver seeded from the persisted state.
func TestCrossProcessWarmSolverState(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	bench, err := benchprog.ByName("MultiSort")
	if err != nil {
		t.Fatal(err)
	}
	lab1, err := NewLabWithStore(bench, st)
	if err != nil {
		t.Fatal(err)
	}
	coldRes := make(map[uint32]*wcet.Result, len(PaperSizes))
	for _, size := range PaperSizes {
		inSPM := greedyPlacement(lab1.Pipe.Prog, size)
		r, err := lab1.Pipe.AnalyzeUnits(context.Background(), nil, size, inSPM, wcet.Options{})
		if err != nil {
			t.Fatalf("cap %d: cold: %v", size, err)
		}
		coldRes[size] = r
	}
	// Evict the memoized analyses so the second process must re-analyse,
	// keeping the solver state (and everything else) warm.
	if _, _, err := st.DropKinds(store.KindWCET); err != nil {
		t.Fatal(err)
	}

	lab2, err := NewLabWithStore(bench, st)
	if err != nil {
		t.Fatal(err)
	}
	for _, size := range PaperSizes {
		inSPM := greedyPlacement(lab2.Pipe.Prog, size)
		r, err := lab2.Pipe.AnalyzeUnits(context.Background(), nil, size, inSPM, wcet.Options{})
		if err != nil {
			t.Fatalf("cap %d: warm: %v", size, err)
		}
		if r.WCET != coldRes[size].WCET || !reflect.DeepEqual(r.PerFunction, coldRes[size].PerFunction) {
			t.Errorf("cap %d: warm-process bounds differ from cold", size)
		}
	}
	s := lab2.Pipe.Stats()
	if s.SolverStateHits == 0 {
		t.Errorf("second process recorded no solver-state hits: %+v", s)
	}
	if s.SolverStateMisses != 0 {
		t.Errorf("second process re-solved %d functions despite persisted state", s.SolverStateMisses)
	}
}
