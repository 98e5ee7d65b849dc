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
	"repro/internal/sim"
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

// TestPreparedRelinkBitIdentical asserts the delta linker's correctness
// bar: on every benchmark × paper capacity × granularity, the prepared
// relink produces the same addresses and image bytes as a from-scratch
// link.Link, and (spot-checked per capacity extreme) simulates to the same
// exit code, cycle count and data memory.
func TestPreparedRelinkBitIdentical(t *testing.T) {
	simSizes := map[uint32]bool{64: true, 1024: true, 8192: true}
	for _, b := range append(benchprog.All(), benchprog.WorstCaseSort) {
		t.Run(b.Name, func(t *testing.T) {
			t.Parallel()
			lab, err := NewLab(b)
			if err != nil {
				t.Fatal(err)
			}
			for _, g := range granularities(t, lab) {
				t.Run(g.name, func(t *testing.T) {
					prog, err := lab.Pipe.SplitProgram(g.regions)
					if err != nil {
						t.Fatal(err)
					}
					prep, err := link.Prepare(prog)
					if err != nil {
						t.Fatal(err)
					}
					for _, size := range PaperSizes {
						inSPM := greedyPlacement(prog, size)
						want, err := link.Link(prog, size, inSPM)
						if err != nil {
							t.Fatalf("cap %d: link: %v", size, err)
						}
						got, err := prep.Relink(size, inSPM)
						if err != nil {
							t.Fatalf("cap %d: relink: %v", size, err)
						}
						compareExecutables(t, size, got, want)
						if simSizes[size] {
							compareSimulations(t, size, got, want)
						}
					}
				})
			}
		})
	}
}

func compareExecutables(t *testing.T, size uint32, got, want *link.Executable) {
	t.Helper()
	if got.SPMSize != want.SPMSize || got.EntryAddr != want.EntryAddr || got.MainAddr != want.MainAddr {
		t.Errorf("cap %d: executable header differs", size)
	}
	if len(got.Placements) != len(want.Placements) {
		t.Fatalf("cap %d: placement count %d != %d", size, len(got.Placements), len(want.Placements))
	}
	for i, wp := range want.Placements {
		gp := got.Placements[i]
		if gp.Obj.Name != wp.Obj.Name || gp.Addr != wp.Addr || gp.InSPM != wp.InSPM {
			t.Errorf("cap %d: %s placed (%#x,%v), want (%#x,%v)",
				size, wp.Obj.Name, gp.Addr, gp.InSPM, wp.Addr, wp.InSPM)
		}
		if len(gp.Image) != len(wp.Image) {
			t.Errorf("cap %d: %s image length differs", size, wp.Obj.Name)
			continue
		}
		for j := range wp.Image {
			if gp.Image[j] != wp.Image[j] {
				t.Errorf("cap %d: %s image byte %d: %#x != %#x", size, wp.Obj.Name, j, gp.Image[j], wp.Image[j])
				break
			}
		}
	}
}

func compareSimulations(t *testing.T, size uint32, got, want *link.Executable) {
	t.Helper()
	gres, err := sim.Run(got, sim.Options{})
	if err != nil {
		t.Fatalf("cap %d: relink sim: %v", size, err)
	}
	wres, err := sim.Run(want, sim.Options{})
	if err != nil {
		t.Fatalf("cap %d: link sim: %v", size, err)
	}
	if gres.ExitCode != wres.ExitCode || gres.Cycles != wres.Cycles || gres.Instrs != wres.Instrs {
		t.Errorf("cap %d: simulation diverges: exit %d/%d cycles %d/%d instrs %d/%d",
			size, gres.ExitCode, wres.ExitCode, gres.Cycles, wres.Cycles, gres.Instrs, wres.Instrs)
	}
	// Final data memory must agree byte-for-byte at every data placement.
	for _, pl := range want.Placements {
		if pl.Obj.Kind != obj.Data {
			continue
		}
		for off := uint32(0); off < pl.Obj.Size(); off++ {
			gv, gerr := gres.Mem.Peek(pl.Addr+off, 1)
			wv, werr := wres.Mem.Peek(pl.Addr+off, 1)
			if gerr != nil || werr != nil || gv != wv {
				t.Errorf("cap %d: %s+%d: final memory %d != %d (%v, %v)",
					size, pl.Obj.Name, off, gv, wv, gerr, werr)
				break
			}
		}
	}
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
					prep, err := link.Prepare(base.Prog)
					if err != nil {
						t.Fatal(err)
					}
					cold, err := wcet.NewEngine(prep, wcet.Options{})
					if err != nil {
						t.Fatal(err)
					}
					coldRes := make([]*wcet.Result, 0, len(PaperSizes))
					for _, size := range PaperSizes {
						r, err := cold.Analyze(0, size, greedyPlacement(base.Prog, size), true)
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
					warm, err := wcet.NewEngine(prep, wcet.Options{})
					if err != nil {
						t.Fatal(err)
					}
					if n := warm.ImportState(decoded); n == 0 {
						t.Fatal("no solver state imported")
					}
					for i, size := range PaperSizes {
						r, err := warm.Analyze(0, size, greedyPlacement(base.Prog, size), true)
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
			prep, err := link.Prepare(lab.Prog)
			if err != nil {
				t.Fatal(err)
			}
			opts := wcet.Options{Cache: &cache.Config{Assoc: 1}, StackBound: lab.StackBound}
			cold, err := wcet.NewEngine(prep, opts)
			if err != nil {
				t.Fatal(err)
			}
			coldRes := make([]*wcet.Result, 0, len(PaperSizes))
			for _, size := range PaperSizes {
				r, err := cold.Analyze(size, 0, nil, true)
				if err != nil {
					t.Fatalf("cache %d: cold: %v", size, err)
				}
				coldRes = append(coldRes, r)
			}
			decoded, err := store.DecodeSolverState(store.EncodeSolverState(cold.ExportState()))
			if err != nil {
				t.Fatal(err)
			}
			warm, err := wcet.NewEngine(prep, opts)
			if err != nil {
				t.Fatal(err)
			}
			if n := warm.ImportState(decoded); n == 0 {
				t.Fatal("no solver state imported")
			}
			for i, size := range PaperSizes {
				r, err := warm.Analyze(size, 0, nil, true)
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

// TestRelinkSavesRelocations counter-asserts the delta linker's perf claim
// on G.721: the paper's capacity sweep (both allocators, both placement
// granularities — what `wcetlab all` runs) re-resolves at most half the
// relocations that from-scratch links of the same placements would.
func TestRelinkSavesRelocations(t *testing.T) {
	lab, err := NewLabByName("G.721") // fresh lab: counters isolated from other tests
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := lab.SweepScratchpad(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := lab.SweepWCETAllocation(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := lab.SweepWCETAllocationGran(ctx, alloc.GranBlock); err != nil {
		t.Fatal(err)
	}
	st := lab.Pipe.Stats()
	if st.DeltaLinks == 0 {
		t.Fatal("sweep performed no delta relinks")
	}
	full := st.RelocsResolved + st.RelocsReused // what from-scratch links would resolve
	if st.RelocsResolved == 0 || st.RelocsReused == 0 {
		t.Fatalf("degenerate counters: resolved %d, reused %d", st.RelocsResolved, st.RelocsReused)
	}
	if 2*st.RelocsResolved > full {
		t.Errorf("resolved %d of %d relocation sites; want at least a 2x reduction", st.RelocsResolved, full)
	}
	t.Logf("G.721: %d/%d relocations re-resolved over %d relinks (%d full links)",
		st.RelocsResolved, full, st.DeltaLinks, st.FullLinks)
}
