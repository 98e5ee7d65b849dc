package core

import (
	"context"

	"reflect"
	"sort"
	"testing"

	"repro/internal/alloc"
	"repro/internal/benchprog"
	"repro/internal/link"
	"repro/internal/obj"
	"repro/internal/wcet"
)

// greedyPlacement fills the capacity with the program's objects in name
// order — a deterministic, linker-valid placement that differs at every
// capacity, so successive analyses exercise the incremental repricing.
func greedyPlacement(prog *obj.Program, capacity uint32) map[string]bool {
	objects := append([]*obj.Object(nil), prog.Objects...)
	sort.Slice(objects, func(i, j int) bool { return objects[i].Name < objects[j].Name })
	inSPM := map[string]bool{}
	var used uint32
	for _, o := range objects {
		sz := o.Size()
		// Mirror the linker's per-object alignment so the greedy fill
		// never overflows the scratchpad it claims to fit.
		aligned := (used + o.Align - 1) &^ (o.Align - 1)
		if sz == 0 || aligned+sz > capacity {
			continue
		}
		used = aligned + sz
		inSPM[o.Name] = true
	}
	return inSPM
}

// TestIncrementalMatchesFromScratch asserts the tentpole's correctness
// bar: the pipeline's incremental analysis context produces bit-identical
// results — WCET, per-function bounds, and the full witness — to a
// from-scratch wcet.Analyze of the placed link, on every benchmark ×
// paper capacity × placement-unit granularity.
func TestIncrementalMatchesFromScratch(t *testing.T) {
	for _, b := range append(benchprog.All(), benchprog.WorstCaseSort) {
		t.Run(b.Name, func(t *testing.T) {
			t.Parallel()
			lab, err := NewLabWithStore(b, nil)
			if err != nil {
				t.Fatal(err)
			}
			res0, err := lab.Pipe.Analyze(context.Background(), 0, nil, wcet.Options{Witness: true})
			if err != nil {
				t.Fatal(err)
			}
			regions, err := alloc.HotRegions(context.Background(), lab.Pipe, res0.Witness, link.SPMMax)
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
			for _, g := range grans {
				t.Run(g.name, func(t *testing.T) {
					base, err := lab.Pipe.LinkUnits(context.Background(), g.regions, 0, nil)
					if err != nil {
						t.Fatal(err)
					}
					for _, size := range PaperSizes {
						inSPM := greedyPlacement(base.Prog, size)
						inc, err := lab.Pipe.AnalyzeUnits(context.Background(), g.regions, size, inSPM, wcet.Options{Witness: true})
						if err != nil {
							t.Fatalf("cap %d: incremental: %v", size, err)
						}
						exe, err := lab.Pipe.LinkUnits(context.Background(), g.regions, size, inSPM)
						if err != nil {
							t.Fatalf("cap %d: link: %v", size, err)
						}
						ref, err := wcet.Analyze(exe, wcet.Options{Witness: true})
						if err != nil {
							t.Fatalf("cap %d: from-scratch: %v", size, err)
						}
						if inc.WCET != ref.WCET {
							t.Errorf("cap %d: WCET %d != from-scratch %d", size, inc.WCET, ref.WCET)
						}
						if !reflect.DeepEqual(inc.PerFunction, ref.PerFunction) {
							t.Errorf("cap %d: per-function bounds diverge:\nincremental %v\nfrom-scratch %v",
								size, inc.PerFunction, ref.PerFunction)
						}
						if !reflect.DeepEqual(inc.Witness, ref.Witness) {
							t.Errorf("cap %d: witnesses diverge", size)
						}
					}
				})
			}
		})
	}
}

// TestIncrementalRepricingSavesWork counter-asserts the perf claim: over
// a capacity sweep's worth of placements, the engine re-prices at most
// half the blocks a from-scratch run would (every block, every analysis),
// and re-solves at most half the per-function IPET programs.
func TestIncrementalRepricingSavesWork(t *testing.T) {
	for _, name := range []string{"G.721", "ADPCM"} {
		t.Run(name, func(t *testing.T) {
			lab := labFor(t, name)
			base, err := link.Link(lab.Prog, 0, nil)
			if err != nil {
				t.Fatal(err)
			}
			sk, err := wcet.NewSkeleton(base, "")
			if err != nil {
				t.Fatal(err)
			}
			ctx, err := sk.Engine(wcet.Options{})
			if err != nil {
				t.Fatal(err)
			}
			for _, size := range PaperSizes {
				if _, err := ctx.Analyze(context.Background(), 0, size, greedyPlacement(lab.Prog, size), false); err != nil {
					t.Fatalf("cap %d: %v", size, err)
				}
			}
			st := ctx.Stats()
			if st.BlocksTotal == 0 || st.FuncsTotal == 0 {
				t.Fatalf("no work recorded: %+v", st)
			}
			if 2*st.BlocksRepriced > st.BlocksTotal {
				t.Errorf("repriced %d of %d blocks; want at least a 2x reduction",
					st.BlocksRepriced, st.BlocksTotal)
			}
			// Function re-solves save less than repricing does — a changed
			// callee dirties every caller up the call chain — so only a
			// strict reduction is asserted here.
			if st.FuncsSolved >= st.FuncsTotal {
				t.Errorf("re-solved %d of %d functions; want strictly fewer",
					st.FuncsSolved, st.FuncsTotal)
			}
			t.Logf("%s: %d/%d blocks repriced, %d/%d functions re-solved over %d analyses",
				name, st.BlocksRepriced, st.BlocksTotal, st.FuncsSolved, st.FuncsTotal, st.Analyses)
		})
	}
}
