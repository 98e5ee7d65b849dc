package obj_test

// Split-link correctness: a program split at basic-block granularity must
// compute exactly what the unsplit program computes — same exit code, same
// final data memory — under every placement of the fragments. The suite
// splits every natural-loop region of every benchmark (the candidate set
// the block-granularity allocator draws from) and simulates each split
// program with the fragment in main memory and in the scratchpad.

import (
	"sort"
	"testing"

	"repro/internal/benchprog"
	"repro/internal/cc"
	"repro/internal/cfg"
	"repro/internal/link"
	"repro/internal/obj"
	"repro/internal/sim"
	"repro/internal/wcet"
)

// loopRegions enumerates every natural-loop byte range of every function
// reachable from the entry, in deterministic order.
func loopRegions(t *testing.T, prog *obj.Program, exe *link.Executable) []obj.Region {
	t.Helper()
	g, err := cfg.Build(exe)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for n := range g.Funcs {
		names = append(names, n)
	}
	sort.Strings(names)
	var regions []obj.Region
	for _, fn := range names {
		f := g.Funcs[fn]
		for _, l := range f.Loops {
			lo := l.Head.Start - f.Addr
			hi := uint32(0)
			for b := range l.Blocks {
				if b.End-f.Addr > hi {
					hi = b.End - f.Addr
				}
			}
			regions = append(regions, obj.Region{Func: fn, Start: lo, End: hi})
		}
	}
	return regions
}

// dataImage snapshots the final contents of every data object after a run.
func dataImage(t *testing.T, exe *link.Executable, res *sim.Result) map[string][]byte {
	t.Helper()
	out := map[string][]byte{}
	for _, pl := range exe.Placements {
		if pl.Obj.Kind != obj.Data {
			continue
		}
		buf := make([]byte, pl.Obj.Size())
		for i := range buf {
			v, err := res.Mem.Peek(pl.Addr+uint32(i), 1)
			if err != nil {
				t.Fatalf("%s+%d: %v", pl.Obj.Name, i, err)
			}
			buf[i] = byte(v)
		}
		out[pl.Obj.Name] = buf
	}
	return out
}

func sameImages(t *testing.T, what string, a, b map[string][]byte) {
	t.Helper()
	for name, img := range a {
		other, ok := b[name]
		if !ok {
			t.Fatalf("%s: data object %s missing from split program", what, name)
		}
		if string(img) != string(other) {
			t.Errorf("%s: data object %s differs after simulation", what, name)
		}
	}
}

// TestSplitSimulatesIdentically asserts observable equivalence of split and
// unsplit programs on every benchmark: every splittable loop region is
// outlined and the result simulated with the fragment in main memory and in
// the scratchpad; exit code and final data memory must match the unsplit
// run exactly. Runs under -race in CI (make ci).
func TestSplitSimulatesIdentically(t *testing.T) {
	for _, b := range append(benchprog.All(), benchprog.WorstCaseSort) {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			t.Parallel()
			prog, err := cc.Compile(b.Source)
			if err != nil {
				t.Fatal(err)
			}
			exe, err := link.Link(prog, 0, nil)
			if err != nil {
				t.Fatal(err)
			}
			base, err := sim.Run(exe, sim.Options{})
			if err != nil {
				t.Fatal(err)
			}
			baseData := dataImage(t, exe, base)

			split := 0
			for _, r := range loopRegions(t, prog, exe) {
				sp, err := obj.SplitProgram(prog, []obj.Region{r})
				if err != nil {
					continue // unsplittable region (multi-entry, too small, ...)
				}
				split++
				frag := obj.FragmentName(r.Func)
				for _, inSPM := range []map[string]bool{nil, {frag: true}} {
					spmSize := uint32(0)
					if inSPM != nil {
						spmSize = link.SPMMax
					}
					sexe, err := link.Link(sp, spmSize, inSPM)
					if err != nil {
						t.Fatalf("%v (spm=%d): link: %v", r, spmSize, err)
					}
					sres, err := sim.Run(sexe, sim.Options{})
					if err != nil {
						t.Fatalf("%v (spm=%d): sim: %v", r, spmSize, err)
					}
					if sres.ExitCode != base.ExitCode {
						t.Fatalf("%v (spm=%d): exit %d, unsplit %d", r, spmSize, sres.ExitCode, base.ExitCode)
					}
					sameImages(t, r.String(), baseData, dataImage(t, sexe, sres))
					// The analysis of the split system must stay sound.
					wres, err := wcet.Analyze(sexe, wcet.Options{Witness: true})
					if err != nil {
						t.Fatalf("%v (spm=%d): analyze: %v", r, spmSize, err)
					}
					if wres.WCET < sres.Cycles {
						t.Fatalf("%v (spm=%d): unsound bound %d < simulated %d", r, spmSize, wres.WCET, sres.Cycles)
					}
					// A fragment appears in the witness exactly when its
					// blocks run on the worst-case path (a region of a
					// function the worst case skips is rightly absent).
					if inSPM != nil && wres.Witness.ObjectAccesses[frag] == nil && wres.Witness.FuncRuns[r.Func] > 0 {
						t.Logf("%v: on-path function but fragment off the worst-case path", r)
					}
				}
			}
			if split == 0 {
				t.Fatal("no loop region of the benchmark was splittable")
			}
			t.Logf("%s: %d loop regions outlined and verified", b.Name, split)
		})
	}
}

// TestSplitProgramRejects covers the transform's validity checks.
func TestSplitProgramRejects(t *testing.T) {
	prog, err := cc.Compile(benchprog.WorstCaseSort.Source)
	if err != nil {
		t.Fatal(err)
	}
	var fn string
	for _, o := range prog.Objects {
		if o.Kind == obj.Code && o.CodeSize > 64 {
			fn = o.Name
			break
		}
	}
	if fn == "" {
		t.Fatal("no sizable function")
	}
	cases := []struct {
		name string
		rs   []obj.Region
	}{
		{"unknown function", []obj.Region{{Func: "nope", Start: 0, End: 16}}},
		{"empty range", []obj.Region{{Func: fn, Start: 16, End: 16}}},
		{"too small", []obj.Region{{Func: fn, Start: 0, End: 4}}},
		{"whole function", []obj.Region{{Func: fn, Start: 0, End: prog.Object(fn).CodeSize}}},
		{"odd boundary", []obj.Region{{Func: fn, Start: 1, End: 31}}},
		{"beyond code", []obj.Region{{Func: fn, Start: 0, End: prog.Object(fn).CodeSize + 64}}},
		{"duplicate func", []obj.Region{{Func: fn, Start: 0, End: 16}, {Func: fn, Start: 20, End: 36}}},
	}
	for _, tc := range cases {
		if _, err := obj.SplitProgram(prog, tc.rs); err == nil {
			t.Errorf("%s: split unexpectedly succeeded", tc.name)
		}
	}
}

// TestRegionsKeyCanonical: the partition key must not depend on input order.
func TestRegionsKeyCanonical(t *testing.T) {
	a := []obj.Region{{Func: "b", Start: 2, End: 10}, {Func: "a", Start: 4, End: 20}}
	b := []obj.Region{{Func: "a", Start: 4, End: 20}, {Func: "b", Start: 2, End: 10}}
	if obj.RegionsKey(a) != obj.RegionsKey(b) {
		t.Errorf("RegionsKey not canonical: %q vs %q", obj.RegionsKey(a), obj.RegionsKey(b))
	}
	if obj.RegionsKey(nil) != "" {
		t.Errorf("empty partition key = %q, want \"\"", obj.RegionsKey(nil))
	}
}
