package pipeline_test

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/arm"
	"repro/internal/asm"
	"repro/internal/cache"
	"repro/internal/cc"
	"repro/internal/cfg"
	"repro/internal/link"
	"repro/internal/obj"
	"repro/internal/pipeline"
	"repro/internal/sim"
	"repro/internal/testgen"
)

// oracle is the full simulation the pipeline must reproduce: a
// from-scratch link of the placement, run by the interpreter — with a
// cache, as a single-configuration sim.RunCaches pass.
func oracle(t *testing.T, prog *obj.Program, size uint32, in map[string]bool, ccfg *cache.Config) *sim.Result {
	t.Helper()
	exe, err := link.Link(prog, size, in)
	if err != nil {
		t.Fatal(err)
	}
	if ccfg != nil {
		res, err := sim.RunCaches(exe, []cache.Config{*ccfg})
		if err != nil {
			t.Fatal(err)
		}
		return res[0]
	}
	res, err := sim.Run(exe, sim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// checkSame fails unless the pipeline's result has the oracle's counters
// and no memory image.
func checkSame(t *testing.T, what string, got, want *sim.Result) {
	t.Helper()
	if got.Cycles != want.Cycles || got.Instrs != want.Instrs || got.ExitCode != want.ExitCode ||
		got.CacheHits != want.CacheHits || got.CacheMisses != want.CacheMisses {
		t.Errorf("%s: pipeline %+v, full simulation %+v", what, *got, *want)
	}
	if got.Mem != nil {
		t.Errorf("%s: the pipeline served a memory image", what)
	}
}

// TestRetimeOracleGenerated: on generated programs, every whole-object
// cache-less placement is retimed from the profile, and equals full
// simulation.
func TestRetimeOracleGenerated(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(19))
	for trial := 0; trial < 20; trial++ {
		src := testgen.LoopProgram(rng)
		prog, err := cc.Compile(src)
		if err != nil {
			t.Fatalf("trial %d: %v\n%s", trial, err, src)
		}
		p := pipeline.New(prog)
		placements := []map[string]bool{nil}
		all := map[string]bool{}
		for _, o := range prog.Objects {
			placements = append(placements, map[string]bool{o.Name: true})
			all[o.Name] = true
		}
		placements = append(placements, all)
		for i := 0; i < 6; i++ {
			in := map[string]bool{}
			for _, o := range prog.Objects {
				in[o.Name] = rng.Intn(2) == 0
			}
			placements = append(placements, in)
		}
		for _, in := range placements {
			got, err := p.Simulate(ctx, link.SPMMax, in, nil)
			if err != nil {
				t.Fatal(err)
			}
			checkSame(t, pipeline.PlacementKey(link.SPMMax, in), got, oracle(t, prog, link.SPMMax, in, nil))
		}
		if s := p.Stats(); s.Sims == 0 || s.SimsRetimed != s.Sims {
			t.Errorf("trial %d: %d of %d simulations retimed, want all", trial, s.SimsRetimed, s.Sims)
		}
	}
}

// loopRegion returns the byte range of the first natural loop of fn in
// the program's scratchpad-less layout.
func loopRegion(t *testing.T, prog *obj.Program, fn string) obj.Region {
	t.Helper()
	exe, err := link.Link(prog, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	g, err := cfg.Build(exe, prog.Entry)
	if err != nil {
		t.Fatal(err)
	}
	f := g.Funcs[fn]
	if f == nil || len(f.Loops) == 0 {
		t.Fatalf("%s has no loop", fn)
	}
	l := f.Loops[0]
	r := obj.Region{Func: fn, Start: l.Head.Start - f.Addr}
	for b := range l.Blocks {
		r.End = max(r.End, b.End-f.Addr)
	}
	return r
}

// TestRetimeFallbacks: a split partition, a scratchpad with a cache and a
// hand-assembled program run the interpreter, never the closed form, and
// still match full simulation; the cached one is a one-configuration
// cache-sweep pass.
func TestRetimeFallbacks(t *testing.T) {
	ctx := context.Background()

	p := compile(t)
	region := loopRegion(t, p.Prog, "suma")
	split, err := p.SplitProgram([]obj.Region{region})
	if err != nil {
		t.Fatal(err)
	}
	if !p.Prog.PlacementIndependent || split.PlacementIndependent {
		t.Fatal("want the compiled program marked placement-independent and its split not")
	}
	frag := split.Object("suma").Fragments[0]
	in := map[string]bool{frag: true, "a": true}
	got, err := p.SimulateUnits(ctx, []obj.Region{region}, 1024, in, nil)
	if err != nil {
		t.Fatal(err)
	}
	checkSame(t, "split", got, oracle(t, split, 1024, in, nil))

	ccfg := &cache.Config{Size: 256}
	in = map[string]bool{"a": true}
	if got, err = p.Simulate(ctx, 256, in, ccfg); err != nil {
		t.Fatal(err)
	}
	checkSame(t, "scratchpad and cache", got, oracle(t, p.Prog, 256, in, ccfg))
	if s := p.Stats(); s.Sims != 2 || s.SimsRetimed != 0 || s.SimsSwept != 1 {
		t.Errorf("sims=%d retimed=%d swept=%d, want 2/0/1", s.Sims, s.SimsRetimed, s.SimsSwept)
	}

	prog := asmProgram(t)
	ap := pipeline.New(prog)
	in = map[string]bool{"main": true, "counter": true}
	if got, err = ap.Simulate(ctx, 256, in, nil); err != nil {
		t.Fatal(err)
	}
	checkSame(t, "hand-assembled", got, oracle(t, prog, 256, in, nil))
	if s := ap.Stats(); s.Sims != 1 || s.SimsRetimed != 0 {
		t.Errorf("hand-assembled: sims=%d retimed=%d, want 1/0", s.Sims, s.SimsRetimed)
	}
}

// asmProgram is a hand-assembled program that bumps a global and returns
// it: not marked placement-independent.
func asmProgram(t *testing.T) *obj.Program {
	t.Helper()
	crt, err := asm.Crt0("main")
	if err != nil {
		t.Fatal(err)
	}
	b := asm.NewBuilder("main")
	b.Hint("counter")
	b.LoadAddr(1, "counter", 0)
	b.Op(arm.Instr{Op: arm.OpLdrImm, Rd: 0, Rs: 1, Imm: 0})
	b.Op(arm.Instr{Op: arm.OpAddImm8, Rd: 0, Imm: 7})
	b.Op(arm.Instr{Op: arm.OpStrImm, Rd: 0, Rs: 1, Imm: 0})
	b.Op(arm.Instr{Op: arm.OpBx, Rs: arm.LR})
	main, err := b.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	counter := &obj.Object{Name: "counter", Kind: obj.Data, Align: 4, ElemWidth: 4, Data: []byte{5, 0, 0, 0}}
	prog := &obj.Program{Objects: []*obj.Object{crt, main, counter}, Entry: "__start", Main: "main"}
	if prog.PlacementIndependent {
		t.Fatal("a hand-assembled program is marked placement-independent")
	}
	return prog
}

// TestRetimeOverflowLinkError: a placement that does not fit fails with
// the linker's own error on the closed-form path and the interpreter path
// alike, before any profiling or retiming.
func TestRetimeOverflowLinkError(t *testing.T) {
	p := compile(t)
	in := map[string]bool{"a": true, "suma": true, "main": true}
	_, want := link.Link(p.Prog, 64, in)
	if want == nil {
		t.Fatal("placement unexpectedly fits in 64 bytes")
	}
	for _, ccfg := range []*cache.Config{nil, {Size: 256}} {
		_, err := p.Simulate(context.Background(), 64, in, ccfg)
		if err == nil || err.Error() != want.Error() {
			t.Errorf("cache %v: error %v, want %q", ccfg, err, want)
		}
	}
	if s := p.Stats(); s.SimsRetimed != 0 || s.Profiles != 0 {
		t.Errorf("an unlinkable placement retimed %d times and profiled %d", s.SimsRetimed, s.Profiles)
	}
}
