package pipeline_test

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/arm"
	"repro/internal/asm"
	"repro/internal/benchprog"
	"repro/internal/cache"
	"repro/internal/cc"
	"repro/internal/obj"
	"repro/internal/pipeline"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/testgen"
)

// sweepCapacities is every direct-mapped capacity from 16 B to 64 KB.
func sweepCapacities() []cache.Config {
	var cfgs []cache.Config
	for size := uint32(16); size <= 64<<10; size <<= 1 {
		cfgs = append(cfgs, cache.Config{Size: size, Assoc: 1})
	}
	return cfgs
}

// TestSimulateCachesOracleBenchmarks: on every benchmark, one batch over
// every capacity from 16 B to 64 KB prices each exactly as a
// single-configuration pass, from one interpreter pass.
func TestSimulateCachesOracleBenchmarks(t *testing.T) {
	for _, b := range append(benchprog.All(), benchprog.WorstCaseSort) {
		prog, err := cc.Compile(b.Source)
		if err != nil {
			t.Fatal(err)
		}
		p := pipeline.New(prog)
		cfgs := sweepCapacities()
		got, err := p.SimulateCaches(context.Background(), nil, 0, nil, cfgs)
		if err != nil {
			t.Fatal(err)
		}
		for i := range cfgs {
			checkSame(t, fmt.Sprintf("%s %d B", b.Name, cfgs[i].Size), got[i], oracle(t, prog, 0, nil, &cfgs[i]))
		}
		if s := p.Stats(); s.Sims != uint64(len(cfgs)) || s.SimsSwept != s.Sims {
			t.Errorf("%s: %d of %d simulations swept, want %d of %d", b.Name, s.SimsSwept, s.Sims, len(cfgs), len(cfgs))
		}
	}
}

// TestSimulateCachesOracleGenerated: on generated programs, a mixed batch
// — shuffled direct-mapped capacities with a repeat, plus a 2-way, an
// instruction-only and a 32-byte-line cache — equals single-configuration
// passes, all of it priced by one pass. So does the batch under a random
// scratchpad placement, whose accesses bypass the sweep.
func TestSimulateCachesOracleGenerated(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	for trial := 0; trial < 12; trial++ {
		src := testgen.LoopProgram(rng)
		prog, err := cc.Compile(src)
		if err != nil {
			t.Fatalf("trial %d: %v\n%s", trial, err, src)
		}
		p := pipeline.New(prog)
		dm := sweepCapacities()[:9] // 16 B .. 4 KB
		rng.Shuffle(len(dm), func(i, j int) { dm[i], dm[j] = dm[j], dm[i] })
		others := []cache.Config{
			{Size: 256, Assoc: 2}, {Size: 512, InstructionOnly: true}, {Size: 1024, LineSize: 32},
		}
		cfgs := append(append(dm, dm[0]), others...)
		got, err := p.SimulateCaches(context.Background(), nil, 0, nil, cfgs)
		if err != nil {
			t.Fatal(err)
		}
		for i := range cfgs {
			checkSame(t, fmt.Sprintf("trial %d %+v", trial, cfgs[i]), got[i], oracle(t, prog, 0, nil, &cfgs[i]))
		}
		s := p.Stats()
		if n := uint64(len(dm) + len(others)); s.SimsSwept != n || s.Sims != n || s.SimHits != 1 {
			t.Errorf("trial %d: sims=%d swept=%d hits=%d, want %d/%d/1",
				trial, s.Sims, s.SimsSwept, s.SimHits, n, n)
		}

		in := map[string]bool{}
		for _, o := range prog.Objects {
			in[o.Name] = rng.Intn(2) == 0
		}
		swept, err := p.SimulateCaches(context.Background(), nil, 4096, in, cfgs)
		if err != nil {
			t.Fatal(err)
		}
		for i := range cfgs {
			checkSame(t, fmt.Sprintf("trial %d %v %+v", trial, in, cfgs[i]), swept[i], oracle(t, prog, 4096, in, &cfgs[i]))
		}
	}
}

// TestSimulateCachesTiers: a batch is served per configuration through
// both tiers: a batch partly in memory computes only the rest, and a warm
// store answers it with disk hits, linking and running nothing.
func TestSimulateCachesTiers(t *testing.T) {
	ctx := context.Background()
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cfgs := sweepCapacities()[2:10] // 64 B .. 8 KB

	cold := compile(t)
	cold.SetStore(st)
	if _, err := cold.Simulate(ctx, 0, nil, &cfgs[3]); err != nil {
		t.Fatal(err)
	}
	want, err := cold.SimulateCaches(ctx, nil, 0, nil, cfgs)
	if err != nil {
		t.Fatal(err)
	}
	if s := cold.Stats(); s.SimHits != 1 || s.SimsSwept != 8 || s.Sims != 8 {
		t.Errorf("cold: hits=%d swept=%d sims=%d, want 1/8/8", s.SimHits, s.SimsSwept, s.Sims)
	}

	warm := compile(t)
	warm.SetStore(st)
	got, err := warm.SimulateCaches(ctx, nil, 0, nil, cfgs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range cfgs {
		checkSame(t, fmt.Sprintf("warm %d B", cfgs[i].Size), got[i], want[i])
	}
	if s := warm.Stats(); s.Sims != 0 || s.Links != 0 || s.SimDiskHits != uint64(len(cfgs)) {
		t.Errorf("warm: sims=%d links=%d disk hits=%d, want 0/0/%d", s.Sims, s.Links, s.SimDiskHits, len(cfgs))
	}
}

// TestSimulateCachesFailedRun: a run that faults fails every swept
// configuration with the error a single simulation reports, and the
// failure is memoized like one.
func TestSimulateCachesFailedRun(t *testing.T) {
	crt, err := asm.Crt0("main")
	if err != nil {
		t.Fatal(err)
	}
	b := asm.NewBuilder("main")
	b.Op(arm.Instr{Op: arm.OpMovImm, Rd: 1, Imm: 0xF0})
	b.Op(arm.Instr{Op: arm.OpLslImm, Rd: 1, Rs: 1, Imm: 24})
	b.Op(arm.Instr{Op: arm.OpLdrImm, Rd: 0, Rs: 1, Imm: 0}) // unmapped
	b.Op(arm.Instr{Op: arm.OpBx, Rs: arm.LR})
	main, err := b.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	p := pipeline.New(&obj.Program{Objects: []*obj.Object{crt, main}, Entry: "__start", Main: "main"})
	exe, err := p.Link(context.Background(), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	cfgs := sweepCapacities()[2:10]
	_, single := sim.RunCaches(exe, cfgs[:1])
	if single == nil {
		t.Fatal("the faulting program ran to completion")
	}
	for range 2 {
		res, err := p.SimulateCaches(context.Background(), nil, 0, nil, cfgs)
		if err == nil || err.Error() != single.Error() {
			t.Fatalf("batch error %v, single simulation %v", err, single)
		}
		for i, r := range res {
			if r != nil {
				t.Errorf("failed batch served %d B", cfgs[i].Size)
			}
		}
	}
	if s := p.Stats(); s.Sims != uint64(len(cfgs)) || s.SimHits != uint64(len(cfgs)) {
		t.Errorf("sims=%d hits=%d, want %d computed once, then memoized", s.Sims, s.SimHits, len(cfgs))
	}
}

// TestSimulateCachesConcurrent: batches and single simulations racing on
// one pipeline compute every configuration once and agree on it.
func TestSimulateCachesConcurrent(t *testing.T) {
	p := compile(t)
	cfgs := sweepCapacities()[2:10]
	results := make([][]*sim.Result, 4)
	var wg sync.WaitGroup
	for g := range results {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if g%2 == 1 {
				if _, err := p.Simulate(context.Background(), 0, nil, &cfgs[g]); err != nil {
					t.Error(err)
				}
			}
			res, err := p.SimulateCaches(context.Background(), nil, 0, nil, cfgs)
			if err != nil {
				t.Error(err)
			}
			results[g] = res
		}()
	}
	wg.Wait()
	for g := range results {
		for i := range cfgs {
			if results[g][i] != results[0][i] {
				t.Errorf("goroutine %d got another %d B result", g, cfgs[i].Size)
			}
		}
	}
	if s := p.Stats(); s.Sims != uint64(len(cfgs)) {
		t.Errorf("%d simulations for %d configurations", s.Sims, len(cfgs))
	}
}

// TestSimulateCachesRejectsInvalid: a batch holding an invalid
// configuration, like a cached Simulate of one, fails with its Validate
// error before any lookup: nothing is linked, run or memoized, and the
// valid configurations of the batch still compute afterwards.
func TestSimulateCachesRejectsInvalid(t *testing.T) {
	ctx := context.Background()
	p := compile(t)
	bad := cache.Config{Size: 1024, Assoc: 3}
	want := bad.Validate()
	cfgs := append(sweepCapacities()[2:4], bad)
	res, err := p.SimulateCaches(ctx, nil, 0, nil, cfgs)
	if err == nil || err.Error() != want.Error() {
		t.Errorf("batch error %v, want %v", err, want)
	}
	for i, r := range res {
		if r != nil {
			t.Errorf("rejected batch served %+v", cfgs[i])
		}
	}
	if _, err := p.Simulate(ctx, 0, nil, &bad); err == nil || err.Error() != want.Error() {
		t.Errorf("single error %v, want %v", err, want)
	}
	if s := p.Stats(); s.Sims+s.SimHits+s.Links != 0 {
		t.Errorf("rejected requests: sims=%d hits=%d links=%d, want none", s.Sims, s.SimHits, s.Links)
	}
	if _, err := p.SimulateCaches(ctx, nil, 0, nil, cfgs[:2]); err != nil {
		t.Error(err)
	}
}
