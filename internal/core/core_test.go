package core

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/alloc"
	"repro/internal/benchprog"
	"repro/internal/pipeline"
)

// labFor caches compiled labs per benchmark across tests in this package.
var labCache = map[string]*Lab{}

func labFor(t *testing.T, name string) *Lab {
	t.Helper()
	if l, ok := labCache[name]; ok {
		return l
	}
	l, err := NewLabByName(name)
	if err != nil {
		t.Fatal(err)
	}
	labCache[name] = l
	return l
}

// TestScratchpadSweepShape verifies the paper's Figure 3a shape on G.721:
// simulated time and WCET both decrease monotonically (weakly) with
// scratchpad capacity, and the WCET/sim ratio stays near-constant.
func TestScratchpadSweepShape(t *testing.T) {
	l := labFor(t, "G.721")
	ms, err := l.SweepScratchpad(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	base, err := l.Baseline(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	prevSim, prevWCET := base.SimCycles, base.WCET
	var minRatio, maxRatio float64
	for i, m := range ms {
		if m.SimCycles > prevSim {
			t.Errorf("spm %d: sim cycles rose: %d > %d", m.SPMSize, m.SimCycles, prevSim)
		}
		if m.WCET > prevWCET {
			t.Errorf("spm %d: WCET rose: %d > %d", m.SPMSize, m.WCET, prevWCET)
		}
		prevSim, prevWCET = m.SimCycles, m.WCET
		r := m.Ratio()
		if i == 0 {
			minRatio, maxRatio = r, r
		}
		if r < minRatio {
			minRatio = r
		}
		if r > maxRatio {
			maxRatio = r
		}
		t.Logf("spm %5d: sim %8d wcet %8d ratio %.3f (%d objects, %d bytes)",
			m.SPMSize, m.SimCycles, m.WCET, r, m.SPMObjects, m.SPMUsed)
	}
	// "The difference between average case simulation and WCET analysis
	// results remains constant for all scratchpad memory sizes."
	if maxRatio/minRatio > 1.25 {
		t.Errorf("SPM WCET/sim ratio varies too much: %.3f .. %.3f", minRatio, maxRatio)
	}
	// The largest scratchpad must give a real speedup over the baseline.
	last := ms[len(ms)-1]
	if float64(last.SimCycles) > 0.8*float64(base.SimCycles) {
		t.Errorf("8K scratchpad speedup too small: %d vs baseline %d", last.SimCycles, base.SimCycles)
	}
}

// TestCacheSweepShape verifies the paper's Figure 3b shape on G.721: the
// simulation speeds up with cache size, while the WCET bound stays high —
// the ratio grows with capacity.
func TestCacheSweepShape(t *testing.T) {
	l := labFor(t, "G.721")
	ms, err := l.SweepCache(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range ms {
		t.Logf("cache %5d: sim %8d wcet %8d ratio %.3f (hits %d misses %d)",
			m.CacheSize, m.SimCycles, m.WCET, m.Ratio(), m.CacheHits, m.CacheMisses)
	}
	small, big := ms[0], ms[len(ms)-1]
	if big.SimCycles >= small.SimCycles {
		t.Errorf("large cache not faster in simulation: %d >= %d", big.SimCycles, small.SimCycles)
	}
	if big.Ratio() <= small.Ratio() {
		t.Errorf("cache ratio did not grow with size: %.3f -> %.3f", small.Ratio(), big.Ratio())
	}
	// WCET stays "at a very high level": the best cache WCET must remain
	// well above the best cache simulation.
	if float64(big.WCET) < 1.5*float64(big.SimCycles) {
		t.Errorf("cache WCET %d too close to simulation %d for a MUST-only analysis",
			big.WCET, big.SimCycles)
	}
}

// TestScratchpadBeatsCacheOnWCET: the paper's conclusion — for every
// capacity, the scratchpad system's WCET bound beats the cache system's.
func TestScratchpadBeatsCacheOnWCET(t *testing.T) {
	l := labFor(t, "ADPCM")
	spms, err := l.SweepScratchpad(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	caches, err := l.SweepCache(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for i := range spms {
		if spms[i].WCET >= caches[i].WCET {
			t.Errorf("capacity %d: scratchpad WCET %d not below cache WCET %d",
				spms[i].SPMSize, spms[i].WCET, caches[i].WCET)
		}
	}
}

// TestEnergyDecreasesWithScratchpad: the allocation objective must be
// reflected in the modelled energy.
func TestEnergyDecreasesWithScratchpad(t *testing.T) {
	l := labFor(t, "MultiSort")
	ms, err := l.SweepScratchpad(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	prev := l.Model.ProgramEnergy(l.Prog, l.Profile, nil)
	for _, m := range ms {
		if m.Energy > prev+1e-6 {
			t.Errorf("spm %d: energy rose: %.1f > %.1f", m.SPMSize, m.Energy, prev)
		}
		prev = m.Energy
	}
}

// TestBaselineMatchesZeroSizedConfigs: baseline == scratchpad sweep with an
// empty allocation in the limit (the 64-byte allocation may already help,
// so only check the baseline itself is consistent between calls).
func TestBaselineDeterministic(t *testing.T) {
	l := labFor(t, "MultiSort")
	a, err := l.Baseline(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	b, err := l.Baseline(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if a.SimCycles != b.SimCycles || a.WCET != b.WCET {
		t.Fatalf("baseline not deterministic: %+v vs %+v", a, b)
	}
}

// TestSetAssociativeAblation: the §5 future-work configuration — a 2-way
// LRU cache — simulates with fewer conflict misses and is analysed with
// the aging MUST domain; the bound must stay sound.
func TestSetAssociativeAblation(t *testing.T) {
	l := labFor(t, "ADPCM")
	dm, err := l.WithCache(context.Background(), 256, 1)
	if err != nil {
		t.Fatal(err)
	}
	sa, err := l.WithCache(context.Background(), 256, 2)
	if err != nil {
		t.Fatal(err)
	}
	if sa.WCET < sa.SimCycles {
		t.Errorf("2-way WCET %d below simulation %d (unsound)", sa.WCET, sa.SimCycles)
	}
	t.Logf("256B cache: direct-mapped sim %d wcet %d (%d misses), 2-way LRU sim %d wcet %d (%d misses)",
		dm.SimCycles, dm.WCET, dm.CacheMisses, sa.SimCycles, sa.WCET, sa.CacheMisses)
}

// TestInstructionCacheAblation: the §5 future-work instruction cache —
// data bypasses the cache, so the MUST analysis never loses instruction
// classification to unknown data addresses and the WCET bound is tighter
// than the unified cache's at the same capacity.
func TestInstructionCacheAblation(t *testing.T) {
	l := labFor(t, "ADPCM")
	unified, err := l.WithCache(context.Background(), 1024, 1)
	if err != nil {
		t.Fatal(err)
	}
	icache, err := l.WithInstructionCache(context.Background(), 1024)
	if err != nil {
		t.Fatal(err)
	}
	if icache.WCET < icache.SimCycles {
		t.Fatalf("icache WCET %d below simulation %d (unsound)", icache.WCET, icache.SimCycles)
	}
	if icache.WCET >= unified.WCET {
		t.Errorf("icache WCET %d not tighter than unified %d", icache.WCET, unified.WCET)
	}
	t.Logf("1KB: unified sim %d wcet %d (ratio %.2f); icache sim %d wcet %d (ratio %.2f)",
		unified.SimCycles, unified.WCET, unified.Ratio(),
		icache.SimCycles, icache.WCET, icache.Ratio())
}

// TestSweepWCETAllocationNoDuplicateAnalyses: the ROADMAP's ~16 redundant
// link+analyse runs per WCET-allocation sweep are gone. The pipeline's
// counters prove it three ways: no analysis is ever re-run to attach a
// witness (upgrades), the redundancy the old implementation recomputed
// (seed analyses, per-size empty baselines, measurement re-analyses) is
// served from the cache, and a full second sweep adds zero cold runs.
func TestSweepWCETAllocationNoDuplicateAnalyses(t *testing.T) {
	l, err := NewLabByName("MultiSort")
	if err != nil {
		t.Fatal(err)
	}
	first, err := l.SweepWCETAllocation(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	s := l.Pipe.Stats()
	if s.AnalyzeUpgrades != 0 {
		t.Errorf("%d witness upgrades: some placement was analysed twice", s.AnalyzeUpgrades)
	}
	// Old flow per size: 1 energy-seed analysis inside wcetalloc (the
	// measurement layer analysed it again) + 1 capacity-dependent empty
	// baseline; over 8 sizes that is ≥ 16 redundant runs, now cache hits.
	if s.AnalyzeHits < 16 {
		t.Errorf("only %d analysis cache hits; the old redundancy was not deduplicated", s.AnalyzeHits)
	}
	t.Logf("sweep artifacts: %d analyses (%d hits), %d links (%d hits), %d sims (%d hits)",
		s.Analyses, s.AnalyzeHits, s.Links, s.LinkHits, s.Sims, s.SimHits)

	// Re-sweeping may not produce a single new artifact, and the results
	// must be identical.
	second, err := l.SweepWCETAllocation(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	s2 := l.Pipe.Stats()
	if s2.Analyses != s.Analyses || s2.Links != s.Links || s2.Sims != s.Sims {
		t.Errorf("second sweep ran cold stages: analyses %d→%d links %d→%d sims %d→%d",
			s.Analyses, s2.Analyses, s.Links, s2.Links, s.Sims, s2.Sims)
	}
	if !reflect.DeepEqual(first, second) {
		t.Error("repeated sweep changed results")
	}
}

// TestParallelSweepMatchesSequential: every sweep must produce identical,
// order-stable results regardless of the worker pool size.
func TestParallelSweepMatchesSequential(t *testing.T) {
	seq, err := NewLabByName("ADPCM")
	if err != nil {
		t.Fatal(err)
	}
	seq.Workers = 1
	par, err := NewLabByName("ADPCM")
	if err != nil {
		t.Fatal(err)
	}
	par.Workers = 8

	spmSeq, err := seq.SweepScratchpad(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	spmPar, err := par.SweepScratchpad(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(spmSeq, spmPar) {
		t.Errorf("scratchpad sweep differs: sequential %+v parallel %+v", spmSeq, spmPar)
	}

	cacheSeq, err := seq.SweepCache(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	cachePar, err := par.SweepCache(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cacheSeq, cachePar) {
		t.Errorf("cache sweep differs: sequential %+v parallel %+v", cacheSeq, cachePar)
	}

	wSeq, err := seq.SweepWCETAllocation(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	wPar, err := par.SweepWCETAllocation(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(wSeq, wPar) {
		t.Errorf("WCET-allocation sweep differs between worker counts")
	}
}

// TestSweepAllBenchmarksMatchesPerLab: the all-benchmarks parallel sweep
// must equal per-benchmark sequential sweeps, in registry order.
func TestSweepAllBenchmarksMatchesPerLab(t *testing.T) {
	sweeps, err := SweepAllBenchmarksWithStore(context.Background(), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	benches := benchprog.All()
	if len(sweeps) != len(benches) {
		t.Fatalf("got %d sweeps for %d benchmarks", len(sweeps), len(benches))
	}
	for i, b := range benches {
		if sweeps[i].Lab.Bench.Name != b.Name {
			t.Fatalf("sweep %d is %s, want registry order %s", i, sweeps[i].Lab.Bench.Name, b.Name)
		}
		l := labFor(t, b.Name)
		l.Workers = 1
		spms, err := l.SweepScratchpad(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(spms, sweeps[i].SPM) {
			t.Errorf("%s: parallel all-benchmarks SPM sweep differs from sequential", b.Name)
		}
	}
}

// TestSweepAllBenchmarksRepeatsWork: with one worker every pool of the
// all-benchmarks sweep runs in one order, so the work each pipeline does —
// blocks re-priced, solver-state hits — is a function of the request
// sequence alone, not only its results. Two sweeps record equal Stats
// (timings aside).
func TestSweepAllBenchmarksRepeatsWork(t *testing.T) {
	run := func() []pipeline.Stats {
		sweeps, err := SweepAllBenchmarksWithStore(context.Background(), 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		out := make([]pipeline.Stats, len(sweeps))
		for i, s := range sweeps {
			st := s.Lab.Pipe.Stats()
			st.LinkTime, st.SimTime, st.AnalyzeTime, st.ProfileTime, st.AllocTime = 0, 0, 0, 0, 0
			out[i] = st
		}
		return out
	}
	first, second := run(), run()
	for i, b := range benchprog.All() {
		if !reflect.DeepEqual(first[i], second[i]) {
			t.Errorf("%s: stats differ between identical sweeps:\n%+v\n%+v", b.Name, first[i], second[i])
		}
	}
}

// TestWithAllocatorWCETNotWorse: the Allocator-interface path must
// preserve the guarantee of the specialised one — the WCET policy is
// seeded with the energy allocation, so its measured bound is never above
// the energy policy's at the same capacity.
func TestWithAllocatorWCETNotWorse(t *testing.T) {
	l := labFor(t, "MultiSort")
	for _, size := range []uint32{128, 512, 2048} {
		em, err := l.WithAllocator(context.Background(), l.EnergyAllocator(), size)
		if err != nil {
			t.Fatal(err)
		}
		wm, err := l.WithAllocator(context.Background(), l.WCETAllocatorGran(alloc.GranObject), size)
		if err != nil {
			t.Fatal(err)
		}
		if wm.WCET > em.WCET {
			t.Errorf("spm %d: WCET policy bound %d above energy policy's %d", size, wm.WCET, em.WCET)
		}
	}
}

// TestWCETAllocationDeterministic: the tie-broken fixpoint must report a
// canonical placement — byte-identical across repeated runs on fresh labs.
func TestWCETAllocationDeterministic(t *testing.T) {
	a, err := NewLabByName("G.721")
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewLabByName("G.721")
	if err != nil {
		t.Fatal(err)
	}
	ca, err := a.WithWCETAllocationGran(context.Background(), 128, alloc.GranObject)
	if err != nil {
		t.Fatal(err)
	}
	cb, err := b.WithWCETAllocationGran(context.Background(), 128, alloc.GranObject)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ca, cb) {
		t.Errorf("WCET allocation not deterministic:\n%+v\nvs\n%+v", ca, cb)
	}
}

func TestAllBenchmarksBaseline(t *testing.T) {
	for _, b := range benchprog.All() {
		l := labFor(t, b.Name)
		m, err := l.Baseline(context.Background())
		if err != nil {
			t.Errorf("%s: %v", b.Name, err)
			continue
		}
		if m.WCET < m.SimCycles {
			t.Errorf("%s: unsound baseline bound", b.Name)
		}
	}
}
