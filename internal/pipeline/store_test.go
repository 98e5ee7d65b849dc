package pipeline_test

import (
	"context"

	"sync/atomic"
	"testing"

	"repro/internal/pipeline"
	"repro/internal/store"
	"repro/internal/wcet"
)

func openStore(t *testing.T) *store.Store {
	t.Helper()
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestDiskTierWarmPipeline: a fresh pipeline over a warm store must serve
// every simulate/analyse/profile request from disk — zero cold executions,
// zero links — with bounds identical to the cold run's.
func TestDiskTierWarmPipeline(t *testing.T) {
	st := openStore(t)
	in := map[string]bool{"a": true}

	cold := compile(t)
	cold.SetStore(st)
	if _, err := cold.Profile(context.Background()); err != nil {
		t.Fatal(err)
	}
	coldSim, err := cold.Simulate(context.Background(), 256, in, nil)
	if err != nil {
		t.Fatal(err)
	}
	coldRes, err := cold.Analyze(context.Background(), 256, in, wcet.Options{})
	if err != nil {
		t.Fatal(err)
	}
	coldWit, err := cold.Analyze(context.Background(), 0, nil, wcet.Options{Witness: true})
	if err != nil {
		t.Fatal(err)
	}
	cs := cold.Stats()
	if cs.DiskHits() != 0 || cs.DiskMisses() != 4 {
		t.Errorf("cold run: disk hits=%d misses=%d, want 0/4", cs.DiskHits(), cs.DiskMisses())
	}
	if cs.Sims != 1 || cs.Analyses != 2 || cs.Profiles != 1 {
		t.Errorf("cold run: sims=%d analyses=%d profiles=%d, want 1/2/1", cs.Sims, cs.Analyses, cs.Profiles)
	}
	if cs.SimTime <= 0 || cs.AnalyzeTime <= 0 || cs.ProfileTime <= 0 {
		t.Errorf("cold run: stage wall-clock not accounted: %+v", cs)
	}

	warm := pipeline.New(cold.Prog)
	warm.SetStore(st)
	if _, err := warm.Profile(context.Background()); err != nil {
		t.Fatal(err)
	}
	warmSim, err := warm.Simulate(context.Background(), 256, in, nil)
	if err != nil {
		t.Fatal(err)
	}
	warmRes, err := warm.Analyze(context.Background(), 256, in, wcet.Options{})
	if err != nil {
		t.Fatal(err)
	}
	warmWit, err := warm.Analyze(context.Background(), 0, nil, wcet.Options{Witness: true})
	if err != nil {
		t.Fatal(err)
	}
	ws := warm.Stats()
	if ws.Sims != 0 || ws.Analyses != 0 || ws.Profiles != 0 || ws.Links != 0 {
		t.Errorf("warm run recomputed: sims=%d analyses=%d profiles=%d links=%d, want all 0",
			ws.Sims, ws.Analyses, ws.Profiles, ws.Links)
	}
	if ws.DiskHits() != 4 || ws.DiskMisses() != 0 {
		t.Errorf("warm run: disk hits=%d misses=%d, want 4/0", ws.DiskHits(), ws.DiskMisses())
	}
	if warmSim.Cycles != coldSim.Cycles || warmRes.WCET != coldRes.WCET || warmWit.WCET != coldWit.WCET {
		t.Error("warm results differ from cold results")
	}
	if warmWit.Witness == nil {
		t.Error("witness not served from disk")
	}
}

// TestDiskWitnessUpgrade: a disk entry without a witness serves plain
// requests, is upgraded (recomputed and overwritten) when a witness is
// first requested, and then serves witness requests from disk.
func TestDiskWitnessUpgrade(t *testing.T) {
	st := openStore(t)

	cold := compile(t)
	cold.SetStore(st)
	if _, err := cold.Analyze(context.Background(), 0, nil, wcet.Options{}); err != nil {
		t.Fatal(err)
	}

	// Second process: the plain request is a disk hit, the witness request
	// an in-place upgrade that overwrites the disk entry.
	p2 := pipeline.New(cold.Prog)
	p2.SetStore(st)
	if _, err := p2.Analyze(context.Background(), 0, nil, wcet.Options{}); err != nil {
		t.Fatal(err)
	}
	res, err := p2.Analyze(context.Background(), 0, nil, wcet.Options{Witness: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Witness == nil {
		t.Fatal("upgrade produced no witness")
	}
	s2 := p2.Stats()
	if s2.AnalyzeDiskHits != 1 || s2.AnalyzeDiskMisses != 1 {
		t.Errorf("upgrade process: disk hits=%d misses=%d, want 1/1", s2.AnalyzeDiskHits, s2.AnalyzeDiskMisses)
	}
	if s2.Analyses != 1 || s2.AnalyzeUpgrades != 1 {
		t.Errorf("upgrade process: analyses=%d upgrades=%d, want 1/1", s2.Analyses, s2.AnalyzeUpgrades)
	}

	// Third process: the witness request is now a plain disk hit.
	p3 := pipeline.New(cold.Prog)
	p3.SetStore(st)
	res3, err := p3.Analyze(context.Background(), 0, nil, wcet.Options{Witness: true})
	if err != nil {
		t.Fatal(err)
	}
	if res3.Witness == nil || res3.WCET != res.WCET {
		t.Fatal("witness-bearing entry not served from disk")
	}
	if s3 := p3.Stats(); s3.Analyses != 0 || s3.AnalyzeDiskHits != 1 {
		t.Errorf("third process: analyses=%d disk hits=%d, want 0/1", s3.Analyses, s3.AnalyzeDiskHits)
	}
}

// TestWitnessRequirement: a fresh pipeline asking for a witness treats a
// witness-less analysis on disk as stale (TestDiskWitnessUpgrade covers
// the plain request it still serves): it recomputes and overwrites the
// entry, after which a third pipeline's witness request is a disk hit
// carrying the witness.
func TestWitnessRequirement(t *testing.T) {
	st := openStore(t)

	p1 := compile(t)
	p1.SetStore(st)
	plain, err := p1.Analyze(context.Background(), 0, nil, wcet.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if plain.Witness != nil {
		t.Fatal("plain analysis carries a witness")
	}
	p2 := pipeline.New(p1.Prog)
	p2.SetStore(st)
	res, err := p2.Analyze(context.Background(), 0, nil, wcet.Options{Witness: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Witness == nil {
		t.Fatal("witness request answered without a witness")
	}
	if res.WCET != plain.WCET {
		t.Errorf("witness-bearing recompute changed the bound: %d vs %d", res.WCET, plain.WCET)
	}
	if s := p2.Stats(); s.Analyses != 1 || s.AnalyzeDiskHits != 0 || s.AnalyzeDiskMisses != 1 {
		t.Errorf("witness request over a witness-less entry: analyses=%d disk hits=%d misses=%d, want 1/0/1",
			s.Analyses, s.AnalyzeDiskHits, s.AnalyzeDiskMisses)
	}

	p3 := pipeline.New(p1.Prog)
	p3.SetStore(st)
	got, err := p3.Analyze(context.Background(), 0, nil, wcet.Options{Witness: true})
	if err != nil {
		t.Fatal(err)
	}
	if got.Witness == nil || got.WCET != res.WCET {
		t.Fatal("witness-bearing overwrite not served from disk")
	}
	if s := p3.Stats(); s.Analyses != 0 || s.AnalyzeDiskHits != 1 {
		t.Errorf("third pipeline: analyses=%d disk hits=%d, want 0/1", s.Analyses, s.AnalyzeDiskHits)
	}
}

// TestSetStoreFlushesProfile: attaching a store after profiling persists
// the profile, so a later pipeline skips the profiling simulation.
func TestSetStoreFlushesProfile(t *testing.T) {
	st := openStore(t)
	p := compile(t)
	prof, err := p.Profile(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	p.SetStore(st)

	p2 := pipeline.New(p.Prog)
	p2.SetStore(st)
	prof2, err := p2.Profile(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if s := p2.Stats(); s.Profiles != 0 || s.ProfileDiskHits != 1 {
		t.Errorf("profiles=%d disk hits=%d, want 0/1", s.Profiles, s.ProfileDiskHits)
	}
	if prof2.ObservedStackDepth() != prof.ObservedStackDepth() {
		t.Error("flushed profile differs")
	}
}

// countingAllocator is a test policy tracking how often it solves.
type countingAllocator struct {
	key   string
	calls *atomic.Int32
}

func (a countingAllocator) ConfigKey() string { return a.key }
func (a countingAllocator) Allocate(_ context.Context, p *pipeline.Pipeline, capacity uint32) (*pipeline.Allocation, error) {
	a.calls.Add(1)
	return &pipeline.Allocation{InSPM: map[string]bool{}, Used: 0}, nil
}

// TestAllocateMemoized: solves are keyed by (ConfigKey, capacity);
// repeated sweeps hit, distinct capacities and configurations run.
func TestAllocateMemoized(t *testing.T) {
	p := compile(t)
	var calls atomic.Int32
	a := countingAllocator{key: "counting|v=1", calls: &calls}

	for i := 0; i < 3; i++ {
		if _, err := p.Allocate(context.Background(), a, 256); err != nil {
			t.Fatal(err)
		}
	}
	if calls.Load() != 1 {
		t.Errorf("3 identical solves ran %d times, want 1", calls.Load())
	}
	if s := p.Stats(); s.Allocs != 1 || s.AllocHits != 2 {
		t.Errorf("allocs=%d hits=%d, want 1/2", s.Allocs, s.AllocHits)
	}

	if _, err := p.Allocate(context.Background(), a, 512); err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 2 {
		t.Error("a different capacity must be a different solve")
	}
	b := countingAllocator{key: "counting|v=2", calls: &calls}
	if _, err := p.Allocate(context.Background(), b, 256); err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 3 {
		t.Error("a different configuration must be a different solve")
	}

}

// TestOldProfileKeyIsAMiss: a profile stored under the key of the encoding
// without per-width counts is never read; the pipeline profiles afresh.
func TestOldProfileKeyIsAMiss(t *testing.T) {
	st := openStore(t)
	p := compile(t)
	prof, err := p.Profile(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if err := st.SaveProfile(store.ProgramKey(p.Prog), "profile", prof); err != nil {
		t.Fatal(err)
	}
	p2 := pipeline.New(p.Prog)
	p2.SetStore(st)
	if _, err := p2.Profile(context.Background()); err != nil {
		t.Fatal(err)
	}
	if s := p2.Stats(); s.Profiles != 1 || s.ProfileDiskHits != 0 {
		t.Errorf("profiles=%d disk hits=%d, want 1/0", s.Profiles, s.ProfileDiskHits)
	}
}
