package core_test

import (
	"context"

	"reflect"
	"testing"

	"repro/internal/alloc"
	"repro/internal/benchprog"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/store"
)

// TestWarmStoreSweepDeterminism is the acceptance property of the artifact
// store: with a populated store, a fresh lab (a "second process") sweeps
// both branches without recomputing a single simulation or analysis, and
// every reported measurement is bit-identical to the cold run's.
func TestWarmStoreSweepDeterminism(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}

	cold, err := core.NewLabWithStore(benchprog.WorstCaseSort, st)
	if err != nil {
		t.Fatal(err)
	}
	coldBase, err := cold.Baseline(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	coldSPM, err := cold.SweepScratchpad(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	coldCache, err := cold.SweepCache(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if s := cold.Pipe.Stats(); s.DiskHits() != 0 || s.Sims == 0 || s.Analyses == 0 {
		t.Fatalf("cold run did not populate the store from scratch: %+v", s)
	}

	warm, err := core.NewLabWithStore(benchprog.WorstCaseSort, st)
	if err != nil {
		t.Fatal(err)
	}
	warmBase, err := warm.Baseline(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	warmSPM, err := warm.SweepScratchpad(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	warmCache, err := warm.SweepCache(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	s := warm.Pipe.Stats()
	if s.Sims != 0 || s.Analyses != 0 || s.Profiles != 0 || s.Links != 0 {
		t.Errorf("warm run recomputed stages: sims=%d analyses=%d profiles=%d links=%d, want all 0",
			s.Sims, s.Analyses, s.Profiles, s.Links)
	}
	// Allocation solves persist too (the disk key includes the policy's
	// ConfigKey): a second process re-solves zero knapsacks.
	if s.Allocs != 0 {
		t.Errorf("warm run re-solved %d allocations, want 0", s.Allocs)
	}
	if s.AllocDiskHits == 0 {
		t.Error("warm run served no allocation solves from disk")
	}
	if s.DiskMisses() != 0 {
		t.Errorf("warm run had %d disk misses, want 0", s.DiskMisses())
	}
	if s.DiskHits() == 0 {
		t.Error("warm run reported no disk hits")
	}
	if warmBase != coldBase {
		t.Errorf("baseline differs: %+v vs %+v", warmBase, coldBase)
	}
	if !reflect.DeepEqual(warmSPM, coldSPM) {
		t.Errorf("scratchpad sweep differs:\nwarm %+v\ncold %+v", warmSPM, coldSPM)
	}
	if !reflect.DeepEqual(warmCache, coldCache) {
		t.Errorf("cache sweep differs:\nwarm %+v\ncold %+v", warmCache, coldCache)
	}
}

// TestWarmStoreBlockGranularitySweep: the unit partition is part of every
// stage key and the fixpoint solve itself is a persisted allocation-stage
// entry, so a block-granularity WCET-allocation sweep against a warm store
// recomputes nothing in a fresh lab — zero links, simulations, analyses,
// profiles and allocation solves — with bit-identical comparisons.
func TestWarmStoreBlockGranularitySweep(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cold, err := core.NewLabWithStore(benchprog.WorstCaseSort, st)
	if err != nil {
		t.Fatal(err)
	}
	coldCS, err := cold.SweepWCETAllocationGran(context.Background(), alloc.GranBlock)
	if err != nil {
		t.Fatal(err)
	}
	split := 0
	for _, c := range coldCS {
		split += len(c.Splits)
	}
	if split == 0 {
		t.Fatal("block granularity split nothing on WorstCaseSort (expected wins)")
	}

	warm, err := core.NewLabWithStore(benchprog.WorstCaseSort, st)
	if err != nil {
		t.Fatal(err)
	}
	warmCS, err := warm.SweepWCETAllocationGran(context.Background(), alloc.GranBlock)
	if err != nil {
		t.Fatal(err)
	}
	s := warm.Pipe.Stats()
	if s.Sims != 0 || s.Analyses != 0 || s.Profiles != 0 {
		t.Errorf("warm block sweep recomputed: sims=%d analyses=%d profiles=%d, want all 0",
			s.Sims, s.Analyses, s.Profiles)
	}
	// The WCET-directed fixpoint itself is a persisted allocation stage
	// entry: the warm process re-solves zero knapsacks of either policy.
	if s.Allocs != 0 {
		t.Errorf("warm block sweep re-solved %d allocations, want 0", s.Allocs)
	}
	if s.AllocDiskHits == 0 {
		t.Error("warm block sweep served no allocation solves from disk")
	}
	if s.DiskMisses() != 0 {
		t.Errorf("warm block sweep had %d disk misses, want 0", s.DiskMisses())
	}
	if s.Links != 0 {
		t.Errorf("warm block sweep performed %d links, want 0 (the persisted solve skips HotRegions entirely)", s.Links)
	}
	if !reflect.DeepEqual(warmCS, coldCS) {
		t.Errorf("block-granularity sweep differs:\nwarm %+v\ncold %+v", warmCS, coldCS)
	}
}

// TestLabWithStore: a lab built over a store serves later artifacts —
// the profile included — to other labs on the same directory.
func TestLabWithStore(t *testing.T) {
	dir := t.TempDir()
	labOn := func() *core.Lab {
		st, err := store.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		lab, err := core.NewLabWithStore(benchprog.WorstCaseSort, st)
		if err != nil {
			t.Fatal(err)
		}
		return lab
	}
	lab := labOn()
	if lab.Pipe.Store() == nil {
		t.Fatal("store not attached")
	}
	base, err := lab.Baseline(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	other := labOn()
	got, err := other.Baseline(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got != base {
		t.Errorf("store-served baseline differs: %+v vs %+v", got, base)
	}
	if s := other.Pipe.Stats(); s.Profiles != 0 || s.Sims != 0 || s.Analyses != 0 {
		t.Errorf("second lab recomputed: profiles=%d sims=%d analyses=%d, want 0/0/0", s.Profiles, s.Sims, s.Analyses)
	}
}

// TestResetArtifactsKeepsStore: resetting in-memory artifacts keeps the
// lab's store (a shared resource, not a per-lab cache) and writes nothing
// to it, and the reset lab is served from it.
func TestResetArtifactsKeepsStore(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	lab, err := core.NewLabWithStore(benchprog.WorstCaseSort, st)
	if err != nil {
		t.Fatal(err)
	}
	base, err := lab.Baseline(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	writes := obs.Default.Counter("wcetlab_store_writes_total", "Artifact store entries written.")
	before := writes.Value()
	lab.ResetArtifacts()
	if n := writes.Value() - before; n != 0 {
		t.Errorf("ResetArtifacts wrote %d store entries, want 0", n)
	}
	if lab.Pipe.Store() != st {
		t.Fatal("ResetArtifacts dropped the lab's store")
	}
	got, err := lab.Baseline(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got != base {
		t.Errorf("baseline after reset differs: %+v vs %+v", got, base)
	}
	if s := lab.Pipe.Stats(); s.Sims != 0 || s.Analyses != 0 || s.DiskMisses() != 0 || s.DiskHits() == 0 {
		t.Errorf("reset lab: sims=%d analyses=%d disk hits=%d misses=%d, want 0/0/>0/0",
			s.Sims, s.Analyses, s.DiskHits(), s.DiskMisses())
	}
}

// TestRepeatedSweepMemoizesAllocations: a second identical sweep in one
// process serves every knapsack solve from the allocation stage's memo
// (the ROADMAP's "memoize allocation solves" item).
func TestRepeatedSweepMemoizesAllocations(t *testing.T) {
	lab, err := core.NewLabWithStore(benchprog.WorstCaseSort, nil)
	if err != nil {
		t.Fatal(err)
	}
	first, err := lab.SweepScratchpad(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	s1 := lab.Pipe.Stats()
	if s1.Allocs != uint64(len(core.PaperSizes)) {
		t.Fatalf("first sweep solved %d allocations, want %d", s1.Allocs, len(core.PaperSizes))
	}
	second, err := lab.SweepScratchpad(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	s2 := lab.Pipe.Stats()
	if s2.Allocs != s1.Allocs {
		t.Errorf("second sweep re-solved allocations: %d vs %d", s2.Allocs, s1.Allocs)
	}
	if s2.AllocHits != s1.AllocHits+uint64(len(core.PaperSizes)) {
		t.Errorf("second sweep alloc hits %d, want %d", s2.AllocHits, s1.AllocHits+uint64(len(core.PaperSizes)))
	}
	if !reflect.DeepEqual(first, second) {
		t.Error("memoized sweep differs from the first")
	}
}
