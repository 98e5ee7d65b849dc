package pipeline_test

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"repro/internal/cache"
	"repro/internal/cc"
	"repro/internal/pipeline"
	"repro/internal/wcet"
)

const testProgram = `
int a[32];

int suma() {
    int s = 0;
    for (int i = 0; i < 32; i += 1) s = s + a[i];
    return s;
}

int main() {
    int s = 0;
    for (int k = 0; k < 4; k += 1) s = s + suma();
    return s & 7;
}
`

func compile(t *testing.T) *pipeline.Pipeline {
	t.Helper()
	prog, err := cc.Compile(testProgram)
	if err != nil {
		t.Fatal(err)
	}
	return pipeline.New(prog)
}

// TestPlacementKeyCanonical: the key must not depend on map iteration
// order or false entries, and the empty placement must normalise to
// capacity 0 (it links/simulates/analyses identically at every capacity).
func TestPlacementKeyCanonical(t *testing.T) {
	a := pipeline.PlacementKey(256, map[string]bool{"x": true, "y": true, "z": false})
	b := pipeline.PlacementKey(256, map[string]bool{"y": true, "x": true})
	if a != b {
		t.Errorf("keys differ for the same placement: %q vs %q", a, b)
	}
	if pipeline.PlacementKey(256, map[string]bool{"x": true}) == pipeline.PlacementKey(512, map[string]bool{"x": true}) {
		t.Error("capacity must be part of a non-empty placement's key")
	}
	for _, size := range []uint32{0, 64, 8192} {
		for _, in := range []map[string]bool{nil, {}, {"x": false}} {
			if got := pipeline.PlacementKey(size, in); got != pipeline.PlacementKey(0, nil) {
				t.Errorf("empty placement at size %d keyed %q, want the normalised key", size, got)
			}
		}
	}
}

// TestMemoization: repeated stage requests for the same key must run the
// underlying tool once and serve the rest from the cache.
func TestMemoization(t *testing.T) {
	p := compile(t)
	in := map[string]bool{"a": true}
	for i := 0; i < 3; i++ {
		if _, err := p.Link(context.Background(), 256, in); err != nil {
			t.Fatal(err)
		}
		if _, err := p.Simulate(context.Background(), 256, in, nil); err != nil {
			t.Fatal(err)
		}
		if _, err := p.Analyze(context.Background(), 256, in, wcet.Options{}); err != nil {
			t.Fatal(err)
		}
	}
	s := p.Stats()
	// Two cold links: the requested placement plus the scratchpad-less base
	// link the analysis context is built from.
	if s.Links != 2 || s.Sims != 1 || s.Analyses != 1 {
		t.Errorf("cold runs: links=%d sims=%d analyses=%d, want 2/1/1", s.Links, s.Sims, s.Analyses)
	}
	if s.ContextBuilds != 1 {
		t.Errorf("context builds = %d, want 1", s.ContextBuilds)
	}
	if s.SimHits != 2 || s.AnalyzeHits != 2 {
		t.Errorf("hits: sim=%d analyze=%d, want 2 each", s.SimHits, s.AnalyzeHits)
	}

	// A different cache configuration is a different simulation artifact.
	if _, err := p.Simulate(context.Background(), 256, in, &cache.Config{Size: 256, Assoc: 1}); err == nil {
		if got := p.Stats().Sims; got != 2 {
			t.Errorf("cache-config simulation not keyed separately: %d runs", got)
		}
	}
}

// TestEmptyPlacementSharedAcrossCapacities: the empty-scratchpad analysis
// is capacity-independent and must be computed once for the whole sweep.
func TestEmptyPlacementSharedAcrossCapacities(t *testing.T) {
	p := compile(t)
	var bounds []uint64
	for _, size := range []uint32{0, 64, 1024, 8192} {
		res, err := p.Analyze(context.Background(), size, nil, wcet.Options{Witness: true})
		if err != nil {
			t.Fatal(err)
		}
		bounds = append(bounds, res.WCET)
	}
	for _, b := range bounds[1:] {
		if b != bounds[0] {
			t.Fatalf("empty-scratchpad bounds differ across capacities: %v", bounds)
		}
	}
	if s := p.Stats(); s.Analyses != 1 || s.AnalyzeHits != 3 {
		t.Errorf("analyses=%d hits=%d, want 1 run and 3 hits", s.Analyses, s.AnalyzeHits)
	}
}

// TestOneSkeletonPerPartition: analysing one partition cache-less and
// under direct-mapped, 2-way and 4-way caches builds four engines on one
// analysis skeleton, and the results equal a fresh pipeline's per mode.
func TestOneSkeletonPerPartition(t *testing.T) {
	p := compile(t)
	modes := []*cache.Config{nil, {Size: 256, Assoc: 1}, {Size: 256, Assoc: 2}, {Size: 256, Assoc: 4}}
	in := map[string]bool{"a": true}
	for _, mode := range modes {
		got, err := p.Analyze(context.Background(), 512, in, wcet.Options{Cache: mode, Witness: true})
		if err != nil {
			t.Fatal(err)
		}
		alone := pipeline.New(p.Prog)
		want, err := alone.Analyze(context.Background(), 512, in, wcet.Options{Cache: mode, Witness: true})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("mode %+v: shared-skeleton result %+v != fresh pipeline's %+v", mode, got, want)
		}
	}
	s := p.Stats()
	if s.SkeletonBuilds != 1 || s.SkeletonReuses != 3 {
		t.Errorf("skeletons: %d built, %d reused, want 1/3", s.SkeletonBuilds, s.SkeletonReuses)
	}
	if s.ContextBuilds != 1 || s.CacheContextBuilds != 3 {
		t.Errorf("engines: %d cache-less, %d cache, want 1/3", s.ContextBuilds, s.CacheContextBuilds)
	}
	// Another root is another skeleton.
	if _, err := p.Analyze(context.Background(), 0, nil, wcet.Options{Root: "suma"}); err != nil {
		t.Fatal(err)
	}
	if s := p.Stats(); s.SkeletonBuilds != 2 {
		t.Errorf("skeletons after a second root: %d, want 2", s.SkeletonBuilds)
	}
}

// TestWitnessUpgrade: a witness-less cached analysis is re-run in place
// when a witness is first requested (counted as an upgrade), and a
// witness-bearing result serves witness-less requests with the same bound.
func TestWitnessUpgrade(t *testing.T) {
	p := compile(t)
	plain, err := p.Analyze(context.Background(), 0, nil, wcet.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if plain.Witness != nil {
		t.Fatal("witness-less analysis produced a witness")
	}
	up, err := p.Analyze(context.Background(), 0, nil, wcet.Options{Witness: true})
	if err != nil {
		t.Fatal(err)
	}
	if up.Witness == nil {
		t.Fatal("witness upgrade produced no witness")
	}
	if up.WCET != plain.WCET {
		t.Fatalf("upgrade changed the bound: %d vs %d", up.WCET, plain.WCET)
	}
	again, err := p.Analyze(context.Background(), 0, nil, wcet.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if again != up {
		t.Error("witness-bearing result must serve witness-less requests")
	}
	s := p.Stats()
	if s.Analyses != 2 || s.AnalyzeUpgrades != 1 || s.AnalyzeHits != 1 {
		t.Errorf("analyses=%d upgrades=%d hits=%d, want 2/1/1", s.Analyses, s.AnalyzeUpgrades, s.AnalyzeHits)
	}
}

// TestConcurrentSingleflight: concurrent requests for one key must compute
// the artifact exactly once and all receive the same result.
func TestConcurrentSingleflight(t *testing.T) {
	p := compile(t)
	const n = 16
	results := make([]*wcet.Result, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := p.Analyze(context.Background(), 512, map[string]bool{"a": true}, wcet.Options{Witness: true})
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = res
		}()
	}
	wg.Wait()
	for _, r := range results[1:] {
		if r != results[0] {
			t.Fatal("concurrent requests returned distinct artifacts")
		}
	}
	if s := p.Stats(); s.Analyses != 1 {
		t.Errorf("%d analyses for one key under concurrency, want 1", s.Analyses)
	}
}

// TestProfileMemoizedAndPrimable: the profile stage runs once, and
// PrimeProfile seeds a fresh pipeline without re-profiling.
func TestProfileMemoizedAndPrimable(t *testing.T) {
	p := compile(t)
	prof, err := p.Profile(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Profile(context.Background()); err != nil {
		t.Fatal(err)
	}
	if s := p.Stats(); s.Profiles != 1 || s.ProfileHits != 1 {
		t.Errorf("profiles=%d hits=%d, want 1/1", s.Profiles, s.ProfileHits)
	}
	fresh := pipeline.New(p.Prog)
	fresh.PrimeProfile(prof)
	got, err := fresh.Profile(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got != prof {
		t.Error("primed profile not returned")
	}
	if s := fresh.Stats(); s.Profiles != 0 {
		t.Errorf("primed pipeline re-profiled %d times", s.Profiles)
	}
}
