package pipeline_test

import (
	"context"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/wcet"
)

// stageCase drives one pipeline stage through the runner.
type stageCase struct {
	name string
	// persisted stages have a disk tier; links are memory-only.
	persisted bool
	call      func(p *pipeline.Pipeline) error
	// counts picks the stage's runs, memory hits, disk hits and disk misses.
	counts func(s pipeline.Stats) [4]uint64
}

func stageCases(calls *atomic.Int32) []stageCase {
	ctx := context.Background()
	in := map[string]bool{"a": true}
	policy := countingAllocator{key: "counting|runner", calls: calls}
	return []stageCase{
		{"link", false,
			func(p *pipeline.Pipeline) error { _, err := p.LinkUnits(ctx, nil, 256, in); return err },
			func(s pipeline.Stats) [4]uint64 { return [4]uint64{s.Links, s.LinkHits, 0, 0} }},
		{"simulate", true,
			func(p *pipeline.Pipeline) error { _, err := p.SimulateUnits(ctx, nil, 256, in, nil); return err },
			func(s pipeline.Stats) [4]uint64 { return [4]uint64{s.Sims, s.SimHits, s.SimDiskHits, s.SimDiskMisses} }},
		{"analyze", true,
			func(p *pipeline.Pipeline) error {
				_, err := p.AnalyzeUnits(ctx, nil, 256, in, wcet.Options{})
				return err
			},
			func(s pipeline.Stats) [4]uint64 {
				return [4]uint64{s.Analyses, s.AnalyzeHits, s.AnalyzeDiskHits, s.AnalyzeDiskMisses}
			}},
		{"profile", true,
			func(p *pipeline.Pipeline) error { _, err := p.Profile(ctx); return err },
			func(s pipeline.Stats) [4]uint64 {
				return [4]uint64{s.Profiles, s.ProfileHits, s.ProfileDiskHits, s.ProfileDiskMisses}
			}},
		{"alloc", true,
			func(p *pipeline.Pipeline) error { _, err := p.Allocate(ctx, policy, 256); return err },
			func(s pipeline.Stats) [4]uint64 {
				return [4]uint64{s.Allocs, s.AllocHits, s.AllocDiskHits, s.AllocDiskMisses}
			}},
	}
}

// statsCounts projects Stats onto the registry's stage series.
func statsCounts(s pipeline.Stats) map[string]uint64 {
	return map[string]uint64{
		"link/runs": s.Links, "link/memory/hit": s.LinkHits,
		"simulate/runs": s.Sims, "simulate/memory/hit": s.SimHits,
		"simulate/disk/hit": s.SimDiskHits, "simulate/disk/miss": s.SimDiskMisses,
		"analyze/runs": s.Analyses, "analyze/memory/hit": s.AnalyzeHits,
		"analyze/disk/hit": s.AnalyzeDiskHits, "analyze/disk/miss": s.AnalyzeDiskMisses,
		"profile/runs": s.Profiles, "profile/memory/hit": s.ProfileHits,
		"profile/disk/hit": s.ProfileDiskHits, "profile/disk/miss": s.ProfileDiskMisses,
		"alloc/runs": s.Allocs, "alloc/memory/hit": s.AllocHits,
		"alloc/disk/hit": s.AllocDiskHits, "alloc/disk/miss": s.AllocDiskMisses,
		"upgrades": s.AnalyzeUpgrades, "store_errors": s.StoreErrors,
	}
}

// registryCounts reads one benchmark's pipeline series out of the
// process-wide registry, keyed like statsCounts.
func registryCounts(bench string) map[string]uint64 {
	out := map[string]uint64{}
	for _, f := range obs.Default.Snapshot() {
		for _, s := range f.Samples {
			if s.Label("bench") != bench {
				continue
			}
			switch f.Name {
			case "wcetlab_stage_runs_total":
				out[s.Label("stage")+"/runs"] += uint64(s.Value)
			case "wcetlab_stage_cache_total":
				out[s.Label("stage")+"/"+s.Label("tier")+"/"+s.Label("result")] += uint64(s.Value)
			case "wcetlab_analyze_witness_upgrades_total":
				out["upgrades"] += uint64(s.Value)
			case "wcetlab_store_write_errors_total":
				out["store_errors"] += uint64(s.Value)
			}
		}
	}
	return out
}

// TestStageRunner drives every stage through its three tiers against one
// store: the first request computes, the repeat is a memory hit, and a
// fresh pipeline on the same store is a disk hit (links, which are not
// persisted, compute again). At every step the Stats deltas equal the
// registry deltas.
func TestStageRunner(t *testing.T) {
	var calls atomic.Int32
	for _, tc := range stageCases(&calls) {
		t.Run(tc.name, func(t *testing.T) {
			st := openStore(t)
			bench := "runner-" + tc.name
			prog := compile(t, nil).Prog
			p := pipeline.New(prog, bench, st)
			fresh := pipeline.New(prog, bench, st)

			step := func(label string, p *pipeline.Pipeline, want [4]uint64) {
				t.Helper()
				s0, r0 := p.Stats(), registryCounts(bench)
				if err := tc.call(p); err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				s1, r1 := p.Stats(), registryCounts(bench)
				before, after := tc.counts(s0), tc.counts(s1)
				var got [4]uint64
				for i := range got {
					got[i] = after[i] - before[i]
				}
				if got != want {
					t.Errorf("%s: runs/hits/disk hits/disk misses moved by %v, want %v", label, got, want)
				}
				sc0, sc1 := statsCounts(s0), statsCounts(s1)
				for k := range sc1 {
					if ds, dr := sc1[k]-sc0[k], r1[k]-r0[k]; ds != dr {
						t.Errorf("%s: %s moved by %d in Stats, %d in the registry", label, k, ds, dr)
					}
				}
			}
			cold, warm := [4]uint64{1, 0, 0, 0}, [4]uint64{0, 0, 1, 0}
			if tc.persisted {
				cold[3] = 1
			} else {
				warm = cold
			}
			step("cold", p, cold)
			step("repeat", p, [4]uint64{0, 1, 0, 0})
			step("fresh pipeline", fresh, warm)
		})
	}
}

// TestStageRunnerSingleflight: concurrent requests for one key compute
// once; the rest wait for that computation and count as memory hits.
func TestStageRunnerSingleflight(t *testing.T) {
	var calls atomic.Int32
	for _, tc := range stageCases(&calls) {
		t.Run(tc.name, func(t *testing.T) {
			calls.Store(0)
			p := compile(t, nil)
			const n = 8
			var wg sync.WaitGroup
			for range n {
				wg.Add(1)
				go func() {
					defer wg.Done()
					if err := tc.call(p); err != nil {
						t.Error(err)
					}
				}()
			}
			wg.Wait()
			if got := tc.counts(p.Stats()); got[0] != 1 || got[1] != n-1 {
				t.Errorf("%d concurrent requests: %d runs, %d hits, want 1 and %d", n, got[0], got[1], n-1)
			}
			if tc.name == "alloc" && calls.Load() != 1 {
				t.Errorf("allocator solved %d times, want 1", calls.Load())
			}
		})
	}
}

// TestStatsAdd sets every Stats field and checks Add sums each one.
func TestStatsAdd(t *testing.T) {
	var o pipeline.Stats
	v := reflect.ValueOf(&o).Elem()
	for i := range v.NumField() {
		switch f := v.Field(i); f.Kind() {
		case reflect.Uint64:
			f.SetUint(uint64(i + 1))
		case reflect.Int64:
			f.SetInt(int64(i + 1))
		default:
			t.Fatalf("Stats.%s has kind %s", v.Type().Field(i).Name, f.Kind())
		}
	}
	var sum pipeline.Stats
	sum.Add(o)
	sum.Add(o)
	s := reflect.ValueOf(sum)
	for i := range s.NumField() {
		got := s.Field(i).Interface()
		var want any = uint64(2 * (i + 1))
		if s.Field(i).Kind() == reflect.Int64 {
			want = time.Duration(2 * (i + 1))
		}
		if got != want {
			t.Errorf("Stats.%s = %v after adding %d twice, want %v", s.Type().Field(i).Name, got, i+1, want)
		}
	}
}
