package wcet

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/cache"
	"repro/internal/cc"
	"repro/internal/link"
	"repro/internal/testgen"
)

// TestFuzzSoundnessAcrossConfigs: for random programs and every memory
// configuration, the WCET bound must cover the simulation, the program
// result must be configuration-independent, and the incremental engine
// must reproduce the from-scratch analysis exactly. Each trial runs its
// cache-less configurations in sequence through one engine (exercising
// delta repricing) and its cache configurations through one engine per
// cache shape, all on one skeleton.
func TestFuzzSoundnessAcrossConfigs(t *testing.T) {
	rng := rand.New(rand.NewSource(20050307))
	const trials = 12
	for trial := 0; trial < trials; trial++ {
		src := testgen.LoopProgram(rng)
		prog, err := cc.Compile(src)
		if err != nil {
			t.Fatalf("trial %d: compile: %v\n%s", trial, err, src)
		}
		base, err := link.Link(prog, 0, nil)
		if err != nil {
			t.Fatalf("trial %d: link: %v", trial, err)
		}

		type config struct {
			name  string
			spm   uint32
			inSPM map[string]bool
			cache *cache.Config
		}
		configs := []config{
			{name: "plain"},
			{name: "spm-code", spm: 2048, inSPM: map[string]bool{"main": true, "mix": true}},
			{name: "spm-data", spm: 2048, inSPM: map[string]bool{"tbl": true, "bias": true}},
			{name: "cache-128", cache: &cache.Config{Size: 128}},
			{name: "cache-1k-2way", cache: &cache.Config{Size: 1024, Assoc: 2}},
			{name: "icache-512", cache: &cache.Config{Size: 512, InstructionOnly: true}},
			{name: "spm-data+cache-1k", spm: 2048, inSPM: map[string]bool{"tbl": true, "bias": true}, cache: &cache.Config{Size: 1024}},
		}
		sk, err := NewSkeleton(base)
		if err != nil {
			t.Fatalf("trial %d: skeleton: %v", trial, err)
		}
		engines := make(map[string]*Engine)
		var wantExit uint32
		for ci, cfg := range configs {
			exe, err := link.Link(prog, cfg.spm, cfg.inSPM)
			if err != nil {
				t.Fatalf("trial %d %s: link: %v", trial, cfg.name, err)
			}
			res, err := simulate(exe, cfg.cache)
			if err != nil {
				t.Fatalf("trial %d %s: run: %v\n%s", trial, cfg.name, err, src)
			}
			if ci == 0 {
				wantExit = res.ExitCode
			} else if res.ExitCode != wantExit {
				t.Fatalf("trial %d %s: result %d differs from plain %d — memory config changed semantics\n%s",
					trial, cfg.name, res.ExitCode, wantExit, src)
			}
			opts := Options{Cache: cfg.cache, StackBound: 512, Witness: true}
			wres, err := Analyze(exe, opts)
			if err != nil {
				t.Fatalf("trial %d %s: analyse: %v\n%s", trial, cfg.name, err, src)
			}
			if wres.WCET < res.Cycles {
				t.Fatalf("trial %d %s: UNSOUND: WCET %d < sim %d\n%s",
					trial, cfg.name, wres.WCET, res.Cycles, src)
			}

			shape, cacheSize := "none", uint32(0)
			if cfg.cache != nil {
				cc := cfg.cache.WithDefaults()
				shape, cacheSize = fmt.Sprintf("%d/%d/%v", cc.LineSize, cc.Assoc, cc.InstructionOnly), cc.Size
			}
			e := engines[shape]
			if e == nil {
				if e, err = sk.Engine(opts); err != nil {
					t.Fatalf("trial %d %s: engine: %v", trial, cfg.name, err)
				}
				engines[shape] = e
			}
			inc, err := e.Analyze(context.Background(), cacheSize, cfg.spm, cfg.inSPM, true)
			if err != nil {
				t.Fatalf("trial %d %s: engine analyse: %v", trial, cfg.name, err)
			}
			if !reflect.DeepEqual(inc, wres) {
				t.Fatalf("trial %d %s: engine %+v != from-scratch %+v\n%s", trial, cfg.name, inc, wres, src)
			}
		}
	}
}
