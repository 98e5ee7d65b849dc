package arm_test

import (
	"bytes"
	"context"
	"testing"

	"repro/internal/arm"
	"repro/internal/benchprog"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/link"
	"repro/internal/mem"
)

// fetchBus is a memory system that records the addresses fetched from.
type fetchBus struct {
	*mem.System
	fetched map[uint32]bool
}

func (b *fetchBus) Read(addr uint32, size uint8, fetch bool) (uint32, int, error) {
	if fetch {
		b.fetched[addr] = true
	}
	return b.System.Read(addr, size, fetch)
}

// run executes exe to completion under the given stepper and returns the
// CPU, its final memory system and the number of distinct addresses it
// fetched from. With a cache configuration, the system feeds a sweep over
// it.
func run(t *testing.T, exe *link.Executable, ccfg *cache.Config, step func(*arm.CPU) error) (*arm.CPU, *mem.System, int) {
	t.Helper()
	sys := exe.NewMemory()
	if ccfg != nil {
		var err error
		if sys.Sweep, err = cache.NewSweep([]cache.Config{*ccfg}); err != nil {
			t.Fatal(err)
		}
	}
	bus := &fetchBus{sys, map[uint32]bool{}}
	cpu := arm.NewCPU(bus, exe.EntryAddr, link.StackTop)
	for !cpu.Halted {
		if cpu.Instrs >= 50_000_000 {
			t.Fatal("instruction budget exhausted")
		}
		if err := step(cpu); err != nil {
			t.Fatal(err)
		}
	}
	return cpu, sys, len(bus.fetched)
}

// TestProgramsMatchReference runs every benchmark to completion with both
// Step and the original interpreter, across scratchpad placements and
// cache shapes, and requires identical cycles, instructions, cache hits
// and misses, exit code and final memory. It also requires one decode-memo
// miss per distinct code halfword.
func TestProgramsMatchReference(t *testing.T) {
	ctx := context.Background()
	for _, b := range benchprog.All() {
		t.Run(b.Name, func(t *testing.T) {
			lab, err := core.NewLabWithStore(b, nil)
			if err != nil {
				t.Fatal(err)
			}
			type config struct {
				name  string
				spm   uint32
				cache *cache.Config
			}
			configs := []config{
				{"nospm", 0, nil},
				{"spm1k", 1024, nil},
				{"spm8k", 8192, nil},
				{"dm1k", 0, &cache.Config{Size: 1024}},
				{"4way2k", 0, &cache.Config{Size: 2048, Assoc: 4}},
				{"icache1k", 0, &cache.Config{Size: 1024, InstructionOnly: true}},
			}
			for _, cfg := range configs {
				var inSPM map[string]bool
				if cfg.spm > 0 {
					a, err := lab.Pipe.Allocate(ctx, lab.EnergyAllocator(), cfg.spm)
					if err != nil {
						t.Fatal(err)
					}
					if len(a.Splits) != 0 {
						t.Fatalf("%s: energy allocation split functions", cfg.name)
					}
					inSPM = a.InSPM
				}
				exe, err := link.Link(lab.Prog, cfg.spm, inSPM)
				if err != nil {
					t.Fatal(err)
				}
				got, gotMem, distinct := run(t, exe, cfg.cache, (*arm.CPU).Step)
				want, wantMem, _ := run(t, exe, cfg.cache, arm.RefStep)
				// The memo is sized so that no benchmark suffers a conflict
				// miss: every code halfword is decoded exactly once.
				if got.DecodeMisses != uint64(distinct) {
					t.Errorf("%s: %d decode misses for %d distinct code halfwords", cfg.name, got.DecodeMisses, distinct)
				}
				if got.Cycles != want.Cycles || got.Instrs != want.Instrs || got.R[0] != want.R[0] {
					t.Errorf("%s: cycles/instrs/exit %d/%d/%d, reference %d/%d/%d", cfg.name,
						got.Cycles, got.Instrs, got.R[0], want.Cycles, want.Instrs, want.R[0])
				}
				var hits uint64
				if cfg.cache != nil {
					h, m, c := gotMem.Sweep.Counts(0)
					wh, wm, wc := wantMem.Sweep.Counts(0)
					if h != wh || m != wm || c != wc {
						t.Errorf("%s: cache hits/misses/main cycles %d/%d/%d, reference %d/%d/%d", cfg.name, h, m, c, wh, wm, wc)
					}
					hits = h
				}
				segs, refSegs := append([]*mem.Segment{gotMem.SPM}, gotMem.Main...), append([]*mem.Segment{wantMem.SPM}, wantMem.Main...)
				for i, s := range segs {
					if s != nil && !bytes.Equal(s.Data, refSegs[i].Data) {
						t.Errorf("%s: final %s segment differs from the reference", cfg.name, s.Name)
					}
				}
				if got.Instrs == 0 || (cfg.cache != nil && hits == 0) {
					t.Errorf("%s: degenerate run: %d instructions", cfg.name, got.Instrs)
				}
			}
		})
	}
}
