package sim_test

import (
	"fmt"

	"repro/internal/arm"
	"repro/internal/cache"
	"repro/internal/link"
	"repro/internal/mem"
	"repro/internal/sim"
)

// refBus is the reference cache timing RunCaches must reproduce: a memory
// system that prices its own main-memory reads through one cache.Cache,
// HitCycles on a hit and MissCycles on a miss, where the plain system
// charges main-memory cost. A main-memory write costs main-memory cost and
// refreshes the line if cached. An instruction cache sees only fetches;
// scratchpad accesses bypass the cache.
type refBus struct {
	*mem.System
	c *cache.Cache
}

// cached reports whether an access of size bytes at addr goes through the
// cache.
func (b *refBus) cached(addr uint32, size uint8, fetch bool) bool {
	spm := b.SPM != nil && b.SPM.Contains(addr, size)
	return !spm && (fetch || !b.c.Config().InstructionOnly)
}

func (b *refBus) Read(addr uint32, size uint8, fetch bool) (uint32, int, error) {
	v, cyc, err := b.System.Read(addr, size, fetch)
	if err != nil || !b.cached(addr, size, fetch) {
		return v, cyc, err
	}
	if b.c.Read(addr) {
		return v, cache.HitCycles, nil
	}
	return v, cache.MissCycles, nil
}

func (b *refBus) Write(addr uint32, size uint8, val uint32) (int, error) {
	cyc, err := b.System.Write(addr, size, val)
	if err == nil && b.cached(addr, size, false) {
		b.c.Write(addr)
	}
	return cyc, err
}

// refRun runs exe under one cache configuration on the reference bus.
func refRun(exe *link.Executable, cfg cache.Config) (*sim.Result, error) {
	c, err := cache.New(cfg)
	if err != nil {
		return nil, err
	}
	cpu := arm.NewCPU(&refBus{exe.NewMemory(), c}, exe.EntryAddr, link.StackTop)
	if err := cpu.Run(sim.DefaultMaxInstrs); err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	return &sim.Result{Cycles: cpu.Cycles, Instrs: cpu.Instrs, CacheHits: c.Hits, CacheMisses: c.Misses, ExitCode: cpu.R[0]}, nil
}
