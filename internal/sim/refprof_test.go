package sim_test

import (
	"fmt"

	"repro/internal/arm"
	"repro/internal/link"
	"repro/internal/mem"
	"repro/internal/sim"
)

// access is one memory access as the reference profiler observes it.
type access struct {
	Addr  uint32
	Size  uint8
	Fetch bool
}

// refProfBus is the reference profiler CollectProfile must reproduce: a
// memory system that shows every access, before serving it, to an observer
// closure. refProfile's closure attributes it to the stack or to the
// placement FindAddr finds at its address.
type refProfBus struct {
	*mem.System
	observe func(access)
}

func (b *refProfBus) Read(addr uint32, size uint8, fetch bool) (uint32, int, error) {
	b.observe(access{Addr: addr, Size: size, Fetch: fetch})
	return b.System.Read(addr, size, fetch)
}

func (b *refProfBus) Write(addr uint32, size uint8, val uint32) (int, error) {
	b.observe(access{Addr: addr, Size: size})
	return b.System.Write(addr, size, val)
}

// refProfile profiles exe on the reference bus.
func refProfile(exe *link.Executable) (*sim.Profile, error) {
	prof := &sim.Profile{
		ByObject:     make(map[string]*mem.Accesses, len(exe.Placements)),
		MinStackAddr: link.StackTop,
	}
	for _, pl := range exe.Placements {
		prof.ByObject[pl.Obj.Name] = &mem.Accesses{}
	}
	// Consecutive accesses mostly hit the same object, so the last
	// placement and its counters are checked before the address search.
	var lastPl *link.Placement
	var lastOp *mem.Accesses
	observe := func(a access) {
		if a.Addr >= link.StackBase && a.Addr < link.StackTop {
			prof.StackAccesses++
			if a.Addr < prof.MinStackAddr {
				prof.MinStackAddr = a.Addr
			}
			return
		}
		pl, op := lastPl, lastOp
		if pl == nil || !pl.Contains(a.Addr) {
			if pl = exe.FindAddr(a.Addr); pl == nil {
				return
			}
			op = prof.ByObject[pl.Obj.Name]
			lastPl, lastOp = pl, op
		}
		if a.Fetch {
			op.Fetches++
		} else {
			op.Add(a.Size, 1)
		}
	}
	bus := &refProfBus{exe.NewMemory(), observe}
	cpu := arm.NewCPU(bus, exe.EntryAddr, link.StackTop)
	if err := cpu.Run(sim.DefaultMaxInstrs); err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	prof.Result = &sim.Result{Cycles: cpu.Cycles, Instrs: cpu.Instrs, ExitCode: cpu.R[0], Mem: bus.System}
	return prof, nil
}
