package wcet

import (
	"fmt"

	"repro/internal/arm"
	"repro/internal/cache"
	"repro/internal/cfg"
	"repro/internal/link"
	"repro/internal/mem"
)

// costModel computes per-block worst-case cycle costs with the same timing
// rules the simulator uses (fetch + internal cycles + data-access cycles).
// Classification statistics are accumulated for reporting.
type costModel struct {
	exe     *link.Executable
	cc      *cache.Config // nil: region timing only (no cache)
	in      map[*cfg.Block]*mustState
	stackLo uint32
	// pool recycles the per-block walking copy of the MUST state (lazily
	// created; costModel is not used concurrently).
	pool *statePool

	// Static classification counters (cache analysis quality metrics).
	FetchHit    int
	FetchMiss   int
	DataHit     int
	DataMiss    int
	DataWrites  int
	SPMAccesses int
}

// fetchCost prices one halfword instruction fetch; with a cache it
// classifies against (and updates) the walking MUST state.
func (m *costModel) fetchCost(inSPM bool, addr uint32, s *mustState) int64 {
	if inSPM {
		m.SPMAccesses++
		return mem.SPMCycles
	}
	if m.cc == nil {
		return mem.MainHalfCycles
	}
	if s.classifyRead(addr) {
		m.FetchHit++
		return cache.HitCycles
	}
	m.FetchMiss++
	return cache.MissCycles
}

func (m *costModel) dataCost(da dataAccess, s *mustState) int64 {
	if da.inSPM {
		m.SPMAccesses++
		return mem.SPMCycles
	}
	if m.cc == nil || m.cc.InstructionOnly {
		return int64(mem.MainCost(da.width))
	}
	if da.write {
		m.DataWrites++
		return int64(mem.MainCost(da.width))
	}
	if da.kind == accExact {
		if s.classifyRead(da.addr) {
			m.DataHit++
			return cache.HitCycles
		}
		m.DataMiss++
		return cache.MissCycles
	}
	s.clobberRange(da.lo, da.hi)
	m.DataMiss++
	return cache.MissCycles
}

// blockCost walks a block and sums worst-case cycles. Conditional-branch
// penalties are charged on taken edges by the IPET objective, not here.
// Fetches are priced by the placement of the block's *owning object* (its
// placement unit): for a split function, fragment blocks in the scratchpad
// fetch at scratchpad cost while the cold remainder pays main memory.
func (m *costModel) blockCost(f *cfg.Function, b *cfg.Block) (int64, error) {
	fnInSPM := m.exe.Placement(b.Obj).InSPM
	var s *mustState
	if m.cc != nil {
		if m.pool == nil {
			m.pool = newStatePool(*m.cc)
		}
		if st := m.in[b]; st != nil {
			s = m.pool.cloneOf(st)
		} else {
			// Block never reached by the cache analysis (unreachable code):
			// analyse from the cold state, which is sound.
			s = m.pool.top()
		}
		defer m.pool.put(s)
	}
	var total int64
	for _, ci := range b.Instrs {
		total += m.fetchCost(fnInSPM, ci.Addr, s)
		if ci.Size == 4 {
			total += m.fetchCost(fnInSPM, ci.Addr+2, s)
		}
		switch {
		case ci.In.IsLoad():
			total += arm.CyclesLoadInternal
		case ci.In.Op == arm.OpMul:
			total += arm.CyclesMul
		case ci.In.Op == arm.OpSwi:
			total += arm.CyclesSwi
		}
		// Unconditionally taken control transfers are charged here; the
		// conditional branch penalty lives on the taken edge. Cross jumps
		// (`mov pc, r0` trampolines between placement units) are always
		// taken, so their refill penalty lands on the crossing block.
		switch {
		case ci.In.Op == arm.OpB, ci.In.Op == arm.OpBlLo, ci.CallTarget != "", ci.CrossTarget != "":
			total += arm.CyclesBranchTaken
		case ci.In.IsReturn():
			total += arm.CyclesBranchTaken
		}
		das, err := instrAccesses(m.exe, ci, m.stackLo)
		if err != nil {
			return 0, fmt.Errorf("wcet: %s: %w", f.Name, err)
		}
		for _, da := range das {
			total += m.dataCost(da, s)
		}
	}
	return total, nil
}
