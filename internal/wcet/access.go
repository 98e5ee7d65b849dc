// Package wcet is the WCET analyser — the reproduction's stand-in for the
// commercial tool the paper uses. It follows the same architecture
// (Theiling/Ferdinand-style separated analyses):
//
//  1. CFG reconstruction from the linked binary (internal/cfg);
//  2. microarchitectural analysis: per-block cycle costs from the shared
//     ARM7 timing model and the memory-region annotations; with a cache, an
//     abstract-interpretation MUST analysis classifies accesses (the
//     paper's experimental ARM7 module is MUST-only, no persistence);
//  3. path analysis: implicit path enumeration (IPET) as an integer linear
//     program, solved with internal/ilp.
//
// The key property the paper measures falls out of this structure: for a
// scratchpad, step 2 needs nothing beyond region timings — every access
// cost is a compile-time constant — while for a cache the analysis must
// approximate dynamic state and loses precision on every data access whose
// address is only known as a range.
//
// Engine is the one incremental analyser every production path uses: built
// once per program from its base link.Executable, it re-analyses placements
// (and, with a cache, capacities) by redoing only what changed. A nil
// Options.Cache is its cache-less mode, where accesses are priced by memory
// side and the MUST pass is skipped. Analyze is the from-scratch oracle,
// used only by tests, examples and benchmarks; Engine results are
// bit-identical to it.
package wcet

import (
	"fmt"

	"repro/internal/arm"
	"repro/internal/cfg"
	"repro/internal/link"
	"repro/internal/obj"
)

// accessKind describes how precisely a data access's address is known.
type accessKind uint8

const (
	accExact accessKind = iota // address is a compile-time constant
	accRange                   // address lies in [lo, hi) (array, stack)
)

// dataAccess is one analysed data access of an instruction.
type dataAccess struct {
	kind  accessKind
	addr  uint32 // accExact
	lo    uint32 // accRange
	hi    uint32
	width uint8
	write bool
	inSPM bool
}

// instrAccesses derives the data accesses of one instruction from the
// toolchain's metadata: literal-pool loads have exact PC-relative
// addresses; hinted loads/stores touch their named object's range (exact
// for scalars); frame-pointer/SP-relative accesses and push/pop touch the
// stack region. Anything else is a toolchain convention violation.
func instrAccesses(exe *link.Executable, ci cfg.Instr, stackLo uint32) ([]dataAccess, error) {
	in := ci.In
	if !in.IsLoad() && !in.IsStore() {
		return nil, nil
	}
	spmTop := link.SPMBase + exe.SPMSize

	stackAccesses := func(n int, write bool) []dataAccess {
		out := make([]dataAccess, n)
		for i := range out {
			out[i] = dataAccess{kind: accRange, lo: stackLo, hi: link.StackTop, width: 4, write: write}
		}
		return out
	}

	switch in.Op {
	case arm.OpLdrPC:
		addr := ((ci.Addr + 4) &^ 3) + uint32(in.Imm)
		return []dataAccess{{
			kind: accExact, addr: addr, width: 4,
			inSPM: exe.SPMSize > 0 && addr < spmTop,
		}}, nil
	case arm.OpPush:
		return stackAccesses(in.RegCount(), true), nil
	case arm.OpPop:
		return stackAccesses(in.RegCount(), false), nil
	case arm.OpStmia:
		return stackAccesses(in.RegCount(), true), nil
	case arm.OpLdmia:
		return stackAccesses(in.RegCount(), false), nil
	case arm.OpLdrSP:
		return stackAccesses(1, false), nil
	case arm.OpStrSP:
		return stackAccesses(1, true), nil
	}

	if ci.Hint != "" {
		pl := exe.Placement(ci.Hint)
		if pl == nil {
			return nil, fmt.Errorf("wcet: %#x: access hint %q not placed", ci.Addr, ci.Hint)
		}
		da := dataAccess{
			width: in.AccessWidth(),
			write: in.IsStore(),
			inSPM: pl.InSPM,
		}
		if pl.Obj.Kind == obj.Data && pl.Obj.Size() == uint32(pl.Obj.ElemWidth) {
			da.kind, da.addr = accExact, pl.Addr
		} else {
			da.kind, da.lo, da.hi = accRange, pl.Addr, pl.End()
		}
		return []dataAccess{da}, nil
	}

	// Frame-pointer relative (the code generator reserves r7 as FP).
	if in.Rs == 7 {
		switch in.Op {
		case arm.OpLdrImm, arm.OpLdrReg:
			return stackAccesses(1, false), nil
		case arm.OpStrImm, arm.OpStrReg:
			return stackAccesses(1, true), nil
		}
	}
	return nil, fmt.Errorf("wcet: %#x: %s has no address information (missing access hint)",
		ci.Addr, in.Disasm(ci.Addr))
}
