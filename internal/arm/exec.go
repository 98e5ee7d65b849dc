package arm

import (
	"fmt"
	"math/bits"
)

// Bus is the memory system seen by the CPU. Every access reports the number
// of cycles it consumed, which is how the memory hierarchy (main-memory
// waitstates, scratchpad, cache) contributes to execution time. fetch marks
// instruction fetches, which the paper's timing model (Table 1) costs as
// 16-bit accesses and which a unified cache treats like any other access.
type Bus interface {
	Read(addr uint32, size uint8, fetch bool) (val uint32, cycles int, err error)
	Write(addr uint32, size uint8, val uint32) (cycles int, err error)
}

// Internal (non-memory) cycle costs of the ARM7TDMI model. The WCET
// analyser's block-cost function uses the same constants so that simulation
// and analysis share one timing model (see internal/wcet).
const (
	// CyclesBranchTaken is the pipeline-refill penalty of any taken branch
	// (B, taken B<cond>, BX, BL, POP {…, pc}, writes to PC).
	CyclesBranchTaken = 2
	// CyclesLoadInternal is the extra internal cycle of any load.
	CyclesLoadInternal = 1
	// CyclesMul is the extra internal cost of MUL (worst-case iterations).
	CyclesMul = 3
	// CyclesSwi is the extra internal cost of SWI.
	CyclesSwi = 2
)

// CPU is an ARM7TDMI executing THUMB code. The zero value is not usable;
// construct with NewCPU.
type CPU struct {
	R [16]uint32 // r0..r12, SP, LR, PC
	// Flags (CPSR condition bits).
	N, Z, C, V bool

	Bus    Bus
	Cycles uint64 // total elapsed cycles
	Instrs uint64 // retired instruction count
	Halted bool

	// DecodeMisses counts fetches whose halfword was not in the decode
	// memo and had to go through Decode.
	DecodeMisses uint64

	// SWI handles software interrupts. The default handler halts on
	// SWI 0 (exit) and reports an error otherwise.
	SWI func(c *CPU, num uint8) error

	// memo caches decoded instructions by fetch address. A slot is reused
	// only while it holds the halfword actually fetched, so a store into
	// code is picked up on the next fetch. It lives and dies with the CPU.
	memo [1 << memoBits]memoEntry
}

// memoBits sizes the decode memo: 2^12 slots span 8 KB of code, 4 KB per
// half (see memoIndex), enough for every benchmark to run without a
// conflict miss.
const memoBits = 12

// memoValid marks an occupied memo slot; the zero slot is empty.
const memoValid = 1 << 16

// memoEntry is one decode-memo slot.
type memoEntry struct {
	key uint32 // memoValid | the fetched halfword
	in  Instr
}

// memoIndex maps a fetch address to its memo slot. The 1 MB region number
// flips the top index bit, so scratchpad code (region 0) and main-memory
// code (region 1), which both start at offset 0 of their region, land in
// different halves of the memo instead of evicting each other.
func memoIndex(addr uint32) uint32 {
	return (addr>>1 ^ addr>>20<<(memoBits-1)) & (1<<memoBits - 1)
}

// NewCPU returns a CPU attached to bus with PC at entry, SP at stackTop and
// the default SWI handler installed.
func NewCPU(bus Bus, entry, stackTop uint32) *CPU {
	c := &CPU{Bus: bus}
	c.R[PC] = entry &^ 1
	c.R[SP] = stackTop
	c.R[LR] = 0 // returning to 0 without SWI 0 is an error
	c.SWI = func(c *CPU, num uint8) error {
		if num == 0 {
			c.Halted = true
			return nil
		}
		return fmt.Errorf("arm: unhandled SWI %d at pc=%#x", num, c.R[PC]-4)
	}
	return c
}

// Err wraps an execution fault with the faulting instruction address.
type Err struct {
	Addr uint32
	Wrap error
}

func (e *Err) Error() string { return fmt.Sprintf("arm: at pc=%#x: %v", e.Addr, e.Wrap) }
func (e *Err) Unwrap() error { return e.Wrap }

// Step fetches, decodes and executes one instruction, advancing Cycles by
// the memory cost of every access plus the instruction's internal cycles.
// The fetch always goes through the bus; only the decode is memoised.
func (c *CPU) Step() error {
	if c.Halted {
		return nil
	}
	instrAddr := c.R[PC]
	if instrAddr&1 != 0 {
		return &Err{instrAddr, fmt.Errorf("misaligned pc")}
	}
	hw, cyc, err := c.Bus.Read(instrAddr, 2, true)
	if err != nil {
		return &Err{instrAddr, fmt.Errorf("fetch: %w", err)}
	}
	c.Cycles += uint64(cyc)
	e := &c.memo[memoIndex(instrAddr)]
	if key := uint32(uint16(hw)) | memoValid; e.key != key {
		e.key, e.in = key, Decode(uint16(hw))
		c.DecodeMisses++
	}
	in := &e.in
	c.R[PC] = instrAddr + 4 // PC reads as instruction address + 4
	nextPC := instrAddr + 2
	branched := false

	switch in.Op {
	case OpLslImm:
		v := c.R[in.Rs]
		if in.Imm != 0 {
			c.C = v&(1<<(32-uint(in.Imm))) != 0
			v <<= uint(in.Imm)
		}
		c.R[in.Rd] = v
		c.setNZ(v)
	case OpLsrImm:
		v := c.R[in.Rs]
		sh := uint(in.Imm)
		if sh == 0 {
			sh = 32
		}
		if sh == 32 {
			c.C = v&(1<<31) != 0
			v = 0
		} else {
			c.C = v&(1<<(sh-1)) != 0
			v >>= sh
		}
		c.R[in.Rd] = v
		c.setNZ(v)
	case OpAsrImm:
		v := c.R[in.Rs]
		sh := uint(in.Imm)
		if sh == 0 {
			sh = 32
		}
		if sh >= 32 {
			c.C = v&(1<<31) != 0
			v = uint32(int32(v) >> 31)
		} else {
			c.C = v&(1<<(sh-1)) != 0
			v = uint32(int32(v) >> sh)
		}
		c.R[in.Rd] = v
		c.setNZ(v)

	case OpAddReg:
		c.R[in.Rd] = c.adc(c.R[in.Rs], c.R[in.Rn], false)
	case OpSubReg:
		c.R[in.Rd] = c.sbc(c.R[in.Rs], c.R[in.Rn], true)
	case OpAddImm3:
		c.R[in.Rd] = c.adc(c.R[in.Rs], uint32(in.Imm), false)
	case OpSubImm3:
		c.R[in.Rd] = c.sbc(c.R[in.Rs], uint32(in.Imm), true)

	case OpMovImm:
		c.R[in.Rd] = uint32(in.Imm)
		c.setNZ(c.R[in.Rd])
	case OpCmpImm:
		c.sbc(c.R[in.Rd], uint32(in.Imm), true)
	case OpAddImm8:
		c.R[in.Rd] = c.adc(c.R[in.Rd], uint32(in.Imm), false)
	case OpSubImm8:
		c.R[in.Rd] = c.sbc(c.R[in.Rd], uint32(in.Imm), true)

	case OpAnd:
		c.R[in.Rd] &= c.R[in.Rs]
		c.setNZ(c.R[in.Rd])
	case OpEor:
		c.R[in.Rd] ^= c.R[in.Rs]
		c.setNZ(c.R[in.Rd])
	case OpLslReg:
		v, amt := c.R[in.Rd], c.R[in.Rs]&0xFF
		switch {
		case amt == 0:
		case amt < 32:
			c.C = v&(1<<(32-amt)) != 0
			v <<= amt
		case amt == 32:
			c.C = v&1 != 0
			v = 0
		default:
			c.C = false
			v = 0
		}
		c.R[in.Rd] = v
		c.setNZ(v)
	case OpLsrReg:
		v, amt := c.R[in.Rd], c.R[in.Rs]&0xFF
		switch {
		case amt == 0:
		case amt < 32:
			c.C = v&(1<<(amt-1)) != 0
			v >>= amt
		case amt == 32:
			c.C = v&(1<<31) != 0
			v = 0
		default:
			c.C = false
			v = 0
		}
		c.R[in.Rd] = v
		c.setNZ(v)
	case OpAsrReg:
		v, amt := c.R[in.Rd], c.R[in.Rs]&0xFF
		switch {
		case amt == 0:
		case amt < 32:
			c.C = v&(1<<(amt-1)) != 0
			v = uint32(int32(v) >> amt)
		default:
			c.C = v&(1<<31) != 0
			v = uint32(int32(v) >> 31)
		}
		c.R[in.Rd] = v
		c.setNZ(v)
	case OpAdc:
		c.R[in.Rd] = c.adc(c.R[in.Rd], c.R[in.Rs], c.C)
	case OpSbc:
		c.R[in.Rd] = c.sbc(c.R[in.Rd], c.R[in.Rs], c.C)
	case OpRor:
		v, amt := c.R[in.Rd], c.R[in.Rs]&0xFF
		if amt != 0 {
			if amt&31 == 0 {
				c.C = v&(1<<31) != 0
			} else {
				amt &= 31
				v = v>>amt | v<<(32-amt)
				c.C = v&(1<<31) != 0
			}
		}
		c.R[in.Rd] = v
		c.setNZ(v)
	case OpTst:
		c.setNZ(c.R[in.Rd] & c.R[in.Rs])
	case OpNeg:
		c.R[in.Rd] = c.sbc(0, c.R[in.Rs], true)
	case OpCmpReg:
		c.sbc(c.R[in.Rd], c.R[in.Rs], true)
	case OpCmn:
		c.adc(c.R[in.Rd], c.R[in.Rs], false)
	case OpOrr:
		c.R[in.Rd] |= c.R[in.Rs]
		c.setNZ(c.R[in.Rd])
	case OpMul:
		c.R[in.Rd] *= c.R[in.Rs]
		c.setNZ(c.R[in.Rd])
		c.Cycles += CyclesMul
	case OpBic:
		c.R[in.Rd] &^= c.R[in.Rs]
		c.setNZ(c.R[in.Rd])
	case OpMvn:
		c.R[in.Rd] = ^c.R[in.Rs]
		c.setNZ(c.R[in.Rd])

	case OpAddHi:
		v := c.R[in.Rd] + c.R[in.Rs]
		if in.Rd == PC {
			nextPC, branched = v&^1, true
		} else {
			c.R[in.Rd] = v
		}
	case OpCmpHi:
		c.sbc(c.R[in.Rd], c.R[in.Rs], true)
	case OpMovHi:
		v := c.R[in.Rs]
		if in.Rd == PC {
			nextPC, branched = v&^1, true
		} else {
			c.R[in.Rd] = v
		}
	case OpBx:
		t := c.R[in.Rs]
		if t&1 == 0 {
			return &Err{instrAddr, fmt.Errorf("bx to ARM state (target %#x); only THUMB is modelled", t)}
		}
		nextPC, branched = t&^1, true

	case OpLdrPC:
		addr := ((instrAddr + 4) &^ 3) + uint32(in.Imm)
		v, err := c.load(instrAddr, addr, 4)
		if err != nil {
			return err
		}
		c.R[in.Rd] = v
		c.Cycles += CyclesLoadInternal

	case OpStrReg, OpStrbReg, OpStrhReg, OpStrImm, OpStrbImm, OpStrhImm:
		addr := c.R[in.Rs]
		if in.Op == OpStrReg || in.Op == OpStrbReg || in.Op == OpStrhReg {
			addr += c.R[in.Rn]
		} else {
			addr += uint32(in.Imm)
		}
		if err := c.store(instrAddr, addr, in.AccessWidth(), c.R[in.Rd]); err != nil {
			return err
		}

	case OpLdrReg, OpLdrbReg, OpLdrhReg, OpLdsbReg, OpLdshReg,
		OpLdrImm, OpLdrbImm, OpLdrhImm:
		addr := c.R[in.Rs]
		switch in.Op {
		case OpLdrReg, OpLdrbReg, OpLdrhReg, OpLdsbReg, OpLdshReg:
			addr += c.R[in.Rn]
		default:
			addr += uint32(in.Imm)
		}
		v, err := c.load(instrAddr, addr, in.AccessWidth())
		if err != nil {
			return err
		}
		switch in.Op {
		case OpLdsbReg:
			v = uint32(int32(int8(v)))
		case OpLdshReg:
			v = uint32(int32(int16(v)))
		}
		c.R[in.Rd] = v
		c.Cycles += CyclesLoadInternal

	case OpStrSP:
		if err := c.store(instrAddr, c.R[SP]+uint32(in.Imm), 4, c.R[in.Rd]); err != nil {
			return err
		}
	case OpLdrSP:
		v, err := c.load(instrAddr, c.R[SP]+uint32(in.Imm), 4)
		if err != nil {
			return err
		}
		c.R[in.Rd] = v
		c.Cycles += CyclesLoadInternal

	case OpAddPCImm:
		c.R[in.Rd] = ((instrAddr + 4) &^ 3) + uint32(in.Imm)
	case OpAddSPRel:
		c.R[in.Rd] = c.R[SP] + uint32(in.Imm)
	case OpAddSPImm:
		c.R[SP] += uint32(in.Imm)

	case OpPush:
		n := uint32(in.RegCount())
		base := c.R[SP] - 4*n
		c.R[SP] = base
		addr := base
		for regs := in.Regs & 0xFF; regs != 0; regs &= regs - 1 {
			if err := c.store(instrAddr, addr, 4, c.R[bits.TrailingZeros16(regs)]); err != nil {
				return err
			}
			addr += 4
		}
		if in.Regs&(1<<LR) != 0 {
			if err := c.store(instrAddr, addr, 4, c.R[LR]); err != nil {
				return err
			}
		}
	case OpPop:
		addr := c.R[SP]
		for regs := in.Regs & 0xFF; regs != 0; regs &= regs - 1 {
			v, err := c.load(instrAddr, addr, 4)
			if err != nil {
				return err
			}
			c.R[bits.TrailingZeros16(regs)] = v
			addr += 4
		}
		if in.Regs&(1<<PC) != 0 {
			v, err := c.load(instrAddr, addr, 4)
			if err != nil {
				return err
			}
			addr += 4
			nextPC, branched = v&^1, true
		}
		c.R[SP] = addr
		c.Cycles += CyclesLoadInternal

	case OpStmia:
		addr := c.R[in.Rs]
		for regs := in.Regs & 0xFF; regs != 0; regs &= regs - 1 {
			if err := c.store(instrAddr, addr, 4, c.R[bits.TrailingZeros16(regs)]); err != nil {
				return err
			}
			addr += 4
		}
		c.R[in.Rs] = addr
	case OpLdmia:
		addr := c.R[in.Rs]
		for regs := in.Regs & 0xFF; regs != 0; regs &= regs - 1 {
			v, err := c.load(instrAddr, addr, 4)
			if err != nil {
				return err
			}
			c.R[bits.TrailingZeros16(regs)] = v
			addr += 4
		}
		if in.Regs&(1<<in.Rs) == 0 { // a loaded base keeps the loaded value
			c.R[in.Rs] = addr
		}
		c.Cycles += CyclesLoadInternal

	case OpBCond:
		if c.condPasses(in.Cond) {
			nextPC, branched = (instrAddr+4+uint32(in.Imm))&^1, true
		}
	case OpB:
		nextPC, branched = (instrAddr+4+uint32(in.Imm))&^1, true
	case OpBlHi:
		c.R[LR] = instrAddr + 4 + uint32(in.Imm<<12)
	case OpBlLo:
		target := c.R[LR] + uint32(in.Imm<<1)
		c.R[LR] = (instrAddr + 2) | 1
		nextPC, branched = target&^1, true

	case OpSwi:
		c.Cycles += CyclesSwi
		if err := c.SWI(c, uint8(in.Imm)); err != nil {
			return &Err{instrAddr, err}
		}

	default:
		return &Err{instrAddr, fmt.Errorf("undefined instruction %#04x", hw)}
	}

	if branched {
		c.Cycles += CyclesBranchTaken
	}
	c.R[PC] = nextPC
	c.Instrs++
	return nil
}

// setNZ sets N and Z from a result.
func (c *CPU) setNZ(v uint32) {
	c.N = v&(1<<31) != 0
	c.Z = v == 0
}

// adc computes a + b + carry and sets all four flags.
func (c *CPU) adc(a, b uint32, carry bool) uint32 {
	var cin uint32
	if carry {
		cin = 1
	}
	r64 := uint64(a) + uint64(b) + uint64(cin)
	r := uint32(r64)
	c.setNZ(r)
	c.C = r64 > 0xFFFFFFFF
	c.V = (a^r)&(b^r)&(1<<31) != 0
	return r
}

// sbc computes a - b - !carry and sets all four flags.
func (c *CPU) sbc(a, b uint32, carry bool) uint32 { return c.adc(a, ^b, carry) }

// load performs an aligned data read for the instruction at pc.
func (c *CPU) load(pc, addr uint32, size uint8) (uint32, error) {
	if addr&(uint32(size)-1) != 0 { // size is 1, 2 or 4
		return 0, &Err{pc, fmt.Errorf("misaligned %d-byte load at %#x", size, addr)}
	}
	v, cyc, err := c.Bus.Read(addr, size, false)
	if err != nil {
		return 0, &Err{pc, err}
	}
	c.Cycles += uint64(cyc)
	return v, nil
}

// store performs an aligned data write for the instruction at pc.
func (c *CPU) store(pc, addr uint32, size uint8, v uint32) error {
	if addr&(uint32(size)-1) != 0 { // size is 1, 2 or 4
		return &Err{pc, fmt.Errorf("misaligned %d-byte store at %#x", size, addr)}
	}
	cyc, err := c.Bus.Write(addr, size, v)
	if err != nil {
		return &Err{pc, err}
	}
	c.Cycles += uint64(cyc)
	return nil
}

func (c *CPU) condPasses(cond Cond) bool {
	switch cond {
	case CondEQ:
		return c.Z
	case CondNE:
		return !c.Z
	case CondCS:
		return c.C
	case CondCC:
		return !c.C
	case CondMI:
		return c.N
	case CondPL:
		return !c.N
	case CondVS:
		return c.V
	case CondVC:
		return !c.V
	case CondHI:
		return c.C && !c.Z
	case CondLS:
		return !c.C || c.Z
	case CondGE:
		return c.N == c.V
	case CondLT:
		return c.N != c.V
	case CondGT:
		return !c.Z && c.N == c.V
	case CondLE:
		return c.Z || c.N != c.V
	}
	return false
}

// Run executes instructions until the CPU halts (SWI 0) or maxInstrs have
// retired. It returns an error for execution faults or when the budget is
// exhausted before the program exits.
func (c *CPU) Run(maxInstrs uint64) error {
	for !c.Halted {
		if c.Instrs >= maxInstrs {
			return fmt.Errorf("arm: instruction budget %d exhausted at pc=%#x", maxInstrs, c.R[PC])
		}
		if err := c.Step(); err != nil {
			return err
		}
	}
	return nil
}
