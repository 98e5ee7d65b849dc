package arm

import "fmt"

// refStep is the interpreter's original Step, kept verbatim as a
// test-only oracle: it decodes every fetched halfword afresh and builds its
// helpers as closures. TestStepMatchesReference and the whole-program
// tests in program_test.go hold the production Step to it, instruction for
// instruction.
func refStep(c *CPU) error {
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
	in := Decode(uint16(hw))
	c.R[PC] = instrAddr + 4 // PC reads as instruction address + 4
	nextPC := instrAddr + 2
	branched := false

	branchTo := func(target uint32) {
		nextPC = target &^ 1
		branched = true
	}

	setNZ := func(v uint32) {
		c.N = v&(1<<31) != 0
		c.Z = v == 0
	}
	// adc computes a + b + carry and sets all four flags.
	adc := func(a, b uint32, carry bool) uint32 {
		var cin uint32
		if carry {
			cin = 1
		}
		r64 := uint64(a) + uint64(b) + uint64(cin)
		r := uint32(r64)
		setNZ(r)
		c.C = r64 > 0xFFFFFFFF
		c.V = (a^r)&(b^r)&(1<<31) != 0
		return r
	}
	sbc := func(a, b uint32, carry bool) uint32 { return adc(a, ^b, carry) }

	load := func(addr uint32, size uint8) (uint32, error) {
		if addr%uint32(size) != 0 {
			return 0, &Err{instrAddr, fmt.Errorf("misaligned %d-byte load at %#x", size, addr)}
		}
		v, cyc, err := c.Bus.Read(addr, size, false)
		if err != nil {
			return 0, &Err{instrAddr, err}
		}
		c.Cycles += uint64(cyc)
		return v, nil
	}
	store := func(addr uint32, size uint8, v uint32) error {
		if addr%uint32(size) != 0 {
			return &Err{instrAddr, fmt.Errorf("misaligned %d-byte store at %#x", size, addr)}
		}
		cyc, err := c.Bus.Write(addr, size, v)
		if err != nil {
			return &Err{instrAddr, err}
		}
		c.Cycles += uint64(cyc)
		return nil
	}

	switch in.Op {
	case OpLslImm:
		v := c.R[in.Rs]
		if in.Imm != 0 {
			c.C = v&(1<<(32-uint(in.Imm))) != 0
			v <<= uint(in.Imm)
		}
		c.R[in.Rd] = v
		setNZ(v)
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
		setNZ(v)
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
		setNZ(v)

	case OpAddReg:
		c.R[in.Rd] = adc(c.R[in.Rs], c.R[in.Rn], false)
	case OpSubReg:
		c.R[in.Rd] = sbc(c.R[in.Rs], c.R[in.Rn], true)
	case OpAddImm3:
		c.R[in.Rd] = adc(c.R[in.Rs], uint32(in.Imm), false)
	case OpSubImm3:
		c.R[in.Rd] = sbc(c.R[in.Rs], uint32(in.Imm), true)

	case OpMovImm:
		c.R[in.Rd] = uint32(in.Imm)
		setNZ(c.R[in.Rd])
	case OpCmpImm:
		sbc(c.R[in.Rd], uint32(in.Imm), true)
	case OpAddImm8:
		c.R[in.Rd] = adc(c.R[in.Rd], uint32(in.Imm), false)
	case OpSubImm8:
		c.R[in.Rd] = sbc(c.R[in.Rd], uint32(in.Imm), true)

	case OpAnd:
		c.R[in.Rd] &= c.R[in.Rs]
		setNZ(c.R[in.Rd])
	case OpEor:
		c.R[in.Rd] ^= c.R[in.Rs]
		setNZ(c.R[in.Rd])
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
		setNZ(v)
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
		setNZ(v)
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
		setNZ(v)
	case OpAdc:
		c.R[in.Rd] = adc(c.R[in.Rd], c.R[in.Rs], c.C)
	case OpSbc:
		c.R[in.Rd] = sbc(c.R[in.Rd], c.R[in.Rs], c.C)
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
		setNZ(v)
	case OpTst:
		setNZ(c.R[in.Rd] & c.R[in.Rs])
	case OpNeg:
		c.R[in.Rd] = sbc(0, c.R[in.Rs], true)
	case OpCmpReg:
		sbc(c.R[in.Rd], c.R[in.Rs], true)
	case OpCmn:
		adc(c.R[in.Rd], c.R[in.Rs], false)
	case OpOrr:
		c.R[in.Rd] |= c.R[in.Rs]
		setNZ(c.R[in.Rd])
	case OpMul:
		c.R[in.Rd] *= c.R[in.Rs]
		setNZ(c.R[in.Rd])
		c.Cycles += CyclesMul
	case OpBic:
		c.R[in.Rd] &^= c.R[in.Rs]
		setNZ(c.R[in.Rd])
	case OpMvn:
		c.R[in.Rd] = ^c.R[in.Rs]
		setNZ(c.R[in.Rd])

	case OpAddHi:
		v := c.R[in.Rd] + c.R[in.Rs]
		if in.Rd == PC {
			branchTo(v)
		} else {
			c.R[in.Rd] = v
		}
	case OpCmpHi:
		sbc(c.R[in.Rd], c.R[in.Rs], true)
	case OpMovHi:
		v := c.R[in.Rs]
		if in.Rd == PC {
			branchTo(v)
		} else {
			c.R[in.Rd] = v
		}
	case OpBx:
		t := c.R[in.Rs]
		if t&1 == 0 {
			return &Err{instrAddr, fmt.Errorf("bx to ARM state (target %#x); only THUMB is modelled", t)}
		}
		branchTo(t)

	case OpLdrPC:
		addr := ((instrAddr + 4) &^ 3) + uint32(in.Imm)
		v, err := load(addr, 4)
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
		if err := store(addr, in.AccessWidth(), c.R[in.Rd]); err != nil {
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
		v, err := load(addr, in.AccessWidth())
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
		if err := store(c.R[SP]+uint32(in.Imm), 4, c.R[in.Rd]); err != nil {
			return err
		}
	case OpLdrSP:
		v, err := load(c.R[SP]+uint32(in.Imm), 4)
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
		for r := Reg(0); r <= 7; r++ {
			if in.Regs&(1<<r) != 0 {
				if err := store(addr, 4, c.R[r]); err != nil {
					return err
				}
				addr += 4
			}
		}
		if in.Regs&(1<<LR) != 0 {
			if err := store(addr, 4, c.R[LR]); err != nil {
				return err
			}
		}
	case OpPop:
		addr := c.R[SP]
		for r := Reg(0); r <= 7; r++ {
			if in.Regs&(1<<r) != 0 {
				v, err := load(addr, 4)
				if err != nil {
					return err
				}
				c.R[r] = v
				addr += 4
			}
		}
		if in.Regs&(1<<PC) != 0 {
			v, err := load(addr, 4)
			if err != nil {
				return err
			}
			addr += 4
			branchTo(v)
		}
		c.R[SP] = addr
		c.Cycles += CyclesLoadInternal

	case OpStmia:
		addr := c.R[in.Rs]
		for r := Reg(0); r <= 7; r++ {
			if in.Regs&(1<<r) != 0 {
				if err := store(addr, 4, c.R[r]); err != nil {
					return err
				}
				addr += 4
			}
		}
		c.R[in.Rs] = addr
	case OpLdmia:
		addr := c.R[in.Rs]
		loadedBase := false
		for r := Reg(0); r <= 7; r++ {
			if in.Regs&(1<<r) != 0 {
				v, err := load(addr, 4)
				if err != nil {
					return err
				}
				c.R[r] = v
				if r == in.Rs {
					loadedBase = true
				}
				addr += 4
			}
		}
		if !loadedBase {
			c.R[in.Rs] = addr
		}
		c.Cycles += CyclesLoadInternal

	case OpBCond:
		if c.condPasses(in.Cond) {
			branchTo(instrAddr + 4 + uint32(in.Imm))
		}
	case OpB:
		branchTo(instrAddr + 4 + uint32(in.Imm))
	case OpBlHi:
		c.R[LR] = instrAddr + 4 + uint32(in.Imm<<12)
	case OpBlLo:
		target := c.R[LR] + uint32(in.Imm<<1)
		c.R[LR] = (instrAddr + 2) | 1
		branchTo(target)

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

// RefStep exposes refStep to the external test package.
var RefStep = refStep
