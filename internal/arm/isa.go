// Package arm models the ARM7TDMI processor executing the 16-bit THUMB-1
// instruction set, as used by the paper's target platform (ATMEL AT91EB01).
//
// The package provides the instruction set model (Instr/Op), a decoder from
// raw halfwords, an interpreter (CPU) that memoises decoded instructions by
// fetch address and runs against a pluggable memory bus reporting
// per-access cycle costs, and a disassembler. The same decoded
// representation is consumed by the control-flow reconstruction
// (internal/cfg) and the WCET analyser (internal/wcet), so simulator and
// analyser agree on instruction semantics by construction.
package arm

import (
	"fmt"
	"math/bits"
)

// Reg is a register number r0..r15. r13 = SP, r14 = LR, r15 = PC.
type Reg = uint8

// Named registers.
const (
	SP Reg = 13
	LR Reg = 14
	PC Reg = 15
)

// Op identifies a THUMB-1 operation at mnemonic granularity. The 19 THUMB
// encoding formats are flattened into one opcode per distinct behaviour.
type Op uint8

// All THUMB-1 operations.
const (
	OpInvalid Op = iota

	// Format 1: move shifted register (immediate shift).
	OpLslImm // LSL Rd, Rs, #imm5
	OpLsrImm // LSR Rd, Rs, #imm5 (imm 0 means 32)
	OpAsrImm // ASR Rd, Rs, #imm5 (imm 0 means 32)

	// Format 2: add/subtract register or 3-bit immediate.
	OpAddReg  // ADD Rd, Rs, Rn
	OpSubReg  // SUB Rd, Rs, Rn
	OpAddImm3 // ADD Rd, Rs, #imm3
	OpSubImm3 // SUB Rd, Rs, #imm3

	// Format 3: move/compare/add/subtract 8-bit immediate.
	OpMovImm  // MOV Rd, #imm8
	OpCmpImm  // CMP Rd, #imm8
	OpAddImm8 // ADD Rd, #imm8
	OpSubImm8 // SUB Rd, #imm8

	// Format 4: ALU operations (register to register).
	OpAnd    // AND Rd, Rs
	OpEor    // EOR Rd, Rs
	OpLslReg // LSL Rd, Rs
	OpLsrReg // LSR Rd, Rs
	OpAsrReg // ASR Rd, Rs
	OpAdc    // ADC Rd, Rs
	OpSbc    // SBC Rd, Rs
	OpRor    // ROR Rd, Rs
	OpTst    // TST Rd, Rs
	OpNeg    // NEG Rd, Rs
	OpCmpReg // CMP Rd, Rs
	OpCmn    // CMN Rd, Rs
	OpOrr    // ORR Rd, Rs
	OpMul    // MUL Rd, Rs
	OpBic    // BIC Rd, Rs
	OpMvn    // MVN Rd, Rs

	// Format 5: hi-register operations / branch exchange.
	OpAddHi // ADD Rd, Rs (no flags; Rd/Rs may be r8-r15)
	OpCmpHi // CMP Rd, Rs (flags)
	OpMovHi // MOV Rd, Rs (no flags)
	OpBx    // BX Rs

	// Format 6: PC-relative load (literal pool).
	OpLdrPC // LDR Rd, [PC, #imm8*4]

	// Format 7: load/store with register offset.
	OpStrReg  // STR Rd, [Rb, Ro]
	OpStrbReg // STRB Rd, [Rb, Ro]
	OpLdrReg  // LDR Rd, [Rb, Ro]
	OpLdrbReg // LDRB Rd, [Rb, Ro]

	// Format 8: load/store sign-extended byte/halfword, register offset.
	OpStrhReg // STRH Rd, [Rb, Ro]
	OpLdrhReg // LDRH Rd, [Rb, Ro]
	OpLdsbReg // LDSB Rd, [Rb, Ro]
	OpLdshReg // LDSH Rd, [Rb, Ro]

	// Format 9: load/store with 5-bit immediate offset.
	OpStrImm  // STR Rd, [Rb, #imm5*4]
	OpLdrImm  // LDR Rd, [Rb, #imm5*4]
	OpStrbImm // STRB Rd, [Rb, #imm5]
	OpLdrbImm // LDRB Rd, [Rb, #imm5]

	// Format 10: load/store halfword, immediate offset.
	OpStrhImm // STRH Rd, [Rb, #imm5*2]
	OpLdrhImm // LDRH Rd, [Rb, #imm5*2]

	// Format 11: SP-relative load/store.
	OpStrSP // STR Rd, [SP, #imm8*4]
	OpLdrSP // LDR Rd, [SP, #imm8*4]

	// Format 12: load address.
	OpAddPCImm // ADD Rd, PC, #imm8*4
	OpAddSPRel // ADD Rd, SP, #imm8*4

	// Format 13: add offset to stack pointer.
	OpAddSPImm // ADD SP, #±imm (Imm is the signed byte offset, multiple of 4)

	// Format 14: push/pop registers.
	OpPush // PUSH {rlist[, LR]}
	OpPop  // POP {rlist[, PC]}

	// Format 15: multiple load/store.
	OpStmia // STMIA Rb!, {rlist}
	OpLdmia // LDMIA Rb!, {rlist}

	// Format 16: conditional branch.
	OpBCond // B<cond> target (Imm is the signed byte offset from PC+4)

	// Format 17: software interrupt.
	OpSwi // SWI #imm8

	// Format 18: unconditional branch.
	OpB // B target (Imm is the signed byte offset from PC+4)

	// Format 19: long branch with link (two-halfword pair).
	OpBlHi // BL prefix: LR := PC+4 + (Imm<<12)
	OpBlLo // BL suffix: PC := LR + (Imm<<1), LR := return address | 1

	opMax // sentinel for property tests
)

// Cond is a THUMB condition code for conditional branches.
type Cond uint8

// Condition codes (the standard ARM encodings; AL/NV are not valid for
// THUMB conditional branches).
const (
	CondEQ Cond = iota // Z set
	CondNE             // Z clear
	CondCS             // C set (unsigned >=)
	CondCC             // C clear (unsigned <)
	CondMI             // N set
	CondPL             // N clear
	CondVS             // V set
	CondVC             // V clear
	CondHI             // C set and Z clear (unsigned >)
	CondLS             // C clear or Z set (unsigned <=)
	CondGE             // N == V
	CondLT             // N != V
	CondGT             // Z clear and N == V
	CondLE             // Z set or N != V
)

var condNames = [...]string{"eq", "ne", "cs", "cc", "mi", "pl", "vs", "vc", "hi", "ls", "ge", "lt", "gt", "le"}

func (c Cond) String() string {
	if int(c) < len(condNames) {
		return condNames[c]
	}
	return fmt.Sprintf("cond%d", uint8(c))
}

// Invert returns the condition with the opposite truth value. Used by the
// assembler for conditional-branch relaxation.
func (c Cond) Invert() Cond { return c ^ 1 }

// Instr is one decoded THUMB instruction. Field use depends on Op:
//
//   - Rd: destination (or compared) register
//   - Rs: first source / base register for loads and stores (Rb)
//   - Rn: second source / offset register (Ro)
//   - Imm: immediate; for branches the signed byte offset relative to PC+4,
//     for memory ops the byte offset (already scaled), for SWI the comment
//   - Cond: condition for OpBCond
//   - Regs: register list bitmask for push/pop/stmia/ldmia; bit 14 encodes
//     the LR slot of PUSH, bit 15 the PC slot of POP.
type Instr struct {
	Op   Op
	Rd   Reg
	Rs   Reg
	Rn   Reg
	Imm  int32
	Cond Cond
	Regs uint16
}

// IsBranch reports whether the instruction can redirect control flow.
// POP with PC and BX are returns, BL-lo is a call.
func (i Instr) IsBranch() bool {
	switch i.Op {
	case OpB, OpBCond, OpBx, OpBlLo:
		return true
	case OpPop:
		return i.Regs&(1<<PC) != 0
	}
	return false
}

// IsReturn reports whether the instruction is a function return
// (BX lr or POP {..., pc} by the code generator's conventions).
func (i Instr) IsReturn() bool {
	switch i.Op {
	case OpBx:
		return true
	case OpPop:
		return i.Regs&(1<<PC) != 0
	}
	return false
}

// IsLoad reports whether the instruction reads data memory.
func (i Instr) IsLoad() bool {
	switch i.Op {
	case OpLdrPC, OpLdrReg, OpLdrbReg, OpLdrhReg, OpLdsbReg, OpLdshReg,
		OpLdrImm, OpLdrbImm, OpLdrhImm, OpLdrSP, OpPop, OpLdmia:
		return true
	}
	return false
}

// IsStore reports whether the instruction writes data memory.
func (i Instr) IsStore() bool {
	switch i.Op {
	case OpStrReg, OpStrbReg, OpStrhReg, OpStrImm, OpStrbImm, OpStrhImm,
		OpStrSP, OpPush, OpStmia:
		return true
	}
	return false
}

// AccessWidth returns the data access width in bytes for single-transfer
// loads/stores (0 for non-memory or multi-register operations, which always
// transfer words).
func (i Instr) AccessWidth() uint8 {
	switch i.Op {
	case OpLdrbReg, OpStrbReg, OpLdsbReg, OpLdrbImm, OpStrbImm:
		return 1
	case OpLdrhReg, OpStrhReg, OpLdshReg, OpLdrhImm, OpStrhImm:
		return 2
	case OpLdrPC, OpLdrReg, OpStrReg, OpLdrImm, OpStrImm, OpLdrSP, OpStrSP:
		return 4
	}
	return 0
}

// RegCount returns the number of registers transferred by a multi-register
// operation, counting the LR/PC slot.
func (i Instr) RegCount() int { return bits.OnesCount16(i.Regs) }

func (o Op) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return fmt.Sprintf("op%d", uint8(o))
}

var opNames = [...]string{
	"invalid",
	"lsl", "lsr", "asr",
	"add", "sub", "add", "sub",
	"mov", "cmp", "add", "sub",
	"and", "eor", "lsl", "lsr", "asr", "adc", "sbc", "ror",
	"tst", "neg", "cmp", "cmn", "orr", "mul", "bic", "mvn",
	"add", "cmp", "mov", "bx",
	"ldr",
	"str", "strb", "ldr", "ldrb",
	"strh", "ldrh", "ldsb", "ldsh",
	"str", "ldr", "strb", "ldrb",
	"strh", "ldrh",
	"str", "ldr",
	"add", "add",
	"add",
	"push", "pop",
	"stmia", "ldmia",
	"b", "swi", "b",
	"bl.hi", "bl.lo",
}
