package arm

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"
)

// busWrite is one logged bus write.
type busWrite struct {
	addr uint32
	size uint8
	val  uint32
}

// overlayRAM is a test bus over a shared image: writes are logged instead
// of applied, and reads see the logged writes over the image, so two
// steppers can run the same instruction from the same memory without
// copying it. An access costs its width in cycles, plus one for a fetch.
type overlayRAM struct {
	image  []byte
	writes []busWrite
}

func (m *overlayRAM) byteAt(a uint32) byte {
	for i := len(m.writes) - 1; i >= 0; i-- {
		if w := m.writes[i]; a >= w.addr && a < w.addr+uint32(w.size) {
			return byte(w.val >> (8 * (a - w.addr)))
		}
	}
	return m.image[a]
}

func (m *overlayRAM) Read(addr uint32, size uint8, fetch bool) (uint32, int, error) {
	if uint64(addr)+uint64(size) > uint64(len(m.image)) {
		return 0, 0, errors.New("read out of range")
	}
	var v uint32
	for i := uint32(0); i < uint32(size); i++ {
		v |= uint32(m.byteAt(addr+i)) << (8 * i)
	}
	cyc := int(size)
	if fetch {
		cyc++
	}
	return v, cyc, nil
}

func (m *overlayRAM) Write(addr uint32, size uint8, val uint32) (int, error) {
	if uint64(addr)+uint64(size) > uint64(len(m.image)) {
		return 0, errors.New("write out of range")
	}
	m.writes = append(m.writes, busWrite{addr, size, val})
	return int(size), nil
}

// cpuState is the architectural state a single step may change.
type cpuState struct {
	R              [16]uint32
	N, Z, C, V     bool
	Cycles, Instrs uint64
	Halted         bool
}

func stateOf(c *CPU) cpuState {
	return cpuState{c.R, c.N, c.Z, c.C, c.V, c.Cycles, c.Instrs, c.Halted}
}

func (s cpuState) load(c *CPU) {
	c.R, c.N, c.Z, c.C, c.V = s.R, s.N, s.Z, s.C, s.V
	c.Cycles, c.Instrs, c.Halted = s.Cycles, s.Instrs, s.Halted
}

// randomState draws a register file biased towards the corner cases the
// interpreter distinguishes: in-range addresses of every alignment, shift
// amounts around 32, and arbitrary words.
func randomState(rng *rand.Rand, memSize uint32) cpuState {
	var s cpuState
	for r := range s.R {
		switch rng.IntN(4) {
		case 0, 1:
			s.R[r] = rng.Uint32N(memSize)
		case 2:
			s.R[r] = rng.Uint32N(40)
		default:
			s.R[r] = rng.Uint32()
		}
	}
	s.N, s.Z, s.C, s.V = rng.IntN(2) == 0, rng.IntN(2) == 0, rng.IntN(2) == 0, rng.IntN(2) == 0
	s.Cycles, s.Instrs = rng.Uint64N(1000), rng.Uint64N(1000)
	return s
}

// describe renders a step's error for comparison: its text plus, for an
// *Err, the faulting address.
func describe(err error) string {
	if err == nil {
		return "<nil>"
	}
	var e *Err
	if errors.As(err, &e) {
		return fmt.Sprintf("%s [Err at %#x]", err, e.Addr)
	}
	return err.Error() + " [not *Err]"
}

// TestStepMatchesReference executes every one of the 65 536 halfwords
// from seeded random states with both Step and the original interpreter,
// and requires identical registers, flags, counters, bus writes and
// errors. Each halfword runs twice on a long-lived CPU, so the first step
// misses the decode memo (the slot still holds the previous halfword) and
// the second hits it.
func TestStepMatchesReference(t *testing.T) {
	const memSize = 0x10000
	seeds := []uint64{1, 2, 3, 4}
	if testing.Short() {
		seeds = seeds[:1]
	}
	image := make([]byte, memSize)
	for _, seed := range seeds {
		rng := rand.New(rand.NewPCG(seed, 0x5eed))
		for i := range image {
			image[i] = byte(rng.Uint32())
		}
		bus, refBus := &overlayRAM{image: image}, &overlayRAM{image: image}
		cpu, ref := NewCPU(bus, 0, 0), NewCPU(refBus, 0, 0)
		for hw := 0; hw < 1<<16; hw++ {
			st := randomState(rng, memSize)
			st.R[PC] = 0x4000 + 2*rng.Uint32N(0x2000)
			if hw%4096 == 0 {
				st.R[PC] |= 1 // now and then, a misaligned pc
			}
			pc := st.R[PC] &^ 1
			image[pc], image[pc+1] = byte(hw), byte(hw>>8)
			for rep := 0; rep < 2; rep++ {
				bus.writes, refBus.writes = bus.writes[:0], refBus.writes[:0]
				st.load(cpu)
				st.load(ref)
				err, refErr := cpu.Step(), refStep(ref)
				got, want := stateOf(cpu), stateOf(ref)
				if got != want || describe(err) != describe(refErr) || !slices.Equal(bus.writes, refBus.writes) {
					t.Fatalf("seed %d, %#04x (%v) at %#x, rep %d:\n got  %+v err %s writes %v\n want %+v err %s writes %v",
						seed, hw, Decode(uint16(hw)), st.R[PC], rep,
						got, describe(err), bus.writes, want, describe(refErr), refBus.writes)
				}
			}
		}
	}
}

// TestStoreIntoCodeRedecodes runs a program that rewrites, with STRH, an
// instruction it has already executed and then executes it again: the
// second pass must run the new instruction, not the memoised old one.
func TestStoreIntoCodeRedecodes(t *testing.T) {
	const base = 0x100
	patch := MustEncode(Instr{Op: OpAddImm8, Rd: 0, Imm: 100})
	prog := []Instr{
		/* 0x100 */ {Op: OpMovImm, Rd: 0, Imm: 0},
		/* 0x102 */ {Op: OpMovImm, Rd: 2, Imm: 2}, // pass counter
		/* 0x104 */ {Op: OpLdrPC, Rd: 3, Imm: 16}, // r3 = target address (0x118)
		/* 0x106 */ {Op: OpLdrPC, Rd: 4, Imm: 20}, // r4 = patch halfword (0x11c)
		/* 0x108 */ {Op: OpAddImm8, Rd: 0, Imm: 1}, // target: +1, patched to +100
		/* 0x10a */ {Op: OpStrhImm, Rd: 4, Rs: 3, Imm: 0},
		/* 0x10c */ {Op: OpSubImm8, Rd: 2, Imm: 1},
		/* 0x10e */ {Op: OpBCond, Cond: CondNE, Imm: -10}, // back to 0x108
		/* 0x110 */ {Op: OpSwi, Imm: 0},
	}
	m := newRAM(0x10000)
	m.writeCode(base, prog)
	put32 := func(addr, v uint32) {
		for i := uint32(0); i < 4; i++ {
			m.data[addr+i] = byte(v >> (8 * i))
		}
	}
	put32(0x118, base+8)
	put32(0x11c, uint32(patch))
	c := NewCPU(m, base, 0xFF00)
	if err := c.Run(1000); err != nil {
		t.Fatal(err)
	}
	if c.R[0] != 101 {
		t.Fatalf("r0 = %d, want 101 (first pass +1, second pass the patched +100)", c.R[0])
	}
	if c.DecodeMisses != uint64(len(prog))+1 {
		t.Fatalf("decode misses = %d, want %d: one per instruction plus the patched one",
			c.DecodeMisses, len(prog)+1)
	}
}
