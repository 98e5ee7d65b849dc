package asm

import (
	"testing"

	"repro/internal/arm"
	"repro/internal/link"
	"repro/internal/obj"
	"repro/internal/sim"
)

// buildAndRun links the given objects with __start as entry and runs them.
func buildAndRun(t *testing.T, spmSize uint32, inSPM map[string]bool, objs ...*obj.Object) *sim.Result {
	t.Helper()
	crt, err := Crt0("main")
	if err != nil {
		t.Fatal(err)
	}
	prog := &obj.Program{Objects: append([]*obj.Object{crt}, objs...), Entry: "__start", Main: "main"}
	exe, err := link.Link(prog, spmSize, inSPM)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(exe, sim.Options{MaxInstrs: 1_000_000})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func mustAssemble(t *testing.T, b *Builder) *obj.Object {
	t.Helper()
	o, err := b.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	return o
}

func TestSimpleFunctionReturnValue(t *testing.T) {
	b := NewBuilder("main")
	b.LoadConst(0, 41)
	b.Op(arm.Instr{Op: arm.OpAddImm8, Rd: 0, Imm: 1})
	b.Op(arm.Instr{Op: arm.OpBx, Rs: arm.LR})
	res := buildAndRun(t, 0, nil, mustAssemble(t, b))
	if res.ExitCode != 42 {
		t.Fatalf("exit code %d, want 42", res.ExitCode)
	}
}

func TestLoopWithBackwardBranch(t *testing.T) {
	// sum 1..10 = 55
	b := NewBuilder("main")
	loop := b.Label()
	b.Op(arm.Instr{Op: arm.OpMovImm, Rd: 0, Imm: 0})  // sum
	b.Op(arm.Instr{Op: arm.OpMovImm, Rd: 1, Imm: 10}) // i
	b.Bind(loop)
	b.Op(arm.Instr{Op: arm.OpAddReg, Rd: 0, Rs: 0, Rn: 1})
	b.Op(arm.Instr{Op: arm.OpSubImm8, Rd: 1, Imm: 1})
	b.SetNextBranchBound(10)
	b.Branch(arm.CondNE, loop)
	b.Op(arm.Instr{Op: arm.OpBx, Rs: arm.LR})
	o := mustAssemble(t, b)
	if len(o.LoopBounds) != 1 || o.LoopBounds[0].MaxIter != 10 {
		t.Fatalf("loop bounds = %+v, want one with bound 10", o.LoopBounds)
	}
	res := buildAndRun(t, 0, nil, o)
	if res.ExitCode != 55 {
		t.Fatalf("exit code %d, want 55", res.ExitCode)
	}
}

func TestLiteralPoolConstantsAndDedup(t *testing.T) {
	b := NewBuilder("main")
	b.LoadConst(0, 0x12345678)
	b.LoadConst(1, 0x12345678) // same literal → same pool slot
	b.LoadConst(2, -1000000)
	b.Op(arm.Instr{Op: arm.OpSubReg, Rd: 0, Rs: 0, Rn: 1}) // 0
	b.Op(arm.Instr{Op: arm.OpAddReg, Rd: 0, Rs: 0, Rn: 2})
	b.Op(arm.Instr{Op: arm.OpBx, Rs: arm.LR})
	o := mustAssemble(t, b)
	// Two distinct literals → 8 bytes of pool.
	if got := o.Size() - ((o.CodeSize + 3) &^ 3); got != 8 {
		t.Fatalf("pool size %d, want 8 (dedup failed?)", got)
	}
	res := buildAndRun(t, 0, nil, o)
	if int32(res.ExitCode) != -1000000 {
		t.Fatalf("exit code %d, want -1000000", int32(res.ExitCode))
	}
}

func TestGlobalDataAccessViaLoadAddr(t *testing.T) {
	g := &obj.Object{
		Name: "counter", Kind: obj.Data, Align: 4, ElemWidth: 4,
		Data: []byte{5, 0, 0, 0},
	}
	b := NewBuilder("main")
	b.Hint("counter")
	b.LoadAddr(1, "counter", 0)
	b.Op(arm.Instr{Op: arm.OpLdrImm, Rd: 0, Rs: 1, Imm: 0})
	b.Op(arm.Instr{Op: arm.OpAddImm8, Rd: 0, Imm: 7})
	b.Op(arm.Instr{Op: arm.OpStrImm, Rd: 0, Rs: 1, Imm: 0})
	b.Op(arm.Instr{Op: arm.OpBx, Rs: arm.LR})
	o := mustAssemble(t, b)
	if len(o.Accesses) != 1 || o.Accesses[0].Target != "counter" {
		t.Fatalf("access hints = %+v", o.Accesses)
	}
	res := buildAndRun(t, 0, nil, o, g)
	if res.ExitCode != 12 {
		t.Fatalf("exit code %d, want 12", res.ExitCode)
	}
	// The global must have been updated in memory.
	pl := link.DataBase // counter is the only data object → at DataBase
	v, err := res.Mem.Peek(pl, 4)
	if err != nil || v != 12 {
		t.Fatalf("counter in memory = %d (%v), want 12", v, err)
	}
}

func TestCallAcrossObjectsBLRelocation(t *testing.T) {
	callee := NewBuilder("double")
	callee.Op(arm.Instr{Op: arm.OpAddReg, Rd: 0, Rs: 0, Rn: 0})
	callee.Op(arm.Instr{Op: arm.OpBx, Rs: arm.LR})

	caller := NewBuilder("main")
	caller.Op(arm.Instr{Op: arm.OpPush, Regs: 1 << arm.LR})
	caller.LoadConst(0, 21)
	caller.Call("double")
	caller.Op(arm.Instr{Op: arm.OpPop, Regs: 1 << arm.PC})

	co := mustAssemble(t, callee)
	mo := mustAssemble(t, caller)
	if len(mo.Calls) != 1 || mo.Calls[0] != "double" {
		t.Fatalf("calls = %v", mo.Calls)
	}
	res := buildAndRun(t, 0, nil, mo, co)
	if res.ExitCode != 42 {
		t.Fatalf("exit code %d, want 42", res.ExitCode)
	}
}

func TestBranchRelaxationLongFunction(t *testing.T) {
	// A conditional branch over ~300 bytes of straight-line code must be
	// relaxed to an inverted branch + B and still execute correctly.
	b := NewBuilder("main")
	done := b.Label()
	b.Op(arm.Instr{Op: arm.OpMovImm, Rd: 0, Imm: 1})
	b.Op(arm.Instr{Op: arm.OpCmpImm, Rd: 0, Imm: 1})
	b.Branch(arm.CondEQ, done) // forward > 256 bytes → relaxation
	for i := 0; i < 200; i++ {
		b.Op(arm.Instr{Op: arm.OpAddImm8, Rd: 0, Imm: 1}) // skipped
	}
	b.Bind(done)
	b.Op(arm.Instr{Op: arm.OpBx, Rs: arm.LR})
	o := mustAssemble(t, b)
	res := buildAndRun(t, 0, nil, o)
	if res.ExitCode != 1 {
		t.Fatalf("relaxed branch not taken: exit %d, want 1", res.ExitCode)
	}
	_ = o
}

func TestRelaxedBackEdgeKeepsLoopBound(t *testing.T) {
	b := NewBuilder("main")
	loop := b.Label()
	b.Op(arm.Instr{Op: arm.OpMovImm, Rd: 1, Imm: 3})
	b.Bind(loop)
	for i := 0; i < 200; i++ {
		b.Op(arm.Instr{Op: arm.OpMovImm, Rd: 2, Imm: 0})
	}
	b.Op(arm.Instr{Op: arm.OpSubImm8, Rd: 1, Imm: 1})
	b.SetNextBranchBound(3)
	b.Branch(arm.CondNE, loop) // backward > 256 bytes → relaxed
	b.Move(0, 1)
	b.Op(arm.Instr{Op: arm.OpBx, Rs: arm.LR})
	o := mustAssemble(t, b)
	if len(o.LoopBounds) != 1 {
		t.Fatalf("loop bounds = %+v, want exactly one", o.LoopBounds)
	}
	// The bound must point at the unconditional B (the relaxed back edge):
	// decode the halfword there and check.
	off := o.LoopBounds[0].BranchOffset
	hw := uint16(o.Data[off]) | uint16(o.Data[off+1])<<8
	if in := arm.Decode(hw); in.Op != arm.OpB {
		t.Fatalf("bound attached to %v, want unconditional B", in.Op)
	}
	res := buildAndRun(t, 0, nil, o)
	if res.ExitCode != 0 {
		t.Fatalf("loop exit r1=%d, want 0", res.ExitCode)
	}
}

func TestScratchpadPlacementSpeedsUp(t *testing.T) {
	// The same program linked with its function in main memory vs in the
	// scratchpad: SPM fetches must make it strictly faster.
	mk := func() *obj.Object {
		b := NewBuilder("main")
		loop := b.Label()
		b.Op(arm.Instr{Op: arm.OpMovImm, Rd: 0, Imm: 0})
		b.Op(arm.Instr{Op: arm.OpMovImm, Rd: 1, Imm: 100})
		b.Bind(loop)
		b.Op(arm.Instr{Op: arm.OpAddReg, Rd: 0, Rs: 0, Rn: 1})
		b.Op(arm.Instr{Op: arm.OpSubImm8, Rd: 1, Imm: 1})
		b.SetNextBranchBound(100)
		b.Branch(arm.CondNE, loop)
		b.Op(arm.Instr{Op: arm.OpBx, Rs: arm.LR})
		o, err := b.Assemble()
		if err != nil {
			t.Fatal(err)
		}
		return o
	}
	slow := buildAndRun(t, 0, nil, mk())
	fast := buildAndRun(t, 1024, map[string]bool{"main": true}, mk())
	if fast.Cycles >= slow.Cycles {
		t.Fatalf("SPM run (%d cycles) not faster than main-memory run (%d cycles)", fast.Cycles, slow.Cycles)
	}
	if slow.ExitCode != fast.ExitCode {
		t.Fatalf("results differ: %d vs %d", slow.ExitCode, fast.ExitCode)
	}
}

func TestRuntimeDivision(t *testing.T) {
	rt, err := RuntimeObjects()
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		num, den int32
		quot     int32
	}{
		{100, 7, 14}, {0, 5, 0}, {1 << 30, 3, (1 << 30) / 3},
		{-100, 7, -14}, {100, -7, -14}, {-100, -7, 14}, {7, 100, 0},
	}
	for _, tc := range cases {
		b := NewBuilder("main")
		b.Op(arm.Instr{Op: arm.OpPush, Regs: 1 << arm.LR})
		b.LoadConst(0, tc.num)
		b.LoadConst(1, tc.den)
		b.Call("__divsi3")
		b.Op(arm.Instr{Op: arm.OpPop, Regs: 1 << arm.PC})
		res := buildAndRun(t, 0, nil, append([]*obj.Object{mustAssemble(t, b)}, rt...)...)
		if int32(res.ExitCode) != tc.quot {
			t.Errorf("%d / %d = %d, want %d", tc.num, tc.den, int32(res.ExitCode), tc.quot)
		}
	}
}

func TestRuntimeModulo(t *testing.T) {
	rt, err := RuntimeObjects()
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		num, den, rem int32
	}{
		{100, 7, 2}, {-100, 7, -2}, {100, -7, 2}, {5, 5, 0}, {3, 10, 3},
	}
	for _, tc := range cases {
		b := NewBuilder("main")
		b.Op(arm.Instr{Op: arm.OpPush, Regs: 1 << arm.LR})
		b.LoadConst(0, tc.num)
		b.LoadConst(1, tc.den)
		b.Call("__modsi3")
		b.Op(arm.Instr{Op: arm.OpPop, Regs: 1 << arm.PC})
		res := buildAndRun(t, 0, nil, append([]*obj.Object{mustAssemble(t, b)}, rt...)...)
		if int32(res.ExitCode) != tc.rem {
			t.Errorf("%d %% %d = %d, want %d", tc.num, tc.den, int32(res.ExitCode), tc.rem)
		}
	}
}

func TestUnboundLabelFails(t *testing.T) {
	b := NewBuilder("main")
	l := b.Label()
	b.Jump(l)
	if _, err := b.Assemble(); err == nil {
		t.Fatal("assembling with unbound label should fail")
	}
}

func TestProfileAttributesAccesses(t *testing.T) {
	g := &obj.Object{Name: "g", Kind: obj.Data, Align: 4, ElemWidth: 4, Data: make([]byte, 4)}
	b := NewBuilder("main")
	b.LoadAddr(1, "g", 0)
	b.Op(arm.Instr{Op: arm.OpLdrImm, Rd: 0, Rs: 1, Imm: 0})
	b.Op(arm.Instr{Op: arm.OpStrImm, Rd: 0, Rs: 1, Imm: 0})
	b.Op(arm.Instr{Op: arm.OpBx, Rs: arm.LR})
	crt, _ := Crt0("main")
	prog := &obj.Program{Objects: []*obj.Object{crt, mustAssemble(t, b), g}, Entry: "__start", Main: "main"}
	exe, err := link.Link(prog, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	prof, err := sim.CollectProfile(exe, sim.Options{MaxInstrs: 1000})
	if err != nil {
		t.Fatal(err)
	}
	gp := prof.ByObject["g"]
	if gp.Data != [3]uint64{2: 2} {
		t.Fatalf("g profile = %+v, want 2 word accesses (1 read, 1 write)", gp)
	}
	mp := prof.ByObject["main"]
	if mp.Fetches == 0 || mp.Data != [3]uint64{2: 1} {
		t.Fatalf("main profile = %+v, want fetches > 0 and 1 literal word read", mp)
	}
}
