package link

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/arm"
	"repro/internal/asm"
	"repro/internal/obj"
)

// tinyProgram builds main calling helper, plus one global.
func tinyProgram(t *testing.T) *obj.Program {
	t.Helper()
	crt, err := asm.Crt0("main")
	if err != nil {
		t.Fatal(err)
	}
	helper := asm.NewBuilder("helper")
	helper.Op(arm.Instr{Op: arm.OpAddImm8, Rd: 0, Imm: 1})
	helper.Op(arm.Instr{Op: arm.OpBx, Rs: arm.LR})
	ho, err := helper.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	mb := asm.NewBuilder("main")
	mb.Op(arm.Instr{Op: arm.OpPush, Regs: 1 << arm.LR})
	mb.LoadAddr(1, "g", 0)
	mb.Op(arm.Instr{Op: arm.OpLdrImm, Rd: 0, Rs: 1, Imm: 0})
	mb.Call("helper")
	mb.Op(arm.Instr{Op: arm.OpPop, Regs: 1 << arm.PC})
	mo, err := mb.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	g := &obj.Object{Name: "g", Kind: obj.Data, Align: 4, ElemWidth: 4, Data: []byte{41, 0, 0, 0}}
	return &obj.Program{Objects: []*obj.Object{crt, mo, ho, g}, Entry: "__start", Main: "main"}
}

func TestPlacementRegions(t *testing.T) {
	exe, err := Link(tinyProgram(t), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, pl := range exe.Placements {
		switch {
		case pl.Obj.Kind == obj.Code:
			if pl.Addr < CodeBase || pl.Addr >= DataBase {
				t.Errorf("%s placed at %#x outside the code region", pl.Obj.Name, pl.Addr)
			}
		default:
			if pl.Addr < DataBase || pl.Addr >= StackBase {
				t.Errorf("%s placed at %#x outside the data region", pl.Obj.Name, pl.Addr)
			}
		}
		if pl.Addr%pl.Obj.Align != 0 {
			t.Errorf("%s misaligned at %#x", pl.Obj.Name, pl.Addr)
		}
	}
	if exe.EntryAddr != exe.Placement("__start").Addr {
		t.Error("entry address mismatch")
	}
}

func TestPlacementsDoNotOverlap(t *testing.T) {
	exe, err := Link(tinyProgram(t), 1024, map[string]bool{"helper": true, "g": true})
	if err != nil {
		t.Fatal(err)
	}
	for i, a := range exe.Placements {
		for _, b := range exe.Placements[i+1:] {
			if a.Addr < b.End() && b.Addr < a.End() {
				t.Errorf("%s [%#x,%#x) overlaps %s [%#x,%#x)",
					a.Obj.Name, a.Addr, a.End(), b.Obj.Name, b.Addr, b.End())
			}
		}
	}
}

func TestSPMPlacementAndOverflow(t *testing.T) {
	p := tinyProgram(t)
	exe, err := Link(p, 1024, map[string]bool{"g": true})
	if err != nil {
		t.Fatal(err)
	}
	pl := exe.Placement("g")
	if !pl.InSPM || pl.Addr >= SPMBase+1024 {
		t.Fatalf("g not in SPM: %+v", pl)
	}
	// Overflow: 4-byte SPM cannot hold helper+g.
	if _, err := Link(p, 4, map[string]bool{"g": true, "helper": true}); err == nil ||
		!strings.Contains(err.Error(), "overflow") {
		t.Errorf("want overflow error, got %v", err)
	}
	// SPM allocation with zero capacity fails.
	if _, err := Link(p, 0, map[string]bool{"g": true}); err == nil {
		t.Error("placement into absent SPM should fail")
	}
	// Oversized SPM rejected.
	if _, err := Link(p, SPMMax*2, nil); err == nil {
		t.Error("SPM beyond hardware maximum should fail")
	}
}

func TestAbs32RelocationResolved(t *testing.T) {
	exe, err := Link(tinyProgram(t), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	mainPl := exe.Placement("main")
	gAddr := exe.Placement("g").Addr
	// Find the literal slot holding g's address in main's image.
	found := false
	for off := mainPl.Obj.CodeSize; off+4 <= mainPl.Obj.Size(); off += 4 {
		v := uint32(mainPl.Image[off]) | uint32(mainPl.Image[off+1])<<8 |
			uint32(mainPl.Image[off+2])<<16 | uint32(mainPl.Image[off+3])<<24
		if v == gAddr {
			found = true
		}
	}
	if !found {
		t.Fatalf("literal pool does not contain g's address %#x", gAddr)
	}
}

func TestBLRelocationTargets(t *testing.T) {
	exe, err := Link(tinyProgram(t), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	mainPl := exe.Placement("main")
	helperAddr := exe.Placement("helper").Addr
	// Decode the BL pair in main's image and verify the target.
	found := false
	for off := uint32(0); off+4 <= mainPl.Obj.CodeSize; off += 2 {
		hw1 := uint16(mainPl.Image[off]) | uint16(mainPl.Image[off+1])<<8
		in1 := arm.Decode(hw1)
		if in1.Op != arm.OpBlHi {
			continue
		}
		hw2 := uint16(mainPl.Image[off+2]) | uint16(mainPl.Image[off+3])<<8
		in2 := arm.Decode(hw2)
		target := mainPl.Addr + off + 4 + uint32(in1.Imm<<12) + uint32(in2.Imm<<1)
		if target == helperAddr {
			found = true
		}
	}
	if !found {
		t.Fatalf("no BL targeting helper at %#x", helperAddr)
	}
}

func TestRelinkingMovesAddresses(t *testing.T) {
	p := tinyProgram(t)
	a, err := Link(p, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Link(p, 1024, map[string]bool{"main": true})
	if err != nil {
		t.Fatal(err)
	}
	if a.Placement("main").Addr == b.Placement("main").Addr {
		t.Error("main should move into the SPM region")
	}
	// helper stays in main memory but may shift; images must be re-resolved
	// independently (original objects untouched).
	if &a.Placement("main").Image[0] == &b.Placement("main").Image[0] {
		t.Error("images must not be shared between links")
	}
}

func TestNewMemoryMaterialisation(t *testing.T) {
	exe, err := Link(tinyProgram(t), 512, map[string]bool{"g": true})
	if err != nil {
		t.Fatal(err)
	}
	sys := exe.NewMemory()
	// g's initial value must be readable at its SPM address.
	v, err := sys.Peek(exe.Placement("g").Addr, 4)
	if err != nil || v != 41 {
		t.Fatalf("g = %d (%v), want 41", v, err)
	}
	// Code bytes present at main's address.
	hw, err := sys.Peek(exe.Placement("main").Addr, 2)
	if err != nil || hw == 0 {
		t.Fatalf("main's first halfword = %#x (%v)", hw, err)
	}
	// Fresh memories are independent (separate RAM).
	sys2 := exe.NewMemory()
	if err := sys.Poke(exe.Placement("g").Addr, 4, 99); err != nil {
		t.Fatal(err)
	}
	v2, _ := sys2.Peek(exe.Placement("g").Addr, 4)
	if v2 != 41 {
		t.Fatalf("memories share state: %d", v2)
	}
}

func TestFindAddr(t *testing.T) {
	exe, err := Link(tinyProgram(t), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	m := exe.Placement("main")
	if exe.FindAddr(m.Addr) != m || exe.FindAddr(m.End()-1) != m {
		t.Error("FindAddr misses main's range")
	}
	if exe.FindAddr(0xDEAD0000) != nil {
		t.Error("FindAddr should return nil for unmapped addresses")
	}
}

// placementCases are placements spanning the interesting shapes: empty, data
// into SPM, code into SPM, mixed, everything movable, and an unknown name
// (which the linker silently ignores).
func placementCases() []struct {
	name    string
	spmSize uint32
	inSPM   map[string]bool
} {
	return []struct {
		name    string
		spmSize uint32
		inSPM   map[string]bool
	}{
		{"empty0", 0, nil},
		{"emptyCap", 512, nil},
		{"dataOnly", 512, map[string]bool{"g": true}},
		{"codeOnly", 1024, map[string]bool{"main": true}},
		{"mixed", 1024, map[string]bool{"helper": true, "g": true}},
		{"all", 2048, map[string]bool{"main": true, "helper": true, "g": true}},
		{"unknownName", 512, map[string]bool{"nosuch": true}},
	}
}

// TestLayoutMatchesLink pins the address walk the WCET engine validates
// with to the one Link places by: same address and side for every object.
func TestLayoutMatchesLink(t *testing.T) {
	p := tinyProgram(t)
	for _, tc := range placementCases() {
		t.Run(tc.name, func(t *testing.T) {
			exe, err := Link(p, tc.spmSize, tc.inSPM)
			if err != nil {
				t.Fatal(err)
			}
			lay, err := Layout(p, tc.spmSize, tc.inSPM)
			if err != nil {
				t.Fatal(err)
			}
			if len(lay) != len(exe.Placements) {
				t.Fatalf("layout has %d objects, link placed %d", len(lay), len(exe.Placements))
			}
			for i, pl := range exe.Placements {
				if lay[i].Addr != pl.Addr || lay[i].InSPM != pl.InSPM {
					t.Errorf("%s: layout (%#x,%v) != link (%#x,%v)", pl.Obj.Name, lay[i].Addr, lay[i].InSPM, pl.Addr, pl.InSPM)
				}
			}
		})
	}
	// A resident name the program lacks places nothing.
	got, err := Layout(p, 512, map[string]bool{"nosuch": true})
	if err != nil {
		t.Fatal(err)
	}
	want, err := Layout(p, 512, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("unknown resident changed the layout: %v, want %v", got, want)
	}
}

// TestLayoutErrors pins Layout's diagnostics to Link's.
func TestLayoutErrors(t *testing.T) {
	p := tinyProgram(t)
	for _, tc := range []struct {
		name    string
		spmSize uint32
		inSPM   map[string]bool
	}{
		{"overflow", 4, map[string]bool{"g": true, "helper": true}},
		{"zeroSPM", 0, map[string]bool{"g": true}},
		{"oversize", SPMMax * 2, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, wantErr := Link(p, tc.spmSize, tc.inSPM)
			_, gotErr := Layout(p, tc.spmSize, tc.inSPM)
			if wantErr == nil || gotErr == nil {
				t.Fatalf("want errors from both, got Link=%v Layout=%v", wantErr, gotErr)
			}
			if gotErr.Error() != wantErr.Error() {
				t.Errorf("diagnostics differ:\nLayout: %v\nLink:   %v", gotErr, wantErr)
			}
		})
	}
}

// TestFindAddrBoundaries covers the binary search across an SPM/main split:
// first and last byte of every placement, the gaps between regions, and
// addresses beyond every region.
func TestFindAddrBoundaries(t *testing.T) {
	p := tinyProgram(t)
	exe, err := Link(p, 1024, map[string]bool{"helper": true, "g": true})
	if err != nil {
		t.Fatal(err)
	}
	for _, pl := range exe.Placements {
		if got := exe.FindAddr(pl.Addr); got != pl {
			t.Errorf("%s: FindAddr(first byte %#x) = %v", pl.Obj.Name, pl.Addr, got)
		}
		if got := exe.FindAddr(pl.End() - 1); got != pl {
			t.Errorf("%s: FindAddr(last byte %#x) = %v", pl.Obj.Name, pl.End()-1, got)
		}
	}
	// Region boundaries and gaps resolve to nothing.
	var spmEnd, codeEnd uint32 = SPMBase, CodeBase
	for _, pl := range exe.Placements {
		if pl.InSPM && pl.End() > spmEnd {
			spmEnd = pl.End()
		}
		if !pl.InSPM && pl.Obj.Kind == obj.Code && pl.End() > codeEnd {
			codeEnd = pl.End()
		}
	}
	for _, addr := range []uint32{spmEnd, CodeBase - 1, codeEnd, DataBase - 1, StackBase - 1, 0xDEAD0000} {
		if got := exe.FindAddr(addr); got != nil {
			t.Errorf("FindAddr(%#x) = %s, want nil", addr, got.Obj.Name)
		}
	}
	// The split must not leak across regions: SPM placements resolve at SPM
	// addresses, main placements at main addresses.
	if pl := exe.FindAddr(exe.Placement("helper").Addr); pl == nil || !pl.InSPM {
		t.Error("helper's SPM address should resolve to an SPM placement")
	}
	if pl := exe.FindAddr(exe.Placement("main").Addr); pl == nil || pl.InSPM {
		t.Error("main's code address should resolve to a main-memory placement")
	}
}
