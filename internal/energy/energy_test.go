package energy

import (
	"math"
	"testing"

	"repro/internal/arm"
	"repro/internal/asm"
	"repro/internal/link"
	"repro/internal/mem"
	"repro/internal/obj"
	"repro/internal/sim"
)

func TestAccessCostOrdering(t *testing.T) {
	m := Default()
	if !(m.SPM < m.MainByte && m.MainByte <= m.MainHalf && m.MainHalf < m.MainWord) {
		t.Fatalf("energy ordering broken: %+v", m)
	}
	if m.MainAccess(1) != m.MainByte || m.MainAccess(2) != m.MainHalf || m.MainAccess(4) != m.MainWord {
		t.Fatal("MainAccess width dispatch broken")
	}
	for _, w := range []uint8{1, 2, 4} {
		if m.SaveBenefit(w) <= 0 {
			t.Errorf("width %d: moving to SPM must always save energy", w)
		}
	}
}

func TestObjectBenefit(t *testing.T) {
	m := Default()

	code := &mem.Accesses{Fetches: 100, Data: [3]uint64{2: 10}}
	wantCode := 100*m.SaveBenefit(2) + 10*m.SaveBenefit(4)
	if got := m.ObjectBenefit(code); got != wantCode {
		t.Errorf("code benefit %f, want %f", got, wantCode)
	}

	data := &mem.Accesses{Data: [3]uint64{1: 60}}
	wantData := 60 * m.SaveBenefit(2)
	if got := m.ObjectBenefit(data); got != wantData {
		t.Errorf("data benefit %f, want %f", got, wantData)
	}

	if m.ObjectBenefit(nil) != 0 {
		t.Error("nil profile must yield zero benefit")
	}
	if m.ObjectBenefit(&mem.Accesses{}) != 0 {
		t.Error("unaccessed object must yield zero benefit")
	}
}

func TestBenefitScalesWithAccessCount(t *testing.T) {
	m := Default()
	lo := m.ObjectBenefit(&mem.Accesses{Fetches: 10})
	hi := m.ObjectBenefit(&mem.Accesses{Fetches: 1000})
	if hi <= lo {
		t.Fatal("benefit must grow with access frequency")
	}
}

// TestBenefitUsesObservedWidth: a word array read by halfwords is charged
// halfword energy, the width the bus carried, not its element width.
func TestBenefitUsesObservedWidth(t *testing.T) {
	arr := &obj.Object{Name: "arr", Kind: obj.Data, Align: 4, ElemWidth: 4, Data: make([]byte, 8)}
	b := asm.NewBuilder("main")
	b.LoadAddr(1, "arr", 0)
	for off := int32(0); off < 8; off += 2 {
		b.Op(arm.Instr{Op: arm.OpLdrhImm, Rd: 0, Rs: 1, Imm: off})
	}
	b.Op(arm.Instr{Op: arm.OpBx, Rs: arm.LR})
	mainObj, err := b.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	crt, err := asm.Crt0("main")
	if err != nil {
		t.Fatal(err)
	}
	prog := &obj.Program{Objects: []*obj.Object{crt, mainObj, arr}, Entry: "__start", Main: "main"}
	exe, err := link.Link(prog, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	prof, err := sim.CollectProfile(exe, sim.Options{MaxInstrs: 1000})
	if err != nil {
		t.Fatal(err)
	}
	m := Default()
	if got, want := m.ObjectBenefit(prof.ByObject["arr"]), 4*m.SaveBenefit(2); got != want {
		t.Errorf("benefit %g, want %g (4 halfword reads)", got, want)
	}
	saved := m.ProgramEnergy(prog, prof, nil) - m.ProgramEnergy(prog, prof, map[string]bool{"arr": true})
	if want := 4 * (m.MainHalf - m.SPM); math.Abs(saved-want) > 1e-9 {
		t.Errorf("program energy saving %g, want %g", saved, want)
	}
}
