// Package energy provides the instruction-level energy model (after
// Steinke et al., "An Accurate and Fine Grain Instruction-Level Energy
// Model", PATMOS 2001, and the measurements used in the paper's allocation
// work, Steinke et al. DATE 2002) that drives the scratchpad knapsack: each
// memory object is assigned the energy saved by serving its accesses from
// the scratchpad instead of main memory.
//
// Absolute values are modelled, not measured — the paper's results depend
// only on the *ranking* the benefit function induces, which is preserved:
// main-memory accesses are more than an order of magnitude more expensive
// than scratchpad accesses, and 32-bit accesses on the 16-bit off-chip bus
// cost roughly twice a 16-bit access.
package energy

import (
	"fmt"

	"repro/internal/mem"
	"repro/internal/obj"
	"repro/internal/sim"
)

// Model holds per-access energies in nanojoules.
type Model struct {
	// MainByte/MainHalf/MainWord are main-memory access energies by width.
	MainByte float64
	MainHalf float64
	MainWord float64
	// SPM is the scratchpad access energy (width-independent).
	SPM float64
	// CPUInstr is the base CPU energy per executed instruction, used only
	// for whole-program energy reports.
	CPUInstr float64
}

// Default returns the model used throughout the reproduction, patterned on
// the ARM7TDMI/AT91EB01 measurements of the Steinke energy model.
func Default() Model {
	return Model{
		MainByte: 24.0,
		MainHalf: 24.0,
		MainWord: 49.3, // two bus transfers on the 16-bit off-chip bus
		SPM:      1.2,
		CPUInstr: 1.4,
	}
}

// Key canonically identifies the model's parameters. Allocation policies
// embed it in their pipeline.Allocator ConfigKey, so solves memoized under
// one model are never served to another.
func (m Model) Key() string {
	return fmt.Sprintf("mainB=%g,mainH=%g,mainW=%g,spm=%g,cpu=%g",
		m.MainByte, m.MainHalf, m.MainWord, m.SPM, m.CPUInstr)
}

// MainAccess returns the main-memory access energy for a width in bytes.
func (m Model) MainAccess(width uint8) float64 {
	switch width {
	case 4:
		return m.MainWord
	case 2:
		return m.MainHalf
	}
	return m.MainByte
}

// SaveBenefit returns the energy saved by serving one access of the given
// width from the scratchpad instead of main memory.
func (m Model) SaveBenefit(width uint8) float64 { return m.MainAccess(width) - m.SPM }

// ObjectBenefit returns the total energy saved per program run by placing
// an object with the given accesses in the scratchpad: every access saves
// the main-memory energy of the width the bus carried (fetches are 16-bit)
// less the scratchpad's. This is the knapsack benefit function of the
// paper's static allocation (Steinke et al. DATE 2002).
func (m Model) ObjectBenefit(a *mem.Accesses) float64 {
	if a == nil {
		return 0
	}
	return perAccess(a, m.SaveBenefit)
}

// ProgramEnergy estimates whole-program energy for a profile, given which
// objects are scratchpad-resident. Stack accesses are 32-bit main-memory
// accesses. Used for reporting, not for allocation.
func (m Model) ProgramEnergy(prog *obj.Program, prof *sim.Profile, inSPM map[string]bool) float64 {
	total := float64(prof.Result.Instrs) * m.CPUInstr
	total += float64(prof.StackAccesses) * m.MainAccess(4)
	for _, o := range prog.Objects {
		a := prof.ByObject[o.Name]
		if a == nil {
			continue
		}
		if inSPM[o.Name] {
			total += float64(a.Total()) * m.SPM
			continue
		}
		total += perAccess(a, m.MainAccess)
	}
	return total
}

// perAccess sums n·energy(width) over the vector: the halfword fetches
// first, then the data accesses by ascending width. The order is fixed
// because the modelled energies in the golden outputs depend on it bit for
// bit.
func perAccess(a *mem.Accesses, energy func(width uint8) float64) float64 {
	e := float64(a.Fetches) * energy(2)
	for i, n := range a.Data {
		e += float64(n) * energy(1<<i)
	}
	return e
}
