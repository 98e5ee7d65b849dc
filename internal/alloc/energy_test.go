package alloc_test

// The paper's energy-directed scratchpad allocation (Steinke et al., DATE
// 2002): the Steinke knapsack over a typical-input profile, solved by the
// branch & bound ILP and by dynamic programming.

import (
	"context"
	"math"
	"testing"

	"repro/internal/alloc"
	"repro/internal/cc"
	"repro/internal/energy"
	"repro/internal/link"
	"repro/internal/obj"
	"repro/internal/sim"
)

// hotColdProgram has a hot function + hot array and cold counterparts, so
// allocation decisions are easy to predict.
const hotColdProgram = `
int hot_data[64];
int cold_data[64];
int hot(int i) { return hot_data[i % 64] + i; }
int cold(int i) { return cold_data[i % 64] - i; }
int main() {
    int acc = 0;
    for (int i = 0; i < 500; i += 1) acc += hot(i);
    acc += cold(1);
    return acc;
}
`

func profileOf(t *testing.T, src string) (*obj.Program, *sim.Profile) {
	t.Helper()
	prog, err := cc.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	exe, err := link.Link(prog, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	prof, err := sim.CollectProfile(exe, sim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return prog, prof
}

// allocateEnergy solves the energy knapsack with the branch & bound ILP solver.
func allocateEnergy(prog *obj.Program, prof *sim.Profile, capacity uint32, m energy.Model) (*alloc.Allocation, error) {
	return alloc.Knapsack(context.Background(), candidates(prog, prof, m, capacity), capacity)
}

// allocateEnergyDP solves the energy knapsack exactly by dynamic programming.
func allocateEnergyDP(prog *obj.Program, prof *sim.Profile, capacity uint32, m energy.Model) (*alloc.Allocation, error) {
	return alloc.KnapsackDP(context.Background(), candidates(prog, prof, m, capacity), capacity)
}

func candidates(prog *obj.Program, prof *sim.Profile, m energy.Model, capacity uint32) []alloc.Item {
	return alloc.Candidates(prog, alloc.EnergyBenefit(m, prof), capacity)
}

func TestHotObjectsPreferred(t *testing.T) {
	prog, prof := profileOf(t, hotColdProgram)
	m := energy.Default()
	// Capacity that fits the hot function and hot data but not everything.
	hotFn := prog.Object("hot").Size()
	hotData := prog.Object("hot_data").Size()
	capacity := hotFn + hotData + 64
	a, err := allocateEnergy(prog, prof, capacity, m)
	if err != nil {
		t.Fatal(err)
	}
	if !a.InSPM["hot"] {
		t.Errorf("hot function not allocated; allocation = %v", a.InSPM)
	}
	if a.InSPM["cold_data"] {
		t.Errorf("cold_data allocated over hot objects; allocation = %v", a.InSPM)
	}
	if a.Used > capacity {
		t.Errorf("capacity violated: used %d > %d", a.Used, capacity)
	}
}

func TestILPAgreesWithDP(t *testing.T) {
	prog, prof := profileOf(t, hotColdProgram)
	m := energy.Default()
	for _, capacity := range []uint32{64, 128, 256, 512, 1024, 2048, 4096, 8192} {
		ilpA, err := allocateEnergy(prog, prof, capacity, m)
		if err != nil {
			t.Fatalf("capacity %d: ilp: %v", capacity, err)
		}
		dpA, err := allocateEnergyDP(prog, prof, capacity, m)
		if err != nil {
			t.Fatalf("capacity %d: dp: %v", capacity, err)
		}
		if math.Abs(ilpA.Benefit-dpA.Benefit) > 1e-6 {
			t.Errorf("capacity %d: ILP benefit %.1f != DP benefit %.1f\nilp=%v\ndp=%v",
				capacity, ilpA.Benefit, dpA.Benefit, ilpA.InSPM, dpA.InSPM)
		}
	}
}

func TestBenefitMonotoneInCapacity(t *testing.T) {
	prog, prof := profileOf(t, hotColdProgram)
	m := energy.Default()
	last := -1.0
	for _, capacity := range []uint32{64, 128, 256, 512, 1024, 2048, 4096, 8192} {
		a, err := allocateEnergyDP(prog, prof, capacity, m)
		if err != nil {
			t.Fatal(err)
		}
		if a.Benefit < last-1e-9 {
			t.Errorf("benefit decreased at capacity %d: %f < %f", capacity, a.Benefit, last)
		}
		last = a.Benefit
	}
}

func TestZeroCapacityAllocatesNothing(t *testing.T) {
	prog, prof := profileOf(t, hotColdProgram)
	a, err := allocateEnergy(prog, prof, 0, energy.Default())
	if err != nil {
		t.Fatal(err)
	}
	if len(a.InSPM) != 0 || a.Benefit != 0 {
		t.Fatalf("zero capacity allocated %v", a.InSPM)
	}
}

func TestAllocatedProgramStillCorrectAndFaster(t *testing.T) {
	prog, prof := profileOf(t, hotColdProgram)
	base, err := link.Link(prog, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	baseRes, err := sim.Run(base, sim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, capacity := range []uint32{256, 1024, 8192} {
		a, err := allocateEnergy(prog, prof, capacity, energy.Default())
		if err != nil {
			t.Fatal(err)
		}
		exe, err := link.Link(prog, capacity, a.InSPM)
		if err != nil {
			t.Fatalf("capacity %d: %v", capacity, err)
		}
		res, err := sim.Run(exe, sim.Options{})
		if err != nil {
			t.Fatalf("capacity %d: %v", capacity, err)
		}
		if res.ExitCode != baseRes.ExitCode {
			t.Errorf("capacity %d: result %d != baseline %d", capacity, res.ExitCode, baseRes.ExitCode)
		}
		if len(a.InSPM) > 0 && res.Cycles >= baseRes.Cycles {
			t.Errorf("capacity %d: allocation did not speed up: %d >= %d cycles",
				capacity, res.Cycles, baseRes.Cycles)
		}
	}
}

func TestEnergyModelRanking(t *testing.T) {
	m := energy.Default()
	if m.SaveBenefit(4) <= m.SaveBenefit(2) {
		t.Error("word accesses must save more than halfword accesses")
	}
	if m.SPM >= m.MainHalf {
		t.Error("scratchpad access must be cheaper than main memory")
	}
}

func TestProgramEnergyDecreasesWithAllocation(t *testing.T) {
	prog, prof := profileOf(t, hotColdProgram)
	m := energy.Default()
	e0 := m.ProgramEnergy(prog, prof, nil)
	a, err := allocateEnergyDP(prog, prof, 8192, m)
	if err != nil {
		t.Fatal(err)
	}
	e1 := m.ProgramEnergy(prog, prof, a.InSPM)
	if e1 >= e0 {
		t.Fatalf("allocation did not reduce modelled energy: %f >= %f", e1, e0)
	}
	if math.Abs((e0-e1)-a.Benefit) > 1e-6 {
		t.Fatalf("energy delta %f != reported benefit %f", e0-e1, a.Benefit)
	}
}
