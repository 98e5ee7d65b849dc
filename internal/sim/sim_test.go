package sim

import (
	"testing"

	"repro/internal/arm"
	"repro/internal/cache"
	"repro/internal/cc"
	"repro/internal/link"
	"repro/internal/mem"
)

const profProgram = `
int hot[8];
int cold_scalar = 3;
int work() {
    int s = 0;
    for (int r = 0; r < 10; r += 1)
        for (int i = 0; i < 8; i += 1)
            s += hot[i];
    return s;
}
int main() {
    hot[0] = cold_scalar;
    return work();
}
`

func exeFor(t *testing.T, src string, spm uint32, inSPM map[string]bool) *link.Executable {
	t.Helper()
	prog, err := cc.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	exe, err := link.Link(prog, spm, inSPM)
	if err != nil {
		t.Fatal(err)
	}
	return exe
}

func TestRunDeterministic(t *testing.T) {
	exe := exeFor(t, profProgram, 0, nil)
	a, err := Run(exe, Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(exe, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if a.Cycles != b.Cycles || a.Instrs != b.Instrs || a.ExitCode != b.ExitCode {
		t.Fatalf("nondeterministic: %+v vs %+v", a, b)
	}
	if a.ExitCode != 30 {
		t.Fatalf("exit = %d, want 30", a.ExitCode)
	}
}

func TestRunWithCacheCountsHitsAndSpeedsUp(t *testing.T) {
	exe := exeFor(t, profProgram, 0, nil)
	plain, err := Run(exe, Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunCaches(exe, []cache.Config{{Size: 8192}})
	if err != nil {
		t.Fatal(err)
	}
	cached := res[0]
	if cached.CacheHits == 0 || cached.CacheMisses == 0 {
		t.Fatalf("cache stats missing: %+v", cached)
	}
	if cached.Cycles >= plain.Cycles {
		t.Fatalf("big cache should beat plain main memory: %d >= %d", cached.Cycles, plain.Cycles)
	}
	if cached.ExitCode != plain.ExitCode {
		t.Fatalf("cache changed program semantics: %d vs %d", cached.ExitCode, plain.ExitCode)
	}
}

func TestInstructionBudget(t *testing.T) {
	exe := exeFor(t, `int main() { int i = 0; __loopbound(1000000) while (i < 1000000) i += 1; return 0; }`, 0, nil)
	if _, err := Run(exe, Options{MaxInstrs: 100}); err == nil {
		t.Fatal("expected budget exhaustion")
	}
}

func TestProfileAttribution(t *testing.T) {
	exe := exeFor(t, profProgram, 0, nil)
	prof, err := CollectProfile(exe, Options{})
	if err != nil {
		t.Fatal(err)
	}
	hot := prof.ByObject["hot"]
	if hot == nil || hot.Data != [3]uint64{2: 81} {
		t.Fatalf("hot profile = %+v, want 81 word accesses (80 reads, 1 write)", hot)
	}
	cs := prof.ByObject["cold_scalar"]
	if cs.Data != [3]uint64{2: 1} {
		t.Errorf("cold_scalar profile = %+v, want 1 word read", cs)
	}
	work := prof.ByObject["work"]
	if work.Fetches == 0 {
		t.Error("work has no fetches")
	}
	mainP := prof.ByObject["main"]
	if mainP.Data[2] == 0 {
		t.Error("main should read its literal pool (global addresses)")
	}
	if prof.StackAccesses == 0 {
		t.Error("no stack accesses recorded")
	}
}

func TestObservedStackDepth(t *testing.T) {
	exe := exeFor(t, `
int depth3(int x) { return x + 1; }
int depth2(int x) { return depth3(x) + 1; }
int depth1(int x) { return depth2(x) + 1; }
int main() { return depth1(0); }
`, 0, nil)
	prof, err := CollectProfile(exe, Options{})
	if err != nil {
		t.Fatal(err)
	}
	d := prof.ObservedStackDepth()
	if d == 0 {
		t.Fatal("no stack depth observed")
	}
	// Four frames of a handful of words each: sane bounds.
	if d > 512 {
		t.Fatalf("depth %d implausibly large", d)
	}
	// A deeper call chain uses more stack.
	exe2 := exeFor(t, `
int f4(int x) { return x + 1; }
int f3(int x) { return f4(x) + f4(x); }
int f2(int x) { return f3(x) + f3(x); }
int f1(int x) { return f2(x) + f2(x); }
int f0(int x) { return f1(x) + f1(x); }
int main() { return f0(0); }
`, 0, nil)
	prof2, err := CollectProfile(exe2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if prof2.ObservedStackDepth() <= d {
		t.Errorf("deeper chain %d not deeper than %d", prof2.ObservedStackDepth(), d)
	}
}

func TestProfileTotalsConsistent(t *testing.T) {
	exe := exeFor(t, profProgram, 0, nil)
	prof, err := CollectProfile(exe, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Every fetch belongs to some code object: total fetches equals
	// retired instruction count (BL pairs are two fetches, two "retires"
	// in the CPU model... each Step retires one instruction and fetches
	// once, so they match exactly).
	var fetches uint64
	for _, op := range prof.ByObject {
		fetches += op.Fetches
	}
	if fetches != prof.Result.Instrs {
		t.Fatalf("fetches %d != instructions %d", fetches, prof.Result.Instrs)
	}
}

// recBus is a memory system that records the accesses made through it:
// how many, and the distinct addresses fetched from.
type recBus struct {
	*mem.System
	accesses uint64
	fetched  map[uint32]bool
}

func (b *recBus) Read(addr uint32, size uint8, fetch bool) (uint32, int, error) {
	b.accesses++
	if fetch {
		b.fetched[addr] = true
	}
	return b.System.Read(addr, size, fetch)
}

func (b *recBus) Write(addr uint32, size uint8, val uint32) (int, error) {
	b.accesses++
	return b.System.Write(addr, size, val)
}

// record runs exe to completion on a recording bus.
func record(t *testing.T, exe *link.Executable) *recBus {
	t.Helper()
	b := &recBus{System: exe.NewMemory(), fetched: map[uint32]bool{}}
	if err := arm.NewCPU(b, exe.EntryAddr, link.StackTop).Run(DefaultMaxInstrs); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestInterpreterCounters checks the per-run counters: the instruction
// counter advances by exactly the run's instructions, and the decode memo
// misses at least once but never more often than there are distinct code
// halfwords executed (each is decoded once; nothing evicts it).
func TestInterpreterCounters(t *testing.T) {
	exe := exeFor(t, profProgram, 0, nil)
	fetched := record(t, exe).fetched
	instrs0, misses0 := mInstrs.Value(), mDecodeMisses.Value()
	res, err := Run(exe, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if d := mInstrs.Value() - instrs0; d != res.Instrs {
		t.Errorf("instructions counter moved by %d, want %d", d, res.Instrs)
	}
	if d := mDecodeMisses.Value() - misses0; d == 0 || d > uint64(len(fetched)) {
		t.Errorf("decode misses moved by %d, want 1..%d (distinct fetched halfwords)", d, len(fetched))
	}
}

// widthProgram touches globals of all three widths, reading each at its
// element width, and mixes them in a loop so every object is hot.
const widthProgram = `
char c[4] = {1, 2, 3, 4};
short h[4] = {5, 6, 7, 8};
int w[4];
int main() {
    int s = 0;
    for (int r = 0; r < 6; r += 1)
        for (int i = 0; i < 4; i += 1) {
            w[i] = c[i] + h[i];
            s += w[i] / 3;
        }
    h[1] = s;
    return s;
}
`

// TestProfileDataByWidth: data accesses are counted by the width they were
// made at, and every access is attributed to an object or the stack.
func TestProfileDataByWidth(t *testing.T) {
	exe := exeFor(t, widthProgram, 0, nil)
	accesses := record(t, exe).accesses
	prof, err := CollectProfile(exe, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// 24 iterations read c[i] and h[i] and write and read w[i]; h[1] is
	// written once more at the end.
	for name, want := range map[string][3]uint64{"c": {24, 0, 0}, "h": {0, 25, 0}, "w": {0, 0, 48}} {
		if got := prof.ByObject[name].Data; got != want {
			t.Errorf("%s: by width %v, want %v", name, got, want)
		}
	}
	total := prof.StackAccesses
	for _, a := range prof.ByObject {
		total += a.Total()
	}
	if total != accesses {
		t.Errorf("%d accesses attributed, %d made", total, accesses)
	}
}

// TestRetimeMatchesRun: on every subset of a small program's objects, the
// closed-form retime reproduces a full simulation of that placement.
func TestRetimeMatchesRun(t *testing.T) {
	base := exeFor(t, widthProgram, 0, nil)
	prof, err := CollectProfile(base, Options{})
	if err != nil {
		t.Fatal(err)
	}
	objs := base.Prog.Objects
	for mask := 0; mask < 1<<len(objs); mask++ {
		in := map[string]bool{}
		for i, o := range objs {
			if mask&(1<<i) != 0 {
				in[o.Name] = true
			}
		}
		exe, err := link.Link(base.Prog, link.SPMMax, in)
		if err != nil {
			t.Fatal(err)
		}
		want, err := Run(exe, Options{})
		if err != nil {
			t.Fatal(err)
		}
		want.Mem = nil
		if got := Retime(prof, exe); *got != *want {
			t.Fatalf("placement %v: retimed %+v, simulated %+v", in, got, want)
		}
	}
}
