package wcet

import (
	"strings"
	"testing"

	"repro/internal/cache"
	"repro/internal/cc"
	"repro/internal/link"
	"repro/internal/sim"
)

// prep compiles and links a program with the given scratchpad setup.
func prep(t *testing.T, src string, spmSize uint32, inSPM map[string]bool) *link.Executable {
	t.Helper()
	prog, err := cc.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	exe, err := link.Link(prog, spmSize, inSPM)
	if err != nil {
		t.Fatal(err)
	}
	return exe
}

// simulate runs the executable, under a cache as a one-configuration
// sim.RunCaches pass.
func simulate(exe *link.Executable, ccfg *cache.Config) (*sim.Result, error) {
	if ccfg == nil {
		return sim.Run(exe, sim.Options{})
	}
	res, err := sim.RunCaches(exe, []cache.Config{*ccfg})
	if err != nil {
		return nil, err
	}
	return res[0], nil
}

// simCycles runs the executable and returns total cycles.
func simCycles(t *testing.T, exe *link.Executable, ccfg *cache.Config) uint64 {
	t.Helper()
	res, err := simulate(exe, ccfg)
	if err != nil {
		t.Fatal(err)
	}
	return res.Cycles
}

// TestExactOnStraightLine: for a single-path program the IPET bound must
// equal the simulated cycle count exactly — simulator and analyser share
// one timing model, and there is no path or cache uncertainty.
func TestExactOnStraightLine(t *testing.T) {
	exe := prep(t, `
int g = 3;
int main() {
    int a = g + 4;
    int b = a * 3;
    g = b - a;
    return g;
}`, 0, nil)
	cycles := simCycles(t, exe, nil)
	res, err := Analyze(exe, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.WCET != cycles {
		t.Fatalf("WCET %d != simulated %d on a single-path program", res.WCET, cycles)
	}
}

// TestExactOnCountedLoops: exact trip counts keep the bound tight.
func TestExactOnCountedLoops(t *testing.T) {
	exe := prep(t, `
int acc = 0;
int main() {
    for (int i = 0; i < 25; i += 1) acc += i;
    return acc;
}`, 0, nil)
	cycles := simCycles(t, exe, nil)
	res, err := Analyze(exe, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.WCET != cycles {
		t.Fatalf("WCET %d != simulated %d on a counted loop", res.WCET, cycles)
	}
}

// TestExactNestedLoopsAndCalls covers calls and nesting on a deterministic
// single path.
func TestExactNestedLoopsAndCalls(t *testing.T) {
	exe := prep(t, `
int work(int n) {
    int s = 0;
    for (int i = 0; i < 6; i += 1) s += n * i;
    return s;
}
int main() {
    int total = 0;
    for (int r = 0; r < 4; r += 1) total += work(r);
    return total;
}`, 0, nil)
	cycles := simCycles(t, exe, nil)
	res, err := Analyze(exe, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.WCET != cycles {
		t.Fatalf("WCET %d != simulated %d", res.WCET, cycles)
	}
}

// TestBranchOverestimation: the analyser must assume the expensive branch.
func TestBranchOverestimation(t *testing.T) {
	const tmpl = `
int sel = SEL;
int spin() {
    int s = 0;
    for (int i = 0; i < 200; i += 1) s += i;
    return s;
}
int main() {
    if (sel) return spin();
    return 1;
}`
	cheap := prep(t, strings.Replace(tmpl, "SEL", "0", 1), 0, nil)
	costly := prep(t, strings.Replace(tmpl, "SEL", "1", 1), 0, nil)
	cheapCycles := simCycles(t, cheap, nil)
	costlyCycles := simCycles(t, costly, nil)
	resCheap, err := Analyze(cheap, Options{})
	if err != nil {
		t.Fatal(err)
	}
	resCostly, err := Analyze(costly, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if resCheap.WCET <= cheapCycles {
		t.Errorf("cheap-path WCET %d should exceed its simulation %d", resCheap.WCET, cheapCycles)
	}
	// When the program actually takes the worst path, the bound is tight
	// (modulo the sel-test itself, identical in both programs).
	if resCostly.WCET != costlyCycles {
		t.Errorf("worst-path WCET %d != simulation %d", resCostly.WCET, costlyCycles)
	}
	// Both analyses bound the expensive execution.
	if resCheap.WCET < costlyCycles-50 {
		t.Errorf("cheap-program WCET %d far below costly execution %d", resCheap.WCET, costlyCycles)
	}
}

// TestWCETSoundnessRandomPrograms: on a family of data-dependent programs
// the bound must never be below the simulation.
func TestWCETSoundnessDataDependent(t *testing.T) {
	srcs := []string{
		`
int data[16] = {5, 3, 8, 1, 9, 2, 7, 4, 6, 0, 11, 13, 12, 15, 14, 10};
int main() {
    int swaps = 0;
    for (int i = 0; i < 15; i += 1)
        for (int j = 0; j < 15; j += 1)
            if (data[j] > data[j + 1]) {
                int t = data[j];
                data[j] = data[j + 1];
                data[j + 1] = t;
                swaps += 1;
            }
    return swaps;
}`,
		`
int x = 77;
int collatz_steps() {
    int n = x;
    int steps = 0;
    __loopbound(200) while (n != 1) {
        if (n % 2 == 0) n = n / 2;
        else n = 3 * n + 1;
        steps += 1;
    }
    return steps;
}
int main() { return collatz_steps(); }`,
		`
int v[8] = {-4, 9, -1, 3, 0, -7, 2, 5};
int main() {
    int pos = 0;
    int neg = 0;
    for (int i = 0; i < 8; i += 1) {
        if (v[i] > 0) pos += v[i];
        else if (v[i] < 0) neg -= v[i];
    }
    return pos * 100 + neg;
}`,
	}
	for i, src := range srcs {
		exe := prep(t, src, 0, nil)
		cycles := simCycles(t, exe, nil)
		res, err := Analyze(exe, Options{})
		if err != nil {
			t.Fatalf("program %d: %v", i, err)
		}
		if res.WCET < cycles {
			t.Errorf("program %d: WCET %d below simulation %d (unsound!)", i, res.WCET, cycles)
		}
	}
}

// TestScratchpadScalesWCET: the paper's headline property — moving hot
// objects into the scratchpad lowers the WCET bound by the same amount it
// lowers the simulated time, with no extra analysis.
func TestScratchpadScalesWCET(t *testing.T) {
	const src = `
int table[32];
int main() {
    int s = 0;
    for (int i = 0; i < 32; i += 1) table[i] = i * 3;
    for (int r = 0; r < 20; r += 1)
        for (int i = 0; i < 32; i += 1)
            s += table[i];
    return s;
}`
	base := prep(t, src, 0, nil)
	baseSim := simCycles(t, base, nil)
	baseRes, err := Analyze(base, Options{})
	if err != nil {
		t.Fatal(err)
	}

	fast := prep(t, src, 2048, map[string]bool{"main": true, "table": true})
	fastSim := simCycles(t, fast, nil)
	fastRes, err := Analyze(fast, Options{})
	if err != nil {
		t.Fatal(err)
	}

	if fastRes.WCET >= baseRes.WCET {
		t.Fatalf("scratchpad did not reduce WCET: %d >= %d", fastRes.WCET, baseRes.WCET)
	}
	if fastSim >= baseSim {
		t.Fatalf("scratchpad did not reduce simulated time: %d >= %d", fastSim, baseSim)
	}
	// Deterministic single-path program: both must stay exact.
	if baseRes.WCET != baseSim || fastRes.WCET != fastSim {
		t.Fatalf("WCET/sim mismatch: base %d/%d, spm %d/%d",
			baseRes.WCET, baseSim, fastRes.WCET, fastSim)
	}
}

// TestCacheWCETStaysHigh: the paper's cache-side observation — the cache
// speeds up the simulation, but MUST-only analysis cannot classify the
// loop-carried hits, so the bound barely improves.
func TestCacheWCETStaysHigh(t *testing.T) {
	const src = `
int table[64];
int main() {
    int s = 0;
    for (int i = 0; i < 64; i += 1) table[i] = i;
    for (int r = 0; r < 30; r += 1)
        for (int i = 0; i < 64; i += 1)
            s += table[i];
    return s;
}`
	exe := prep(t, src, 0, nil)
	noCacheSim := simCycles(t, exe, nil)
	big := &cache.Config{Size: 8192}
	cachedSim := simCycles(t, exe, big)
	if cachedSim >= noCacheSim {
		t.Fatalf("cache did not speed up the simulation: %d >= %d", cachedSim, noCacheSim)
	}
	res, err := Analyze(exe, Options{Cache: big, StackBound: 512})
	if err != nil {
		t.Fatal(err)
	}
	if res.WCET < cachedSim {
		t.Fatalf("cache WCET %d below cached simulation %d (unsound)", res.WCET, cachedSim)
	}
	// The bound must be far above the cached average case (ratio >= 2 in
	// this loop-dominated program), reproducing the paper's gap.
	if float64(res.WCET) < 2*float64(cachedSim) {
		t.Errorf("cache WCET %d suspiciously tight vs %d — MUST analysis should not classify loop hits",
			res.WCET, cachedSim)
	}
}

// TestCacheAnalysisSoundAcrossSizes checks soundness of the cache analysis
// for every paper cache size on a branchy program.
func TestCacheAnalysisSoundAcrossSizes(t *testing.T) {
	const src = `
int d[32] = {3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7, 9, 3,
             2, 3, 8, 4, 6, 2, 6, 4, 3, 3, 8, 3, 2, 7, 9, 5};
int best = 0;
int main() {
    for (int i = 0; i < 32; i += 1)
        if (d[i] > best) best = d[i];
    return best;
}`
	exe := prep(t, src, 0, nil)
	for _, size := range []uint32{64, 128, 256, 512, 1024, 2048, 4096, 8192} {
		ccfg := &cache.Config{Size: size}
		cycles := simCycles(t, exe, ccfg)
		res, err := Analyze(exe, Options{Cache: ccfg, StackBound: 256})
		if err != nil {
			t.Fatalf("size %d: %v", size, err)
		}
		if res.WCET < cycles {
			t.Errorf("size %d: WCET %d < simulation %d (unsound)", size, res.WCET, cycles)
		}
	}
}

func TestUnboundedLoopRejected(t *testing.T) {
	exe := prep(t, `
int n = 10;
int main() {
    int i = 0;
    while (i < n) i += 1; /* no __loopbound, bound not derivable */
    return i;
}`, 0, nil)
	if _, err := Analyze(exe, Options{}); err == nil || !strings.Contains(err.Error(), "loop") {
		t.Fatalf("expected loop-bound error, got %v", err)
	}
}

func TestRecursionRejected(t *testing.T) {
	exe := prep(t, `
int f(int n) { if (n < 1) return 0; return f(n - 1) + 1; }
int main() { return f(3); }`, 0, nil)
	if _, err := Analyze(exe, Options{}); err == nil || !strings.Contains(err.Error(), "recursion") {
		t.Fatalf("expected recursion error, got %v", err)
	}
}

// TestCombinedSPMAndCacheSound: a hybrid hierarchy (scratchpad residents
// bypass the cache, everything else is cached) is analysable, and the bound
// stays above the simulator, which models the same bypass per access.
func TestCombinedSPMAndCacheSound(t *testing.T) {
	src := `
int table[8] = {3, 1, 4, 1, 5, 9, 2, 6};
int sum(int n) {
    int s = 0;
    __loopbound(8) for (int i = 0; i < n; i += 1) s += table[i];
    return s;
}
int main() { return sum(8) + sum(4); }`
	for _, inSPM := range []map[string]bool{
		{"main": true},
		{"table": true},
		{"sum": true, "table": true},
	} {
		exe := prep(t, src, 1024, inSPM)
		ccfg := &cache.Config{Size: 256}
		cycles := simCycles(t, exe, ccfg)
		res, err := Analyze(exe, Options{Cache: ccfg, StackBound: 256})
		if err != nil {
			t.Fatalf("placement %v: %v", inSPM, err)
		}
		if res.WCET < cycles {
			t.Fatalf("placement %v: WCET %d below simulation %d", inSPM, res.WCET, cycles)
		}
	}
}

func TestDivisionRuntimeAnalyzable(t *testing.T) {
	exe := prep(t, `
int main() {
    int s = 0;
    for (int i = 1; i <= 10; i += 1) s += 1000 / i + 1000 % i;
    return s;
}`, 0, nil)
	cycles := simCycles(t, exe, nil)
	res, err := Analyze(exe, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.WCET < cycles {
		t.Fatalf("WCET %d below simulation %d", res.WCET, cycles)
	}
	// The division loop always runs its 32 iterations, and the sign
	// branches differ by a couple of cycles only: the bound stays close.
	if float64(res.WCET) > 1.2*float64(cycles) {
		t.Errorf("division WCET %d vs sim %d looser than expected", res.WCET, cycles)
	}
	if res.PerFunction["__udivsi3"] == 0 {
		t.Error("udivsi3 WCET missing")
	}
}

func TestPerFunctionMonotonicity(t *testing.T) {
	exe := prep(t, `
int leaf() { return 1; }
int caller() { return leaf() + leaf(); }
int main() { return caller(); }`, 0, nil)
	res, err := Analyze(exe, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.PerFunction["caller"] <= 2*res.PerFunction["leaf"] {
		t.Errorf("caller WCET %d should exceed 2x leaf %d",
			res.PerFunction["caller"], res.PerFunction["leaf"])
	}
	if res.WCET <= res.PerFunction["main"]-res.PerFunction["caller"] {
		t.Errorf("root WCET inconsistent: %+v", res.PerFunction)
	}
}
