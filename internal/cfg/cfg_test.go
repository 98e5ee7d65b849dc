package cfg

import (
	"testing"

	"repro/internal/cc"
	"repro/internal/link"
)

func buildFromSource(t *testing.T, src string) *Graph {
	t.Helper()
	prog, err := cc.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	exe, err := link.Link(prog, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	g, err := Build(exe)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestStraightLineSingleBlock(t *testing.T) {
	g := buildFromSource(t, `int main() { int a = 1; int b = 2; return a + b; }`)
	f := g.Funcs["main"]
	if f == nil {
		t.Fatal("main not reconstructed")
	}
	// return jumps to the epilogue, so at least two blocks exist, but there
	// must be no loops and no calls.
	if len(f.Loops) != 0 {
		t.Errorf("straight-line function has %d loops", len(f.Loops))
	}
	if len(f.Calls) != 0 {
		t.Errorf("straight-line function has %d calls", len(f.Calls))
	}
}

func TestLoopDetectionAndBound(t *testing.T) {
	g := buildFromSource(t, `
int main() {
    int s = 0;
    for (int i = 0; i < 17; i += 1) s += i;
    return s;
}`)
	f := g.Funcs["main"]
	if len(f.Loops) != 1 {
		t.Fatalf("found %d loops, want 1", len(f.Loops))
	}
	l := f.Loops[0]
	if l.Bound != 17 {
		t.Errorf("loop bound = %d, want 17", l.Bound)
	}
	if len(l.BackEdges) != 1 {
		t.Errorf("back edges = %d, want 1", len(l.BackEdges))
	}
	if len(l.EntryEdges()) == 0 {
		t.Error("loop has no entry edges")
	}
	for _, e := range l.BackEdges {
		if !e.Back {
			t.Error("back edge not marked")
		}
	}
}

func TestNestedLoopsDistinctHeads(t *testing.T) {
	g := buildFromSource(t, `
int main() {
    int n = 0;
    for (int i = 0; i < 5; i += 1)
        for (int j = 0; j < 3; j += 1)
            n += 1;
    return n;
}`)
	f := g.Funcs["main"]
	if len(f.Loops) != 2 {
		t.Fatalf("found %d loops, want 2", len(f.Loops))
	}
	inner, outer := f.Loops[0], f.Loops[1]
	if len(inner.Blocks) > len(outer.Blocks) {
		inner, outer = outer, inner
	}
	if inner.Bound != 3 || outer.Bound != 5 {
		got := []int64{f.Loops[0].Bound, f.Loops[1].Bound}
		t.Errorf("bounds = %v, want inner 3 / outer 5", got)
	}
	// The inner loop must be nested inside the outer loop's body.
	for b := range inner.Blocks {
		if !outer.Blocks[b] {
			t.Errorf("inner block %d not inside outer loop", b.Index)
		}
	}
}

func TestCallGraphAndTopoOrder(t *testing.T) {
	g := buildFromSource(t, `
int leaf(int x) { return x + 1; }
int mid(int x) { return leaf(x) * 2; }
int main() { return mid(3) + leaf(4); }`)
	order, err := g.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	pos := map[string]int{}
	for i, n := range order {
		pos[n] = i
	}
	if !(pos["leaf"] < pos["mid"] && pos["mid"] < pos["main"]) {
		t.Errorf("topological order %v does not respect the call graph", order)
	}
	if len(g.Funcs["main"].Calls) != 2 {
		t.Errorf("main has %d call sites, want 2", len(g.Funcs["main"].Calls))
	}
}

func TestRecursionRejected(t *testing.T) {
	g := buildFromSource(t, `
int fact(int n) { if (n < 2) return 1; return n * fact(n - 1); }
int main() { return fact(5); }`)
	if _, err := g.TopoOrder(); err == nil {
		t.Fatal("recursive call graph must be rejected")
	}
}

func TestDivisionPullsRuntimeIntoGraph(t *testing.T) {
	g := buildFromSource(t, `int main() { return 100 / 7; }`)
	if g.Funcs["__divsi3"] == nil || g.Funcs["__udivsi3"] == nil {
		t.Fatal("division runtime not reachable in CFG")
	}
	ud := g.Funcs["__udivsi3"]
	if len(ud.Loops) != 1 || ud.Loops[0].Bound != 32 {
		t.Fatalf("udivsi3 loops = %+v, want one with bound 32", ud.Loops)
	}
}

func TestCallsEndBlocks(t *testing.T) {
	g := buildFromSource(t, `
int f(int x) { return x; }
int main() { return f(1) + f(2); }`)
	for _, cs := range g.Funcs["main"].Calls {
		last := cs.Block.Instrs[len(cs.Block.Instrs)-1]
		if last.CallTarget != cs.Callee {
			t.Errorf("call to %s is not the last instruction of its block", cs.Callee)
		}
	}
}

func TestEdgesConsistent(t *testing.T) {
	g := buildFromSource(t, `
int main() {
    int s = 0;
    for (int i = 0; i < 4; i += 1) {
        if (i % 2 == 0) s += i; else s -= i;
    }
    return s;
}`)
	for _, f := range g.Funcs {
		for _, b := range f.Blocks {
			for _, e := range b.Succs {
				if e.From != b {
					t.Errorf("%s: edge source mismatch", f.Name)
				}
				found := false
				for _, pe := range e.To.Preds {
					if pe == e {
						found = true
					}
				}
				if !found {
					t.Errorf("%s: edge %d→%d missing from preds", f.Name, e.From.Index, e.To.Index)
				}
			}
		}
	}
}

func TestBlocksPartitionFunction(t *testing.T) {
	g := buildFromSource(t, `
int main() {
    int x = 3;
    if (x > 1) x = x * 2;
    __loopbound(10) while (x > 0) { x -= 1; }
    return x;
}`)
	_ = g
	f := g.Funcs["main"]
	// Blocks must tile [Addr, Addr+code) without gaps or overlaps.
	expect := f.Addr
	for _, b := range f.Blocks {
		if b.Start != expect {
			t.Fatalf("block %d starts at %#x, want %#x", b.Index, b.Start, expect)
		}
		if b.End <= b.Start {
			t.Fatalf("block %d empty", b.Index)
		}
		expect = b.End
	}
}
