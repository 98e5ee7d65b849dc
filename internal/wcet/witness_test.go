package wcet

import (
	"testing"

	"repro/internal/arm"
	"repro/internal/benchprog"
	"repro/internal/cfg"
	"repro/internal/link"
)

// reconstructWCET re-prices the witness from scratch: Σ blockCount·cost plus
// Σ takenEdgeCount·branchPenalty over every analysed function must equal the
// compositional bound exactly (integer costs, integer counts).
func reconstructWCET(t *testing.T, exe *link.Executable, res *Result) uint64 {
	t.Helper()
	g, err := cfg.Build(exe)
	if err != nil {
		t.Fatal(err)
	}
	m := &costModel{exe: exe, stackLo: link.StackBase}
	var total uint64
	for name, counts := range res.Witness.BlockCounts {
		f := g.Funcs[name]
		for _, b := range f.Blocks {
			c, err := m.blockCost(f, b)
			if err != nil {
				t.Fatal(err)
			}
			total += counts[b.Index] * uint64(c)
		}
		for _, ec := range res.Witness.EdgeCounts[name] {
			from := f.Blocks[ec.From]
			last := from.Instrs[len(from.Instrs)-1]
			if ec.Taken && last.In.Op == arm.OpBCond {
				total += ec.Count * uint64(arm.CyclesBranchTaken)
			}
		}
	}
	return total
}

// TestCFGHoldsChargedFunctions: the graph cfg.Build returns for the
// baseline executable — the one `wcetlab witness -path` walks — holds
// every function the baseline witness charges, the entry stub included.
func TestCFGHoldsChargedFunctions(t *testing.T) {
	for _, b := range benchprog.All() {
		exe := prep(t, b.Source, 0, nil)
		res, err := Analyze(exe, Options{Witness: true})
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		g, err := cfg.Build(exe)
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		if res.Witness.FuncRuns[exe.Prog.Entry] == 0 {
			t.Errorf("%s: the witness does not charge the entry %s", b.Name, exe.Prog.Entry)
		}
		for name, runs := range res.Witness.FuncRuns {
			if runs > 0 && g.Funcs[name] == nil {
				t.Errorf("%s: the witness charges %s (%d runs), the CFG lacks it", b.Name, name, runs)
			}
		}
	}
}

// TestWitnessReconstructsWCET: the exported witness must account for every
// cycle of the bound on all Table 2 benchmarks.
func TestWitnessReconstructsWCET(t *testing.T) {
	for _, b := range benchprog.All() {
		exe := prep(t, b.Source, 0, nil)
		res, err := Analyze(exe, Options{Witness: true})
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		if res.Witness == nil {
			t.Fatalf("%s: no witness", b.Name)
		}
		if got := reconstructWCET(t, exe, res); got != res.WCET {
			t.Errorf("%s: witness prices %d cycles, bound is %d", b.Name, got, res.WCET)
		}
	}
}

// TestWitnessFlowConservation: whole-program counts must satisfy the flow
// equations the ILP was built from: the root runs once, and every block's
// count equals the sum of its incoming edge counts (plus its function's
// invocations for the entry block).
func TestWitnessFlowConservation(t *testing.T) {
	exe := prep(t, benchprog.All()[2].Source, 0, nil) // MultiSort: many functions
	res, err := Analyze(exe, Options{Witness: true})
	if err != nil {
		t.Fatal(err)
	}
	w := res.Witness
	if w.FuncRuns[exe.Prog.Entry] != 1 {
		t.Fatalf("root runs %d times, want 1", w.FuncRuns[exe.Prog.Entry])
	}
	g, err := cfg.Build(exe)
	if err != nil {
		t.Fatal(err)
	}
	for name, counts := range w.BlockCounts {
		f := g.Funcs[name]
		in := make([]uint64, len(f.Blocks))
		for _, ec := range w.EdgeCounts[name] {
			in[ec.To] += ec.Count
		}
		in[f.Entry.Index] += w.FuncRuns[name]
		for i, c := range counts {
			if c != in[i] {
				t.Errorf("%s block %d: count %d != inflow %d", name, i, c, in[i])
			}
		}
	}
}

// TestWitnessObjectAccesses: access attribution sanity — the analysed
// functions fetch on the worst-case path, and every counted object exists.
func TestWitnessObjectAccesses(t *testing.T) {
	exe := prep(t, benchprog.All()[0].Source, 0, nil) // G.721
	res, err := Analyze(exe, Options{Witness: true})
	if err != nil {
		t.Fatal(err)
	}
	w := res.Witness
	main := exe.Prog.Main
	ac := w.ObjectAccesses[main]
	if ac == nil || ac.Fetches == 0 {
		t.Fatalf("no fetch counts for %s", main)
	}
	if ac.Saving() == 0 {
		t.Errorf("%s: no SPM benefit", main)
	}
	for name := range w.ObjectAccesses {
		if exe.Placement(name) == nil {
			t.Errorf("witness counts accesses for unplaced object %q", name)
		}
	}
}
