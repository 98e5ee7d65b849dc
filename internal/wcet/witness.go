package wcet

import (
	"sort"

	"repro/internal/cfg"
	"repro/internal/link"
	"repro/internal/mem"
)

// Witness is the worst-case path certified by the IPET solution, composed
// over the call graph: per-function invocation counts, whole-program block
// and edge execution counts, and the per-object access counts those imply.
//
// The per-function IPET programs are maximised independently, so the
// witness is the path family the compositional bound charges for — exactly
// the weights a WCET-directed optimisation must use: Σ count·cost over the
// witness reproduces Result.WCET.
type Witness struct {
	// FuncRuns is the number of invocations of each function on the
	// worst-case path (the root runs once).
	FuncRuns map[string]uint64
	// BlockCounts maps a function to its whole-program block execution
	// counts, indexed by cfg block Index (per-invocation count × FuncRuns).
	BlockCounts map[string][]uint64
	// EdgeCounts maps a function to its whole-program edge traversal
	// counts, sorted by (From, To, Taken).
	EdgeCounts map[string][]EdgeCount
	// ObjectAccesses maps a memory object to the worst-case number of
	// accesses it serves (instruction fetches and data accesses by width).
	// Literal-pool reads count against their function's object, since the
	// pool moves with the function (a folded BL pair fetches twice).
	// Stack accesses belong to no object and are not counted.
	ObjectAccesses map[string]*mem.Accesses
}

// EdgeCount is the worst-case traversal count of one CFG edge.
type EdgeCount struct {
	From, To int
	Taken    bool
	Count    uint64
}

// ObjectRank is one entry of TopObjects: a memory object with its
// worst-case access counts and the scratchpad cycle benefit they imply.
type ObjectRank struct {
	Name string `json:"name"`
	// Fetches is the worst-case instruction fetch count served.
	Fetches uint64 `json:"fetches"`
	// Data is the worst-case data access count served (all widths).
	Data uint64 `json:"data_accesses"`
	// Benefit is the worst-case cycles recoverable by scratchpad placement.
	Benefit int64 `json:"benefit_cycles"`
}

// TopObjects ranks the witness's memory objects by worst-case cycles
// recoverable via scratchpad placement (ties broken by name) and returns
// the first n (all of them when n <= 0).
func (w *Witness) TopObjects(n int) []ObjectRank {
	rows := make([]ObjectRank, 0, len(w.ObjectAccesses))
	for name, ac := range w.ObjectAccesses {
		rows = append(rows, ObjectRank{Name: name, Fetches: ac.Fetches, Data: ac.Total() - ac.Fetches, Benefit: int64(ac.Saving())})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Benefit != rows[j].Benefit {
			return rows[i].Benefit > rows[j].Benefit
		}
		return rows[i].Name < rows[j].Name
	})
	if n > 0 && len(rows) > n {
		rows = rows[:n]
	}
	return rows
}

// BlockRank is one entry of TopBlocks: a basic block with its whole-program
// worst-case execution count.
type BlockRank struct {
	Func  string `json:"func"`
	Block int    `json:"block"`
	Count uint64 `json:"count"`
	// FuncRuns is the worst-case invocation count of the enclosing function.
	FuncRuns uint64 `json:"func_runs"`
}

// TopBlocks ranks basic blocks by whole-program worst-case execution count
// (ties broken by function name, then block index) and returns the first n
// (all of them when n <= 0). Blocks the worst case never executes are
// omitted.
func (w *Witness) TopBlocks(n int) []BlockRank {
	var rows []BlockRank
	for fn, counts := range w.BlockCounts {
		for i, c := range counts {
			if c > 0 {
				rows = append(rows, BlockRank{Func: fn, Block: i, Count: c, FuncRuns: w.FuncRuns[fn]})
			}
		}
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Count != rows[j].Count {
			return rows[i].Count > rows[j].Count
		}
		if rows[i].Func != rows[j].Func {
			return rows[i].Func < rows[j].Func
		}
		return rows[i].Block < rows[j].Block
	})
	if n > 0 && len(rows) > n {
		rows = rows[:n]
	}
	return rows
}

// buildWitness composes the per-function IPET solutions into the
// whole-program witness, attributing accesses by walking every instruction.
func buildWitness(g *cfg.Graph, order []string, root string, sols map[string]*FuncSolution, stackLo uint32) (*Witness, error) {
	w := composeWitness(g, order, root, sols)
	for _, name := range order {
		if err := w.addAccesses(g.Exe, g.Funcs[name], w.BlockCounts[name], stackLo); err != nil {
			return nil, err
		}
	}
	return w, nil
}

// composeWitness composes per-function IPET solutions into whole-program
// invocation, block and edge counts, leaving ObjectAccesses empty for the
// caller to attribute. order lists functions callees-first (the analysis
// order), so the reverse walk sees every caller before its callees.
func composeWitness(g *cfg.Graph, order []string, root string, sols map[string]*FuncSolution) *Witness {
	w := &Witness{
		FuncRuns:       make(map[string]uint64, len(order)),
		BlockCounts:    make(map[string][]uint64, len(order)),
		EdgeCounts:     make(map[string][]EdgeCount, len(order)),
		ObjectAccesses: make(map[string]*mem.Accesses),
	}
	w.FuncRuns[root] = 1
	for i := len(order) - 1; i >= 0; i-- {
		name := order[i]
		runs := w.FuncRuns[name]
		for _, cs := range g.Funcs[name].Calls {
			w.FuncRuns[cs.Callee] += runs * sols[name].Blocks[cs.Block.Index]
		}
	}
	for _, name := range order {
		f := g.Funcs[name]
		sol := sols[name]
		runs := w.FuncRuns[name]
		counts := make([]uint64, len(f.Blocks))
		for i, x := range sol.Blocks {
			counts[i] = x * runs
		}
		w.BlockCounts[name] = counts
		var ecs []EdgeCount
		for _, b := range f.Blocks { // the IPET edge order
			for _, e := range b.Succs {
				ecs = append(ecs, EdgeCount{From: e.From.Index, To: e.To.Index, Taken: e.Taken, Count: sol.Edges[len(ecs)] * runs})
			}
		}
		sort.Slice(ecs, func(i, j int) bool {
			if ecs[i].From != ecs[j].From {
				return ecs[i].From < ecs[j].From
			}
			if ecs[i].To != ecs[j].To {
				return ecs[i].To < ecs[j].To
			}
			// Parallel edges (a conditional branch whose target is its
			// fall-through) differ only in Taken.
			return !ecs[i].Taken && ecs[j].Taken
		})
		w.EdgeCounts[name] = ecs
	}
	return w
}

// addAccesses attributes one function's witness counts to memory objects:
// instruction fetches to the object *holding the block* (the function
// itself, or the fragment unit for a split function's outlined blocks),
// data accesses to the object the toolchain's access metadata names.
// Address attribution reuses the cost model's view (instrAccesses), so the
// counts price exactly the accesses the analysis charges for — which makes
// the per-unit knapsack items of the block-granularity allocator drop out
// of the same witness as the whole-object ones.
func (w *Witness) addAccesses(exe *link.Executable, f *cfg.Function, counts []uint64, stackLo uint32) error {
	for _, b := range f.Blocks {
		n := counts[b.Index]
		if n == 0 {
			continue
		}
		ac := w.accesses(b.Obj)
		for _, ci := range b.Instrs {
			ac.Fetches += n * uint64(ci.Size/2)
			das, err := instrAccesses(exe, ci, stackLo)
			if err != nil {
				return err
			}
			for _, da := range das {
				addr := da.addr
				if da.kind == accRange {
					addr = da.lo
				}
				pl := exe.FindAddr(addr)
				if pl == nil {
					continue // stack region: not an allocatable object
				}
				w.accesses(pl.Obj.Name).Add(da.width, n)
			}
		}
	}
	return nil
}

// accesses returns the object's access vector, adding an empty one first
// if the witness has none.
func (w *Witness) accesses(name string) *mem.Accesses {
	ac := w.ObjectAccesses[name]
	if ac == nil {
		ac = &mem.Accesses{}
		w.ObjectAccesses[name] = ac
	}
	return ac
}
