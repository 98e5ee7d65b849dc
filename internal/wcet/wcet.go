package wcet

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/cfg"
	"repro/internal/link"
)

// Options configures an analysis run.
type Options struct {
	// Cache enables the abstract-interpretation cache analysis for a
	// unified cache of this configuration; nil analyses a cache-less system
	// (scratchpad and/or main memory only) where, exactly as the paper
	// stresses, no additional analysis module is needed at all.
	Cache *cache.Config
	// StackBound is the maximum stack usage in bytes (for bounding the
	// address range of stack accesses in the cache analysis). Zero means
	// the whole stack region, which is maximally pessimistic but safe.
	StackBound uint32
	// Root overrides the analysis root; default is the program entry, so
	// the bound is directly comparable to simulated whole-program cycles.
	Root string
	// Witness requests the worst-case-path witness in Result.Witness. Off
	// by default: only the WCET-directed allocator consumes it, and
	// building it walks every instruction's accesses a second time.
	Witness bool
}

// Result is the outcome of a WCET analysis.
type Result struct {
	// WCET is the worst-case execution time bound in cycles for the root.
	WCET uint64
	// PerFunction maps each analysed function to its WCET contribution
	// (including its callees).
	PerFunction map[string]uint64
	// Witness holds the IPET solution's worst-case path counts (block and
	// edge execution counts, per-object access counts); nil unless
	// Options.Witness was set. The WCET-directed scratchpad allocator
	// consumes it.
	Witness *Witness
	// Static cache-classification statistics (zero without a cache).
	FetchAlwaysHit    int
	FetchUnclassified int
	DataAlwaysHit     int
	DataUnclassified  int
}

// Analyze computes a safe upper bound on the execution time of the
// executable under the given memory configuration.
func Analyze(exe *link.Executable, opts Options) (*Result, error) {
	root := opts.Root
	if root == "" {
		root = exe.Prog.Entry
	}
	if root == "" {
		return nil, fmt.Errorf("wcet: no analysis root")
	}
	if opts.Cache != nil {
		if err := opts.Cache.Validate(); err != nil {
			return nil, err
		}
		// A scratchpad and a cache may coexist: the placement decides the
		// bypass policy (scratchpad residents never touch the cache), which
		// is exactly what the simulator's memory system, the MUST transfer
		// and the cost model already implement per access.
	}

	g, err := cfg.Build(exe, root)
	if err != nil {
		return nil, err
	}
	order, err := g.TopoOrder()
	if err != nil {
		return nil, err
	}

	stackLo := link.StackBase
	if opts.StackBound > 0 && opts.StackBound < link.StackSize {
		stackLo = link.StackTop - opts.StackBound
	}

	m := &costModel{exe: exe, stackLo: stackLo}
	if opts.Cache != nil {
		cc := opts.Cache.WithDefaults()
		a := newCacheAnalysis(exe, g, cc, stackLo)
		if err := a.run(root); err != nil {
			return nil, err
		}
		m.cc = &cc
		m.in = a.in
		m.pool = a.pool
	}

	res := &Result{PerFunction: make(map[string]uint64, len(order))}
	sols := make(map[string]*FuncSolution, len(order))
	for _, name := range order {
		f := g.Funcs[name]
		blockCost := make(map[*cfg.Block]int64, len(f.Blocks))
		callExtra := make(map[*cfg.Block]int64)
		for _, b := range f.Blocks {
			c, err := m.blockCost(f, b)
			if err != nil {
				return nil, err
			}
			blockCost[b] = c
		}
		for _, cs := range f.Calls {
			callee, ok := res.PerFunction[cs.Callee]
			if !ok {
				return nil, fmt.Errorf("wcet: %s calls %s before it is analysed", name, cs.Callee)
			}
			callExtra[cs.Block] += int64(callee)
		}
		sol, err := ipet(f, blockCost, callExtra)
		if err != nil {
			return nil, err
		}
		sols[name] = sol
		res.PerFunction[name] = sol.WCET
	}
	res.WCET = res.PerFunction[root]
	if opts.Witness {
		res.Witness, err = buildWitness(g, order, root, sols, stackLo)
		if err != nil {
			return nil, err
		}
	}
	res.FetchAlwaysHit = m.FetchHit
	res.FetchUnclassified = m.FetchMiss
	res.DataAlwaysHit = m.DataHit
	res.DataUnclassified = m.DataMiss
	return res, nil
}
