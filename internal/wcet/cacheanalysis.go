package wcet

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/cfg"
	"repro/internal/link"
)

// cacheAnalysis runs the interprocedural MUST fixed point. It is
// context-insensitive — every function has one entry state (the join over
// all call sites) and one exit state — matching the "simple experimental
// cache analysis" the paper used for the ARM7.
type cacheAnalysis struct {
	exe     *link.Executable
	g       *cfg.Graph
	cc      cache.Config
	stackLo uint32

	in      map[*cfg.Block]*mustState
	entryIn map[string]*mustState
	exitOut map[string]*mustState

	owner   map[*cfg.Block]*cfg.Function
	callers map[string][]*cfg.Block // callee → call blocks

	// pool recycles the per-step transfer scratch states; the long-lived
	// in/entry/exit states are cloned off it and never returned.
	pool *statePool
}

func newCacheAnalysis(exe *link.Executable, g *cfg.Graph, cc cache.Config, stackLo uint32) *cacheAnalysis {
	a := &cacheAnalysis{
		exe: exe, g: g, cc: cc, stackLo: stackLo,
		in:      map[*cfg.Block]*mustState{},
		entryIn: map[string]*mustState{},
		exitOut: map[string]*mustState{},
		owner:   map[*cfg.Block]*cfg.Function{},
		callers: map[string][]*cfg.Block{},
		pool:    newStatePool(cc),
	}
	for _, f := range g.Funcs {
		for _, b := range f.Blocks {
			a.owner[b] = f
		}
		for _, c := range f.Calls {
			a.callers[c.Callee] = append(a.callers[c.Callee], c.Block)
		}
	}
	return a
}

// transfer applies one block's accesses to a copy of state and returns the
// post state. With a call at the block end, the returned state is the one
// flowing *into* the callee; the caller handles the splice.
func (a *cacheAnalysis) transfer(f *cfg.Function, b *cfg.Block, s *mustState) (*mustState, error) {
	fnInSPM := a.exe.Placement(b.Obj).InSPM
	for _, ci := range b.Instrs {
		// Instruction fetches: one per halfword; scratchpad fetches bypass
		// the cache entirely.
		if !fnInSPM {
			s.classifyRead(ci.Addr)
			if ci.Size == 4 {
				s.classifyRead(ci.Addr + 2)
			}
		}
		das, err := instrAccesses(a.exe, ci, a.stackLo)
		if err != nil {
			return nil, err
		}
		for _, da := range das {
			if da.inSPM || da.write || a.cc.InstructionOnly {
				// Scratchpad accesses bypass the cache; writes are
				// write-through/no-allocate and leave tags unchanged; with
				// an instruction cache, data never enters the cache at all.
				continue
			}
			if da.kind == accExact {
				s.classifyRead(da.addr)
			} else {
				s.clobberRange(da.lo, da.hi)
			}
		}
	}
	return s, nil
}

// run computes the fixed point starting cold at root's entry.
func (a *cacheAnalysis) run(root string) error {
	rootFn := a.g.Funcs[root]
	if rootFn == nil {
		return fmt.Errorf("wcet: root %q not in CFG", root)
	}
	a.in[rootFn.Entry] = newMustTop(a.cc)
	a.entryIn[root] = a.in[rootFn.Entry].clone()

	work := []*cfg.Block{rootFn.Entry}
	queued := map[*cfg.Block]bool{rootFn.Entry: true}
	push := func(b *cfg.Block) {
		if !queued[b] {
			queued[b] = true
			work = append(work, b)
		}
	}
	steps := 0
	for len(work) > 0 {
		steps++
		if steps > 2_000_000 {
			return fmt.Errorf("wcet: cache analysis did not converge")
		}
		b := work[0]
		work = work[1:]
		queued[b] = false
		f := a.owner[b]
		inState := a.in[b]
		if inState == nil {
			continue
		}
		out, err := a.transfer(f, b, a.pool.cloneOf(inState))
		if err != nil {
			return err
		}

		// Call at block end: splice the callee in.
		if len(b.Instrs) > 0 {
			if callee := b.Instrs[len(b.Instrs)-1].CallTarget; callee != "" {
				cf := a.g.Funcs[callee]
				if prev := a.entryIn[callee]; prev == nil {
					a.entryIn[callee] = out.clone()
					a.in[cf.Entry] = out.clone()
					push(cf.Entry)
				} else if prev.join(out) {
					a.in[cf.Entry] = prev.clone()
					push(cf.Entry)
				}
				exit := a.exitOut[callee]
				if exit == nil {
					a.pool.put(out)
					continue // callee exit unknown yet; re-queued on change
				}
				a.pool.put(out)
				out = a.pool.cloneOf(exit)
			}
		}

		// Return block: update the function's exit state and wake callers.
		if len(b.Succs) == 0 {
			if prev := a.exitOut[f.Name]; prev == nil {
				a.exitOut[f.Name] = out.clone()
				for _, cb := range a.callers[f.Name] {
					push(cb)
				}
			} else if prev.join(out) {
				for _, cb := range a.callers[f.Name] {
					push(cb)
				}
			}
			a.pool.put(out)
			continue
		}
		for _, e := range b.Succs {
			if prev := a.in[e.To]; prev == nil {
				a.in[e.To] = out.clone()
				push(e.To)
			} else if prev.join(out) {
				push(e.To)
			}
		}
		a.pool.put(out)
	}
	return nil
}
