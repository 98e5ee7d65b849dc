package wcet

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/cfg"
	"repro/internal/link"
	"repro/internal/mem"
)

// The cache mode of Engine: the MUST analysis and the cost walk replayed
// from each block's symbolic access stream against a concrete layout, one
// function at a time, re-running a function within a pass only when its
// entry state or a callee's exit state changed.

// resolve materialises one symbolic access against a layout, reproducing
// instrAccesses exactly. instrAddr is the access's instruction address
// under the layout (needed for PC-relative literals only).
func (c *Engine) resolve(a symAcc, lay []link.ObjLayout, instrAddr, spmSize uint32) dataAccess {
	switch a.kind {
	case symStack:
		return dataAccess{kind: accRange, lo: c.stackLo, hi: link.StackTop, width: 4, write: a.write}
	case symLit:
		addr := ((instrAddr + 4) &^ 3) + uint32(a.imm)
		return dataAccess{kind: accExact, addr: addr, width: 4,
			inSPM: spmSize > 0 && addr < link.SPMBase+spmSize}
	case symExact:
		l := lay[a.tgt]
		return dataAccess{kind: accExact, addr: l.Addr, width: a.width, write: a.write, inSPM: l.InSPM}
	default: // symRange
		l := lay[a.tgt]
		return dataAccess{kind: accRange, lo: l.Addr, hi: l.Addr + c.sk.objSize[a.tgt],
			width: a.width, write: a.write, inSPM: l.InSPM}
	}
}

// walkSym is cacheAnalysis.transfer and costModel.blockCost in one walk,
// replayed from the symbolic stream: it applies the block's MUST transfer
// to s, adds its classifications to counts and returns its cycle cost
// priced from s. Both walks change s identically, and the constant part of
// the cost is pre-folded (it never touches the MUST state, so folding
// preserves the walk's state evolution exactly).
func (c *Engine) walkSym(cb *engineBlock, cc cache.Config, lay []link.ObjLayout, spmSize uint32, s *mustState, counts *classCounts) int64 {
	total := cb.constCycles
	ownerL := lay[cb.ownerIdx]
	fetch := func(addr uint32) {
		if s.classifyRead(addr) {
			counts.fetchHit++
			total += cache.HitCycles
		} else {
			counts.fetchMiss++
			total += cache.MissCycles
		}
	}
	for _, si := range cb.instrs {
		addr := ownerL.Addr + si.off
		if ownerL.InSPM {
			total += int64(si.size/2) * mem.SPMCycles
		} else {
			fetch(addr)
			if si.size == 4 {
				fetch(addr + 2)
			}
		}
		for _, a := range si.accs {
			da := c.resolve(a, lay, addr, spmSize)
			switch {
			case da.inSPM:
				total += mem.SPMCycles
			case cc.InstructionOnly:
				total += int64(mem.MainCost(da.width))
			case da.write:
				total += int64(mem.MainCost(da.width))
			case da.kind == accExact:
				if s.classifyRead(da.addr) {
					counts.dataHit++
					total += cache.HitCycles
				} else {
					counts.dataMiss++
					total += cache.MissCycles
				}
			default:
				s.clobberRange(da.lo, da.hi)
				counts.dataMiss++
				total += cache.MissCycles
			}
		}
	}
	return total
}

// runMust computes one function's intra-procedural MUST fixed point given
// its entry state and its callees' current exit states, with every block's
// cost — the per-function slice of what cacheAnalysis.run and the cost
// model do globally. A nil entry means the interprocedural iteration never
// reached the function: every block is costed from the cold state, exactly
// as the cold path treats unreached blocks. The record takes ownership of
// entry and keeps the callee exits it read.
func (c *Engine) runMust(sf *skelFunc, cc cache.Config, lay []link.ObjLayout, spmSize uint32, entry *mustState, recs []*mustRecord, pool *statePool) (*mustRecord, error) {
	f := sf.f
	nb := len(f.Blocks)
	rec := &mustRecord{size: cc.Size, entry: entry, calleeExit: make([]*mustState, len(sf.callees)), cost: make([]int64, nb)}
	for i, callee := range sf.callees {
		if cr := recs[callee]; cr != nil {
			rec.calleeExit[i] = cr.exit
		}
	}
	in := make([]*mustState, nb)
	counts := make([]classCounts, nb)
	if entry != nil {
		in[f.Entry.Index] = pool.cloneOf(entry)
		work := []*cfg.Block{f.Entry}
		queued := make([]bool, nb)
		queued[f.Entry.Index] = true
		push := func(b *cfg.Block) {
			if !queued[b.Index] {
				queued[b.Index] = true
				work = append(work, b)
			}
		}
		steps := 0
		for len(work) > 0 {
			steps++
			if steps > 2_000_000 {
				return nil, fmt.Errorf("wcet: cache analysis did not converge")
			}
			b := work[0]
			work = work[1:]
			queued[b.Index] = false
			// A block's last walk starts from its final in-state (any later
			// change re-queues it), so its last cost and counts are the
			// fixed point's.
			out := pool.cloneOf(in[b.Index])
			counts[b.Index] = classCounts{}
			cb := &sf.blocks[b.Index]
			rec.cost[b.Index] = c.walkSym(cb, cc, lay, spmSize, out, &counts[b.Index])

			// Call at block end: record the state flowing into the callee and
			// splice the callee's current exit in (none yet: stop propagating
			// here; the interprocedural loop re-runs us once it appears).
			// A state stored in the record is handed over, never cloned.
			if callee := cb.callee; callee >= 0 {
				if rec.calleeIn == nil {
					rec.calleeIn = make(map[int32]*mustState)
				}
				if prev := rec.calleeIn[callee]; prev == nil {
					rec.calleeIn[callee] = out
				} else {
					prev.join(out)
					pool.put(out)
				}
				var ex *mustState
				if cr := recs[callee]; cr != nil {
					ex = cr.exit
				}
				if ex == nil {
					continue
				}
				out = pool.cloneOf(ex)
			}

			if len(b.Succs) == 0 {
				if rec.exit == nil {
					rec.exit = out
				} else {
					rec.exit.join(out)
					pool.put(out)
				}
				continue
			}
			for i, e := range b.Succs {
				if prev := in[e.To.Index]; prev == nil {
					if i == len(b.Succs)-1 {
						in[e.To.Index], out = out, nil
					} else {
						in[e.To.Index] = pool.cloneOf(out)
					}
					push(e.To)
				} else if prev.join(out) {
					push(e.To)
				}
			}
			pool.put(out)
		}
	}

	// Blocks the iteration never reached are costed from the cold state.
	for _, b := range f.Blocks {
		if s := in[b.Index]; s != nil {
			pool.put(s)
		} else {
			s = pool.top()
			rec.cost[b.Index] = c.walkSym(&sf.blocks[b.Index], cc, lay, spmSize, s, &counts[b.Index])
			pool.put(s)
		}
		rec.counts.add(counts[b.Index])
	}
	return rec, nil
}

// sameInputs reports whether a function whose entry state is now entry,
// under recs' current callee exits, would recompute exactly rec: the
// layout and capacities are fixed within a pass, so these are the solve's
// only other inputs. States compare by pointer, then by content.
func (rec *mustRecord) sameInputs(sf *skelFunc, entry *mustState, recs []*mustRecord) bool {
	if !sameState(rec.entry, entry) {
		return false
	}
	for i, callee := range sf.callees {
		var exit *mustState
		if cr := recs[callee]; cr != nil {
			exit = cr.exit
		}
		if !sameState(rec.calleeExit[i], exit) {
			return false
		}
	}
	return true
}

// sameState reports whether two possibly-nil states are identical.
func sameState(a, b *mustState) bool {
	return a == b || a != nil && b != nil && a.equal(b)
}

// mustPass brings every function's MUST record up to date with the layout:
// an interprocedural chaotic iteration at function granularity,
// callers-first so entry states propagate downward early. Entry states are
// the join over callers' recorded contributions; exit changes wake callers,
// record changes wake callees. A popped function whose entry and callee
// exits match those its current record was computed from keeps the record:
// the iteration is monotone, so within a pass a function's inputs never
// return to an earlier value and the current record is the only one worth
// checking. It converges to the same unique MFP as the cold block-level
// iteration, and returns the number of distinct functions whose solve
// actually ran and the number of pops served by the current record.
func (c *Engine) mustPass(cc cache.Config, lay []link.ObjLayout, spmSize uint32) (reran, reused uint64, err error) {
	if c.pool == nil || c.pool.cfg.Size != cc.Size {
		c.pool = newStatePool(cc)
	}
	pool, sk := c.pool, c.sk
	n := len(sk.funcs)
	ran := make([]bool, n)
	recs := make([]*mustRecord, n)
	work := make([]int32, 0, n)
	queued := make([]bool, n)
	push := func(fi int32) {
		if !queued[fi] {
			queued[fi] = true
			work = append(work, fi)
		}
	}
	for i := n - 1; i >= 0; i-- {
		push(int32(i))
	}
	steps := 0
	for len(work) > 0 {
		steps++
		if steps > 1_000_000 {
			return 0, 0, fmt.Errorf("wcet: cache analysis did not converge")
		}
		fi := work[0]
		work = work[1:]
		queued[fi] = false
		sf := &sk.funcs[fi]

		var entry *mustState
		if fi == sk.root {
			entry = pool.top()
		}
		for _, caller := range sf.callers {
			if cr := recs[caller]; cr != nil {
				if contrib := cr.calleeIn[fi]; contrib != nil {
					if entry == nil {
						entry = pool.cloneOf(contrib)
					} else {
						entry.join(contrib)
					}
				}
			}
		}

		old := recs[fi]
		if old != nil && old.sameInputs(sf, entry, recs) {
			pool.put(entry)
			reused++
			continue
		}
		rec, err := c.runMust(sf, cc, lay, spmSize, entry, recs, pool)
		if err != nil {
			return 0, 0, err
		}
		if !ran[fi] {
			ran[fi] = true
			reran++
		}
		recs[fi] = rec
		for _, callee := range sf.callees {
			push(callee)
		}
		if old == nil || !sameState(old.exit, rec.exit) {
			for _, caller := range sf.callers {
				push(caller)
			}
		}
		if old != nil {
			// Callers' records may still point at old.exit.
			old.release(pool, false)
		}
	}
	for i := range c.funcs {
		ef := &c.funcs[i]
		if ef.rec != nil && ef.rec.size == cc.Size {
			ef.rec.release(pool, true)
		}
		ef.rec, ef.cost = recs[i], recs[i].cost
	}
	return reran, reused, nil
}

// release returns the states a record owns to pool, its exit only when
// withExit: a later record of the same pass may compare its callee exits
// with this record's by pointer. The record must not be used afterwards.
func (rec *mustRecord) release(pool *statePool, withExit bool) {
	pool.put(rec.entry)
	for _, st := range rec.calleeIn {
		pool.put(st)
	}
	if withExit {
		pool.put(rec.exit)
	}
	rec.entry, rec.calleeIn, rec.exit = nil, nil, nil
}
