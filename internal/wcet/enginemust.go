package wcet

import (
	"encoding/binary"
	"fmt"

	"repro/internal/cache"
	"repro/internal/cfg"
	"repro/internal/link"
	"repro/internal/mem"
)

// The cache mode of Engine: the MUST analysis and the cost walk replayed
// from each block's symbolic access stream against a concrete layout, one
// function at a time, under a memo keyed by each function's exact inputs.

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
		return dataAccess{kind: accRange, lo: l.Addr, hi: l.Addr + c.objSize[a.tgt],
			width: a.width, write: a.write, inSPM: l.InSPM}
	}
}

// transferSym is cacheAnalysis.transfer replayed from the symbolic stream.
func (c *Engine) transferSym(cb *engineBlock, cc cache.Config, lay []link.ObjLayout, spmSize uint32, s *mustState) {
	ownerL := lay[cb.ownerIdx]
	for _, si := range cb.instrs {
		addr := ownerL.Addr + si.off
		if !ownerL.InSPM {
			s.classifyRead(cc, addr)
			if si.size == 4 {
				s.classifyRead(cc, addr+2)
			}
		}
		for _, a := range si.accs {
			da := c.resolve(a, lay, addr, spmSize)
			if da.inSPM || da.write || cc.InstructionOnly {
				continue
			}
			if da.kind == accExact {
				s.classifyRead(cc, da.addr)
			} else {
				s.clobberRange(cc, da.lo, da.hi)
			}
		}
	}
}

// costWalkSym is costModel.blockCost replayed from the symbolic stream,
// with the constant part pre-folded (it never touches the MUST state, so
// folding preserves the walk's state evolution exactly).
func (c *Engine) costWalkSym(cb *engineBlock, cc cache.Config, lay []link.ObjLayout, spmSize uint32, s *mustState, counts *classCounts) int64 {
	total := cb.constCycles
	ownerL := lay[cb.ownerIdx]
	fetch := func(addr uint32) {
		if s.classifyRead(cc, addr) {
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
				if s.classifyRead(cc, da.addr) {
					counts.dataHit++
					total += cache.HitCycles
				} else {
					counts.dataMiss++
					total += cache.MissCycles
				}
			default:
				s.clobberRange(cc, da.lo, da.hi)
				counts.dataMiss++
				total += cache.MissCycles
			}
		}
	}
	return total
}

// stateID interns a state's exact contents and returns its id (-1 for
// nil). Distinct cache sizes yield distinct backing lengths under a fixed
// shape, so ids never alias across capacities.
func (c *Engine) stateID(s *mustState) int32 {
	if s == nil {
		return -1
	}
	buf := c.keyBuf[:0]
	for _, v := range s.data {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(v))
	}
	c.keyBuf = buf
	if id, ok := c.stateIDs[string(buf)]; ok {
		return id
	}
	id := int32(len(c.stateIDs))
	c.stateIDs[string(buf)] = id
	return id
}

// mustKey is the exact input signature of one function's intra-procedural
// MUST solve: cache size, scratchpad size, the (address, side) layout of
// the function's footprint, its entry state and its callees' exit states.
// Raw values, no hashing — a collision would silently break bit-identity.
func (c *Engine) mustKey(cf *engineFunc, size, spmSize uint32, lay []link.ObjLayout, entryID int32, recs map[string]*mustRecord) string {
	buf := make([]byte, 0, 12+5*len(cf.footprint)+4*len(cf.callees))
	buf = binary.LittleEndian.AppendUint32(buf, size)
	buf = binary.LittleEndian.AppendUint32(buf, spmSize)
	for _, oi := range cf.footprint {
		l := lay[oi]
		buf = binary.LittleEndian.AppendUint32(buf, l.Addr)
		if l.InSPM {
			buf = append(buf, 1)
		} else {
			buf = append(buf, 0)
		}
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(entryID))
	for _, callee := range cf.callees {
		var exit *mustState
		if cr := recs[callee]; cr != nil {
			exit = cr.exit
		}
		buf = binary.LittleEndian.AppendUint32(buf, uint32(c.stateID(exit)))
	}
	return string(buf)
}

// runMust computes one function's intra-procedural MUST fixed point given
// its entry state and its callees' current exit states, then walks every
// block's cost — the per-function slice of what cacheAnalysis.run and the
// cost model do globally. A nil entry means the interprocedural iteration
// never reached the function: every block is costed from the cold state,
// exactly as the cold path treats unreached blocks.
func (c *Engine) runMust(cf *engineFunc, cc cache.Config, lay []link.ObjLayout, spmSize uint32, entry *mustState, recs map[string]*mustRecord, pool *statePool) (*mustRecord, error) {
	f := cf.f
	nb := len(f.Blocks)
	in := make([]*mustState, nb)
	var calleeIn map[string]*mustState
	var exit *mustState
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
			out := pool.cloneOf(in[b.Index])
			c.transferSym(cf.blocks[b.Index], cc, lay, spmSize, out)

			// Call at block end: record the state flowing into the callee and
			// splice the callee's current exit in (none yet: stop propagating
			// here; the interprocedural loop re-runs us once it appears).
			if len(b.Instrs) > 0 {
				if callee := b.Instrs[len(b.Instrs)-1].CallTarget; callee != "" {
					if calleeIn == nil {
						calleeIn = make(map[string]*mustState)
					}
					if prev := calleeIn[callee]; prev == nil {
						calleeIn[callee] = out.clone()
					} else {
						prev.join(out)
					}
					var ex *mustState
					if cr := recs[callee]; cr != nil {
						ex = cr.exit
					}
					pool.put(out)
					if ex == nil {
						continue
					}
					out = pool.cloneOf(ex)
				}
			}

			if len(b.Succs) == 0 {
				if exit == nil {
					exit = out.clone()
				} else {
					exit.join(out)
				}
				pool.put(out)
				continue
			}
			for _, e := range b.Succs {
				if prev := in[e.To.Index]; prev == nil {
					in[e.To.Index] = pool.cloneOf(out)
					push(e.To)
				} else if prev.join(out) {
					push(e.To)
				}
			}
			pool.put(out)
		}
	}

	rec := &mustRecord{exit: exit, calleeIn: calleeIn, cost: make([]int64, nb)}
	for _, b := range f.Blocks {
		var s *mustState
		if st := in[b.Index]; st != nil {
			s = pool.cloneOf(st)
		} else {
			s = pool.top()
		}
		rec.cost[b.Index] = c.costWalkSym(cf.blocks[b.Index], cc, lay, spmSize, s, &rec.counts)
		pool.put(s)
	}
	for _, st := range in {
		pool.put(st)
	}
	return rec, nil
}

// mustPass brings every function's MUST record up to date with the layout:
// an interprocedural chaotic iteration at function granularity,
// callers-first so entry states propagate downward early. Entry states are
// the join over callers' recorded contributions; exit changes wake callers,
// record changes wake callees. It converges to the same unique MFP as the
// cold block-level iteration, and returns the number of distinct functions
// whose solve actually ran.
func (c *Engine) mustPass(cc cache.Config, lay []link.ObjLayout, spmSize uint32) (uint64, error) {
	pool := c.pools[cc.Size]
	if pool == nil {
		pool = newStatePool(cc)
		c.pools[cc.Size] = pool
	}
	reran := make(map[string]bool)
	recs := make(map[string]*mustRecord, len(c.order))
	work := make([]string, 0, len(c.order))
	queued := make(map[string]bool, len(c.order))
	push := func(name string) {
		if !queued[name] {
			queued[name] = true
			work = append(work, name)
		}
	}
	for i := len(c.order) - 1; i >= 0; i-- {
		push(c.order[i])
	}
	steps := 0
	for len(work) > 0 {
		steps++
		if steps > 1_000_000 {
			return 0, fmt.Errorf("wcet: cache analysis did not converge")
		}
		name := work[0]
		work = work[1:]
		queued[name] = false
		cf := c.funcs[name]

		var entry *mustState
		if name == c.root {
			entry = pool.top()
		}
		for _, caller := range cf.callers {
			if cr := recs[caller]; cr != nil {
				if contrib := cr.calleeIn[name]; contrib != nil {
					if entry == nil {
						entry = pool.cloneOf(contrib)
					} else {
						entry.join(contrib)
					}
				}
			}
		}

		key := c.mustKey(cf, cc.Size, spmSize, lay, c.stateID(entry), recs)
		rec := cf.must[key]
		if rec == nil {
			var err error
			rec, err = c.runMust(cf, cc, lay, spmSize, entry, recs, pool)
			if err != nil {
				pool.put(entry)
				return 0, err
			}
			putCapped(cf.must, key, rec)
			reran[name] = true
		}
		pool.put(entry)

		if old := recs[name]; old != rec {
			recs[name] = rec
			for _, callee := range cf.callees {
				push(callee)
			}
			exitChanged := old == nil ||
				(old.exit == nil) != (rec.exit == nil) ||
				(old.exit != nil && !old.exit.equal(rec.exit))
			if exitChanged {
				for _, caller := range cf.callers {
					push(caller)
				}
			}
		}
	}
	for _, name := range c.order {
		cf := c.funcs[name]
		cf.rec, cf.cost = recs[name], recs[name].cost
	}
	return uint64(len(reran)), nil
}
