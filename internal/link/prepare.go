// Delta linking. The paper's sweep re-links the program once per scratchpad
// capacity, but consecutive placements differ in a handful of objects: the
// address walk is cheap to redo exactly, and a relocation's patched bytes only
// change when the addresses it depends on change. Prepare computes the
// capacity-0 base layout and fully resolved base images once per program,
// plus a reverse relocation index (symbol -> dependent image sites); Relink
// then rebuilds the address walk, diffs it against a pool of previously
// linked layouts, and patches each placement from whichever donor leaves the
// fewest of its sites stale — re-resolving only the relocations whose
// patched bytes actually change (an absolute word whose target moved, or a
// branch whose source and target shifted by different amounts) and sharing
// the untouched donor images copy-on-write.
package link

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/obj"
	"repro/internal/obs"
)

var (
	mLinkFull = obs.Default.Counter("wcetlab_link_full_total",
		"Full (from-scratch) program links.")
	mLinkDelta = obs.Default.Counter("wcetlab_link_delta_total",
		"Delta relinks patched from a prepared base layout.")
	mRelocsResolved = obs.Default.Counter("wcetlab_link_relocs_resolved_total",
		"Relocations re-resolved by delta relinks.")
	mRelocsReused = obs.Default.Counter("wcetlab_link_relocs_reused_total",
		"Relocations whose donor-image resolution was reused by delta relinks.")
)

// maxDonors bounds the layout pool a Prepared keeps as patch sources: the
// base plus the most recent relinked layouts. Sweeps revisit similar
// placements, so a small pool captures most sharing.
const maxDonors = 16

// relocSite addresses one relocation: placement index pi (objects keep their
// program order across placements), relocation index ri within that object.
type relocSite struct {
	pi, ri int
}

// Prepared is a program's base layout plus the indexes needed to patch it
// into any placement. Safe for concurrent Relink calls.
type Prepared struct {
	prog *obj.Program
	base *Executable
	// byTarget lists, per symbol, the relocation sites whose resolved bytes
	// depend on that symbol's address.
	byTarget map[string][]relocSite
	// tIdx[pi][ri] is the placement index of relocation ri's target — the
	// reverse index flattened for the per-site staleness checks.
	tIdx    [][]int32
	nrelocs uint64

	// donors is the pool of previously linked layouts (donors[0] is always
	// the base); evict rotates through the replaceable slots. The pool only
	// affects how much work a relink reuses, never its output.
	mu     sync.Mutex
	donors []*Executable
	evict  int

	relinks, resolved, reused atomic.Uint64
}

// RelinkStats counts the work done (and avoided) by Relink calls.
type RelinkStats struct {
	Relinks        uint64
	RelocsResolved uint64
	RelocsReused   uint64
}

// Prepare links the capacity-0 base layout once and indexes its relocations
// for delta relinking.
func Prepare(p *obj.Program) (*Prepared, error) {
	base, err := Link(p, 0, nil)
	if err != nil {
		return nil, err
	}
	pr := &Prepared{
		prog:     p,
		base:     base,
		byTarget: make(map[string][]relocSite),
		tIdx:     make([][]int32, len(base.Placements)),
		donors:   []*Executable{base},
	}
	objIdx := make(map[string]int, len(base.Placements))
	for pi, pl := range base.Placements {
		objIdx[pl.Obj.Name] = pi
		pr.tIdx[pi] = make([]int32, len(pl.Obj.Relocs))
		for ri, r := range pl.Obj.Relocs {
			pr.nrelocs++
			pr.byTarget[r.Target] = append(pr.byTarget[r.Target], relocSite{pi, ri})
		}
	}
	for sym, sites := range pr.byTarget {
		ti := int32(objIdx[sym]) // present: the base link resolved every target
		for _, s := range sites {
			pr.tIdx[s.pi][s.ri] = ti
		}
	}
	return pr, nil
}

// Base returns the capacity-0 base executable.
func (pr *Prepared) Base() *Executable { return pr.base }

// ObjLayout is one object's address assignment under a placement, in
// program (placement) order.
type ObjLayout struct {
	Addr  uint32
	InSPM bool
}

// Layout runs the linker's address walk for one placement without
// materialising images — identical arithmetic and diagnostics to Link and
// Relink — returning only each object's address and memory side. It is how
// the incremental WCET engine validates a placement and sees which objects
// a move actually changed.
func (pr *Prepared) Layout(spmSize uint32, inSPM map[string]bool) ([]ObjLayout, error) {
	if spmSize > SPMMax {
		return nil, fmt.Errorf("link: scratchpad size %d exceeds maximum %d", spmSize, SPMMax)
	}
	out := make([]ObjLayout, len(pr.prog.Objects))
	align := func(v, a uint32) uint32 { return (v + a - 1) &^ (a - 1) }
	spmCur, codeCur, dataCur := SPMBase, CodeBase, DataBase
	for i, o := range pr.prog.Objects {
		switch {
		case inSPM[o.Name]:
			if spmSize == 0 {
				return nil, fmt.Errorf("link: %s allocated to scratchpad but scratchpad size is 0", o.Name)
			}
			spmCur = align(spmCur, o.Align)
			out[i] = ObjLayout{Addr: spmCur, InSPM: true}
			spmCur += o.Size()
			if spmCur-SPMBase > spmSize {
				return nil, fmt.Errorf("link: scratchpad overflow: %s ends at %d, capacity %d", o.Name, spmCur-SPMBase, spmSize)
			}
		case o.Kind == obj.Code:
			codeCur = align(codeCur, o.Align)
			out[i] = ObjLayout{Addr: codeCur}
			codeCur += o.Size()
		default:
			dataCur = align(dataCur, o.Align)
			out[i] = ObjLayout{Addr: dataCur}
			dataCur += o.Size()
		}
	}
	return out, nil
}

// Stats returns cumulative relink counters.
func (pr *Prepared) Stats() RelinkStats {
	return RelinkStats{
		Relinks:        pr.relinks.Load(),
		RelocsResolved: pr.resolved.Load(),
		RelocsReused:   pr.reused.Load(),
	}
}

// snapshotDonors returns the current donor pool.
func (pr *Prepared) snapshotDonors() []*Executable {
	pr.mu.Lock()
	defer pr.mu.Unlock()
	return append([]*Executable(nil), pr.donors...)
}

// addDonor admits a successfully relinked layout to the pool, rotating out
// the oldest non-base donor once the pool is full.
func (pr *Prepared) addDonor(e *Executable) {
	pr.mu.Lock()
	defer pr.mu.Unlock()
	if len(pr.donors) < maxDonors {
		pr.donors = append(pr.donors, e)
		return
	}
	pr.donors[1+pr.evict%(maxDonors-1)] = e
	pr.evict++
}

// Relink produces an executable identical to Link(prog, spmSize, inSPM) —
// same addresses, same image bytes, same errors — by patching previously
// linked layouts. Each placement borrows from the donor layout that leaves
// the fewest of its relocation sites stale; placements with no stale site
// share the donor image (copy-on-write), and only stale sites are
// re-resolved. A site is stale iff its patched value changed: an Abs32
// word iff its target moved relative to the donor, a BL iff source and
// target shifted by different deltas (the displacement is PC-relative, so
// a uniformly shifted suffix keeps its encoding).
func (pr *Prepared) Relink(spmSize uint32, inSPM map[string]bool) (*Executable, error) {
	// Address walk: identical arithmetic (and errors) to Link's.
	lay, err := pr.Layout(spmSize, inSPM)
	if err != nil {
		return nil, err
	}
	e := &Executable{
		Prog:    pr.prog,
		SPMSize: spmSize,
		byName:  make(map[string]*Placement, len(pr.prog.Objects)),
	}
	e.Placements = make([]*Placement, 0, len(pr.prog.Objects))
	for i, o := range pr.prog.Objects {
		pl := &Placement{Obj: o, Addr: lay[i].Addr, InSPM: lay[i].InSPM}
		e.Placements = append(e.Placements, pl)
		e.byName[o.Name] = pl
	}

	mLinkDelta.Inc()
	pr.relinks.Add(1)

	if spmSize == 0 {
		// The walk with an empty scratchpad reproduces the base layout.
		mRelocsReused.Add(pr.nrelocs)
		pr.reused.Add(pr.nrelocs)
		return pr.base, nil
	}

	// Per-donor address deltas, one flat row per donor.
	donors := pr.snapshotDonors()
	nd, n := len(donors), len(e.Placements)
	deltas := make([]int64, nd*n)
	for d, don := range donors {
		row := deltas[d*n : (d+1)*n]
		for i, pl := range e.Placements {
			row[i] = int64(pl.Addr) - int64(don.Placements[i].Addr)
		}
	}

	var resolved uint64
	for i, pl := range e.Placements {
		relocs := pl.Obj.Relocs
		if len(relocs) == 0 {
			// Site-free images are identical in every layout.
			pl.Image = pr.base.Placements[i].Image
			continue
		}
		// Borrow from the donor that leaves the fewest sites stale here,
		// preferring recent layouts (a sweep's neighbours resemble them).
		ti := pr.tIdx[i]
		best, bestCnt := 0, -1
		for d := nd - 1; d >= 0; d-- {
			row := deltas[d*n : (d+1)*n]
			di, cnt := row[i], 0
			for ri, r := range relocs {
				dt := row[ti[ri]]
				if r.Kind == obj.RelocAbs32 {
					if dt != 0 {
						cnt++
					}
				} else if dt != di {
					cnt++
				}
			}
			if bestCnt < 0 || cnt < bestCnt {
				best, bestCnt = d, cnt
				if cnt == 0 {
					break
				}
			}
		}
		donorPl := donors[best].Placements[i]
		if bestCnt == 0 {
			// No site's patched value changed: the donor image is byte-exact.
			pl.Image = donorPl.Image
			continue
		}
		img := append([]byte(nil), donorPl.Image...)
		row := deltas[best*n : (best+1)*n]
		di := row[i]
		for ri, r := range relocs {
			dt := row[ti[ri]]
			if r.Kind == obj.RelocAbs32 {
				if dt == 0 {
					continue
				}
			} else if dt == di {
				continue
			}
			tgt := e.Placements[ti[ri]]
			switch r.Kind {
			case obj.RelocAbs32:
				v := tgt.Addr + uint32(r.Addend)
				img[r.Offset] = byte(v)
				img[r.Offset+1] = byte(v >> 8)
				img[r.Offset+2] = byte(v >> 16)
				img[r.Offset+3] = byte(v >> 24)
			case obj.RelocBL:
				instrAddr := pl.Addr + r.Offset
				disp := int64(tgt.Addr) - int64(instrAddr) - 4
				if disp < -(1<<22) || disp >= 1<<22 {
					return nil, fmt.Errorf("link: %s: BL to %s displacement %d exceeds range", pl.Obj.Name, r.Target, disp)
				}
				hi := uint16((disp >> 12) & 0x7FF)
				lo := uint16((disp >> 1) & 0x7FF)
				hw1 := uint16(0b11110<<11) | hi
				hw2 := uint16(0b11111<<11) | lo
				img[r.Offset] = byte(hw1)
				img[r.Offset+1] = byte(hw1 >> 8)
				img[r.Offset+2] = byte(hw2)
				img[r.Offset+3] = byte(hw2 >> 8)
			}
			resolved++
		}
		pl.Image = img
	}

	reused := pr.nrelocs - resolved
	mRelocsResolved.Add(resolved)
	mRelocsReused.Add(reused)
	pr.resolved.Add(resolved)
	pr.reused.Add(reused)

	if pr.prog.Entry != "" {
		e.EntryAddr = e.byName[pr.prog.Entry].Addr
	}
	if pr.prog.Main != "" {
		e.MainAddr = e.byName[pr.prog.Main].Addr
	}
	pr.addDonor(e)
	return e, nil
}
