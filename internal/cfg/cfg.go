// Package cfg reconstructs control-flow graphs from linked THUMB
// executables: basic blocks, intraprocedural edges, dominators, natural
// loops with flow-fact bounds, and the interprocedural call graph. It is
// the front end of the WCET analyser, mirroring the binary-level CFG
// reconstruction of the paper's analysis tool.
package cfg

import (
	"fmt"
	"sort"

	"repro/internal/arm"
	"repro/internal/link"
	"repro/internal/obj"
)

// Instr is one decoded instruction with analysis metadata.
type Instr struct {
	Addr uint32
	In   arm.Instr
	// Size is 2, or 4 for a folded BL pair.
	Size uint32
	// CallTarget names the callee for BL instructions.
	CallTarget string
	// Hint names the memory object a data access touches ("" if none).
	Hint string
	// CrossTarget names the object a `mov pc, r0` long branch lands in
	// ("" for ordinary instructions) and CrossAddr its resolved target
	// address. Cross jumps stitch a function split across placement units
	// (see obj.CrossJump) back into one CFG.
	CrossTarget string
	CrossAddr   uint32
}

// Edge is a CFG edge.
type Edge struct {
	From, To *Block
	// Taken marks edges requiring a taken branch (pipeline-refill penalty).
	Taken bool
	// Back marks loop back edges (To dominates From).
	Back bool
}

// Block is a basic block.
type Block struct {
	Index      int
	Start, End uint32
	// Obj names the memory object holding the block's instructions. For an
	// unsplit function this is the function itself; for a function split at
	// basic-block granularity, fragment blocks name their fragment object —
	// the unit whose placement decides the block's fetch cost.
	Obj string
	// Instrs shares its backing array with the other blocks of the same
	// object: treat it as read-only.
	Instrs []Instr
	Succs  []*Edge
	Preds  []*Edge
}

// Loop is a natural loop.
type Loop struct {
	Head      *Block
	BackEdges []*Edge
	Blocks    map[*Block]bool
	// Bound is the maximum number of back-edge traversals per loop entry;
	// -1 when no flow fact is available.
	Bound int64
	// BoundTotal, when positive, bounds total back-edge traversals per
	// invocation of the enclosing function (triangular-nest flow fact).
	BoundTotal int64
}

// CallSite is a BL instruction within a function.
type CallSite struct {
	Block  *Block
	Instr  int // index into Block.Instrs
	Callee string
}

// Function is one reconstructed function.
type Function struct {
	Name   string
	Addr   uint32
	Entry  *Block
	Blocks []*Block
	Loops  []*Loop
	Calls  []CallSite
}

// Graph is the whole-program CFG.
type Graph struct {
	Exe   *link.Executable
	Funcs map[string]*Function
}

// Build reconstructs the CFG of every function reachable from the program
// entry, following call edges.
func Build(exe *link.Executable) (*Graph, error) {
	g := &Graph{Exe: exe, Funcs: map[string]*Function{}}
	if exe.Prog.Entry == "" {
		return nil, fmt.Errorf("cfg: executable has no entry")
	}
	work := []string{exe.Prog.Entry}
	for len(work) > 0 {
		name := work[len(work)-1]
		work = work[:len(work)-1]
		if g.Funcs[name] != nil {
			continue
		}
		f, err := buildFunc(exe, name)
		if err != nil {
			return nil, err
		}
		g.Funcs[name] = f
		for _, c := range f.Calls {
			if g.Funcs[c.Callee] == nil {
				work = append(work, c.Callee)
			}
		}
	}
	return g, nil
}

// TopoOrder returns function names with callees before callers. It fails on
// recursion, which the WCET analysis (like the paper's) does not support.
func (g *Graph) TopoOrder() ([]string, error) {
	const (
		white = 0
		grey  = 1
		black = 2
	)
	color := map[string]int{}
	var order []string
	var visit func(string) error
	visit = func(n string) error {
		switch color[n] {
		case grey:
			return fmt.Errorf("cfg: recursion involving %q is not analysable", n)
		case black:
			return nil
		}
		color[n] = grey
		for _, c := range g.Funcs[n].Calls {
			if err := visit(c.Callee); err != nil {
				return err
			}
		}
		color[n] = black
		order = append(order, n)
		return nil
	}
	names := make([]string, 0, len(g.Funcs))
	for n := range g.Funcs {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		if err := visit(n); err != nil {
			return nil, err
		}
	}
	return order, nil
}

// buildFunc reconstructs one function. A function split at basic-block
// granularity spans several code objects — the parent plus its fragments —
// connected by cross jumps (obj.CrossJump); buildFunc decodes every piece
// and stitches them into a single Function whose blocks know which object
// (placement unit) holds them.
func buildFunc(exe *link.Executable, name string) (*Function, error) {
	pl := exe.Placement(name)
	if pl == nil {
		return nil, fmt.Errorf("cfg: function %q not placed", name)
	}
	if pl.Obj.Kind != obj.Code {
		return nil, fmt.Errorf("cfg: %q is not code", name)
	}
	pieces := []*link.Placement{pl}
	for _, fn := range pl.Obj.Fragments {
		fpl := exe.Placement(fn)
		if fpl == nil {
			return nil, fmt.Errorf("cfg: fragment %q of %q not placed", fn, name)
		}
		pieces = append(pieces, fpl)
	}

	f := &Function{Name: name, Addr: pl.Addr}
	blockAt := map[uint32]*Block{}
	var pieceBlocks [][]*Block
	for _, ppl := range pieces {
		blocks, err := buildPieceBlocks(exe, f, ppl)
		if err != nil {
			return nil, err
		}
		for _, b := range blocks {
			blockAt[b.Start] = b
		}
		pieceBlocks = append(pieceBlocks, blocks)
	}
	f.Entry = f.Blocks[0]

	// Edges.
	connect := func(from, to *Block, taken bool) {
		e := &Edge{From: from, To: to, Taken: taken}
		from.Succs = append(from.Succs, e)
		to.Preds = append(to.Preds, e)
	}
	for _, blocks := range pieceBlocks {
		for bi, b := range blocks {
			last := b.Instrs[len(b.Instrs)-1]
			// Fall-through never crosses an object boundary: control leaves
			// a unit only via branches, returns or cross jumps.
			var fallthrough_ *Block
			if bi+1 < len(blocks) {
				fallthrough_ = blocks[bi+1]
			}
			switch {
			case last.CrossTarget != "":
				to := blockAt[last.CrossAddr]
				if to == nil {
					return nil, fmt.Errorf("cfg: %s: cross jump at %#x to %#x does not hit a block start", name, last.Addr, last.CrossAddr)
				}
				connect(b, to, true)
			case last.In.Op == arm.OpB:
				connect(b, blockAt[last.Addr+4+uint32(last.In.Imm)], true)
			case last.In.Op == arm.OpBCond:
				connect(b, blockAt[last.Addr+4+uint32(last.In.Imm)], true)
				if fallthrough_ == nil {
					return nil, fmt.Errorf("cfg: %s: conditional branch at %#x falls off the function", name, last.Addr)
				}
				connect(b, fallthrough_, false)
			case last.In.IsReturn():
				// no successors
			default:
				if fallthrough_ != nil {
					connect(b, fallthrough_, false)
				}
			}
			// Record call sites.
			for ii, ci := range b.Instrs {
				if ci.CallTarget != "" {
					f.Calls = append(f.Calls, CallSite{Block: b, Instr: ii, Callee: ci.CallTarget})
				}
			}
		}
	}

	// Flow facts from every piece, keyed by placed branch address.
	bounds := map[uint32]obj.LoopBound{}
	for _, ppl := range pieces {
		for _, lb := range ppl.Obj.LoopBounds {
			bounds[ppl.Addr+lb.BranchOffset] = lb
		}
	}
	if err := findLoops(f, bounds); err != nil {
		return nil, err
	}
	return f, nil
}

// buildPieceBlocks decodes one placed code object into basic blocks,
// appending them to f.Blocks (global indices) and returning the piece's
// own block list in address order.
func buildPieceBlocks(exe *link.Executable, f *Function, pl *link.Placement) ([]*Block, error) {
	o := pl.Obj
	name := o.Name

	hints := map[uint32]string{}
	for _, h := range o.Accesses {
		hints[h.InstrOffset] = h.Target
	}
	cross := map[uint32]obj.CrossJump{}
	for _, cj := range o.CrossJumps {
		cross[cj.InstrOffset] = cj
	}

	// Decode; fold BL pairs. A piece holds at most one instruction per
	// halfword, so the slice never grows.
	instrs := make([]Instr, 0, o.CodeSize/2)
	byAddr := map[uint32]int{}
	for off := uint32(0); off < o.CodeSize; {
		addr := pl.Addr + off
		hw := uint16(pl.Image[off]) | uint16(pl.Image[off+1])<<8
		in := arm.Decode(hw)
		ci := Instr{Addr: addr, In: in, Size: 2, Hint: hints[off]}
		switch in.Op {
		case arm.OpInvalid:
			return nil, fmt.Errorf("cfg: %s+%#x: undecodable instruction %#04x", name, off, hw)
		case arm.OpBlHi:
			if off+2 >= o.CodeSize {
				return nil, fmt.Errorf("cfg: %s+%#x: truncated BL pair", name, off)
			}
			hw2 := uint16(pl.Image[off+2]) | uint16(pl.Image[off+3])<<8
			lo := arm.Decode(hw2)
			if lo.Op != arm.OpBlLo {
				return nil, fmt.Errorf("cfg: %s+%#x: BL prefix without suffix", name, off)
			}
			target := addr + 4 + uint32(in.Imm<<12) + uint32(lo.Imm<<1)
			tpl := exe.FindAddr(target)
			if tpl == nil || tpl.Addr != target {
				return nil, fmt.Errorf("cfg: %s+%#x: BL to %#x does not hit a function entry", name, off, target)
			}
			ci.Size = 4
			ci.CallTarget = tpl.Obj.Name
		case arm.OpBlLo:
			return nil, fmt.Errorf("cfg: %s+%#x: BL suffix without prefix", name, off)
		case arm.OpMovHi, arm.OpAddHi:
			if in.Rd != arm.PC {
				break
			}
			cj, ok := cross[off]
			if !ok {
				return nil, fmt.Errorf("cfg: %s+%#x: indirect branch without cross-jump metadata", name, off)
			}
			tpl := exe.Placement(cj.Target)
			if tpl == nil {
				return nil, fmt.Errorf("cfg: %s+%#x: cross jump to unplaced %q", name, off, cj.Target)
			}
			ci.CrossTarget = cj.Target
			ci.CrossAddr = tpl.Addr + cj.TargetOffset
		}
		byAddr[addr] = len(instrs)
		instrs = append(instrs, ci)
		off += ci.Size
	}
	if len(instrs) == 0 {
		return nil, fmt.Errorf("cfg: %s: empty function", name)
	}

	// Leaders: entry, branch targets, instruction after any control flow.
	leader := map[uint32]bool{pl.Addr: true}
	for i, ci := range instrs {
		switch {
		case ci.In.Op == arm.OpB || ci.In.Op == arm.OpBCond:
			target := ci.Addr + 4 + uint32(ci.In.Imm)
			if _, ok := byAddr[target]; !ok {
				return nil, fmt.Errorf("cfg: %s: branch at %#x to %#x leaves the object", name, ci.Addr, target)
			}
			leader[target] = true
			if i+1 < len(instrs) {
				leader[instrs[i+1].Addr] = true
			}
		case ci.In.IsReturn() || ci.CallTarget != "" || ci.CrossTarget != "":
			if i+1 < len(instrs) {
				leader[instrs[i+1].Addr] = true
			}
		}
	}
	// Cross-jump landing offsets in *this* object are block leaders too.
	// Scan every piece of the program for jumps landing here: the linker
	// placed them, so resolve through the executable's placements.
	for _, opl := range exe.Placements {
		for _, cj := range opl.Obj.CrossJumps {
			if cj.Target == name {
				leader[pl.Addr+cj.TargetOffset] = true
			}
		}
	}

	// Split into blocks. Each block's Instrs is a capacity-capped window of
	// the piece's instruction slice, never a copy.
	var blocks []*Block
	lo := 0
	for hi := 1; hi <= len(instrs); hi++ {
		if hi < len(instrs) && !leader[instrs[hi].Addr] {
			continue
		}
		last := instrs[hi-1]
		b := &Block{Index: len(f.Blocks), Start: instrs[lo].Addr, End: last.Addr + last.Size,
			Obj: name, Instrs: instrs[lo:hi:hi]}
		f.Blocks = append(f.Blocks, b)
		blocks = append(blocks, b)
		lo = hi
	}
	return blocks, nil
}

// findLoops computes dominators, identifies back edges and natural loops,
// and attaches the flow-fact bounds (keyed by placed branch address).
func findLoops(f *Function, bounds map[uint32]obj.LoopBound) error {
	n := len(f.Blocks)
	// Iterative dominator computation (Cooper/Harvey/Kennedy simplified:
	// bitset iteration is fine at this scale).
	dom := make([]map[int]bool, n)
	all := map[int]bool{}
	for i := 0; i < n; i++ {
		all[i] = true
	}
	for i := range dom {
		if i == 0 {
			dom[i] = map[int]bool{0: true}
		} else {
			d := map[int]bool{}
			for k := range all {
				d[k] = true
			}
			dom[i] = d
		}
	}
	changed := true
	for changed {
		changed = false
		for i := 1; i < n; i++ {
			b := f.Blocks[i]
			if len(b.Preds) == 0 {
				continue // unreachable
			}
			var inter map[int]bool
			for _, e := range b.Preds {
				pd := dom[e.From.Index]
				if inter == nil {
					inter = map[int]bool{}
					for k := range pd {
						inter[k] = true
					}
				} else {
					for k := range inter {
						if !pd[k] {
							delete(inter, k)
						}
					}
				}
			}
			inter[i] = true
			if len(inter) != len(dom[i]) {
				dom[i] = inter
				changed = true
			}
		}
	}

	loops := map[*Block]*Loop{}
	for _, b := range f.Blocks {
		for _, e := range b.Succs {
			if !dom[b.Index][e.To.Index] {
				continue
			}
			// e is a back edge to head e.To.
			e.Back = true
			l := loops[e.To]
			if l == nil {
				l = &Loop{Head: e.To, Blocks: map[*Block]bool{e.To: true}, Bound: -1}
				loops[e.To] = l
				f.Loops = append(f.Loops, l)
			}
			l.BackEdges = append(l.BackEdges, e)
			// Natural loop body: nodes reaching From without passing Head.
			stack := []*Block{b}
			for len(stack) > 0 {
				x := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				if l.Blocks[x] {
					continue
				}
				l.Blocks[x] = true
				for _, pe := range x.Preds {
					stack = append(stack, pe.From)
				}
			}
			// The back-edge branch is the last instruction of the source
			// block; its flow fact, if any, bounds the loop.
			last := b.Instrs[len(b.Instrs)-1]
			if lb, ok := bounds[last.Addr]; ok {
				if l.Bound < 0 || lb.MaxIter < l.Bound {
					l.Bound = lb.MaxIter
				}
				if lb.TotalIter > 0 && (l.BoundTotal == 0 || lb.TotalIter < l.BoundTotal) {
					l.BoundTotal = lb.TotalIter
				}
			}
		}
	}
	sort.Slice(f.Loops, func(i, j int) bool { return f.Loops[i].Head.Index < f.Loops[j].Head.Index })
	return nil
}

// EntryEdges returns the loop's entry edges: every edge into the head that
// is not a back edge.
func (l *Loop) EntryEdges() []*Edge {
	var in []*Edge
	for _, e := range l.Head.Preds {
		if !e.Back {
			in = append(in, e)
		}
	}
	return in
}
