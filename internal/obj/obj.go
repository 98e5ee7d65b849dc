// Package obj defines the relocatable object model shared by the compiler,
// linker, simulator and WCET analyser.
//
// Following the paper's allocation granularity, a *memory object* is either
// one complete function (code, including its literal pool) or one global
// data element. The scratchpad allocator decides per object whether it
// lives in the scratchpad or in main memory; the linker then assigns
// addresses and resolves relocations.
//
// Objects carry the metadata that the paper's workflow derives "from the
// simulator and from the linker" and feeds to the WCET analyser as
// annotations: loop bounds (flow facts) and the memory object targeted by
// each data access (address-range annotations for the cache analysis).
package obj

import "fmt"

// Kind distinguishes code from data objects.
type Kind uint8

const (
	// Code is a function: THUMB instructions followed by its literal pool.
	Code Kind = iota
	// Data is one global variable or array.
	Data
)

func (k Kind) String() string {
	if k == Code {
		return "code"
	}
	return "data"
}

// RelocKind is the type of a relocation.
type RelocKind uint8

const (
	// RelocAbs32 patches a 32-bit literal-pool slot with the absolute
	// address of the target object (plus addend).
	RelocAbs32 RelocKind = iota
	// RelocBL patches a two-halfword THUMB BL pair with the PC-relative
	// offset to the target function.
	RelocBL
)

// Reloc is a relocation within an object's Data.
type Reloc struct {
	Kind   RelocKind
	Offset uint32 // byte offset within Data
	Target string // name of the referenced object
	Addend int32  // byte addend (e.g. field offset)
}

// LoopBound is a flow fact about the back-edge branch at BranchOffset.
// MaxIter bounds its executions per entry into the loop; TotalIter, when
// positive, additionally bounds its executions per invocation of the
// enclosing function — the annotation that makes triangular loop nests
// analysable tightly (aiT supports the same kind of global flow facts).
// The compiler derives MaxIter for counted loops automatically;
// data-dependent loops carry user annotations.
type LoopBound struct {
	BranchOffset uint32 // byte offset of the back-edge branch instruction
	MaxIter      int64
	TotalIter    int64 // 0 = no total bound
}

// AccessHint states that the load/store instruction at InstrOffset accesses
// the named object (anywhere within it). The WCET analyser derives the
// access cost from the object's placement and element width; the cache
// analysis treats the object's whole address range as possibly touched.
type AccessHint struct {
	InstrOffset uint32
	Target      string
}

// Object is one memory object.
type Object struct {
	Name      string
	Kind      Kind
	Data      []byte
	Align     uint32 // address alignment; 4 covers code and word data
	ElemWidth uint8  // data: element access width in bytes (1, 2 or 4)
	ReadOnly  bool

	Relocs []Reloc

	// Code-only metadata.
	CodeSize   uint32 // instruction bytes; the literal pool follows
	LoopBounds []LoopBound
	Accesses   []AccessHint
	Calls      []string // callee names (also derivable from Relocs)

	// Placement-unit metadata (see split.go). A function split at
	// basic-block granularity spans multiple code objects: the parent
	// (keeping the function name) lists its Fragments, each fragment names
	// its Parent, and CrossJumps mark the `mov pc, r0` long-branch sites
	// that carry control between them. internal/cfg stitches the objects
	// back into one analysed function along these edges.
	Parent     string
	Fragments  []string
	CrossJumps []CrossJump
}

// Size returns the object's size in bytes.
func (o *Object) Size() uint32 { return uint32(len(o.Data)) }

// Validate performs structural checks.
func (o *Object) Validate() error {
	if o.Name == "" {
		return fmt.Errorf("obj: unnamed object")
	}
	if o.Align == 0 || o.Align&(o.Align-1) != 0 {
		return fmt.Errorf("obj: %s: alignment %d not a power of two", o.Name, o.Align)
	}
	if o.Kind == Code {
		if o.CodeSize > uint32(len(o.Data)) {
			return fmt.Errorf("obj: %s: code size %d exceeds data %d", o.Name, o.CodeSize, len(o.Data))
		}
		if o.CodeSize%2 != 0 {
			return fmt.Errorf("obj: %s: odd code size %d", o.Name, o.CodeSize)
		}
	} else if o.ElemWidth != 1 && o.ElemWidth != 2 && o.ElemWidth != 4 {
		return fmt.Errorf("obj: %s: element width %d invalid", o.Name, o.ElemWidth)
	}
	for _, r := range o.Relocs {
		lim := uint32(len(o.Data))
		if r.Kind == RelocAbs32 && r.Offset+4 > lim || r.Kind == RelocBL && r.Offset+4 > lim {
			return fmt.Errorf("obj: %s: relocation at %d out of range", o.Name, r.Offset)
		}
	}
	if (len(o.Fragments) > 0 || len(o.CrossJumps) > 0 || o.Parent != "") && o.Kind != Code {
		return fmt.Errorf("obj: %s: placement-unit metadata on a data object", o.Name)
	}
	if o.Parent != "" && len(o.Fragments) > 0 {
		return fmt.Errorf("obj: %s: fragment cannot itself be split", o.Name)
	}
	for _, cj := range o.CrossJumps {
		if cj.InstrOffset+2 > o.CodeSize {
			return fmt.Errorf("obj: %s: cross jump at %d outside the code", o.Name, cj.InstrOffset)
		}
	}
	return nil
}

// Program is a compiled, unplaced set of memory objects.
type Program struct {
	Objects []*Object
	// Entry is the entry function (the runtime start stub). Simulation
	// starts here, and so does every WCET analysis.
	Entry string
	// Main is the program's main function, which the entry stub calls. It
	// is not the analysis root. The linker records its address, and it is
	// part of the program's content hash (store.ProgramKey).
	Main string
	// PlacementIndependent marks a program whose instructions and memory
	// accesses do not depend on where its objects are placed, so a new
	// placement changes only what each access costs. Compiled MiniC has it
	// (the language has no pointers); hand-assembled and split programs do
	// not. It changes how a result is computed, never the result, so it
	// is not part of the program's store key.
	PlacementIndependent bool
}

// Object returns the named object, or nil.
func (p *Program) Object(name string) *Object {
	for _, o := range p.Objects {
		if o.Name == name {
			return o
		}
	}
	return nil
}

// Functions returns the code objects in definition order.
func (p *Program) Functions() []*Object {
	var fs []*Object
	for _, o := range p.Objects {
		if o.Kind == Code {
			fs = append(fs, o)
		}
	}
	return fs
}

// Globals returns the data objects in definition order.
func (p *Program) Globals() []*Object {
	var gs []*Object
	for _, o := range p.Objects {
		if o.Kind == Data {
			gs = append(gs, o)
		}
	}
	return gs
}

// Validate checks the whole program, including relocation targets.
func (p *Program) Validate() error {
	seen := map[string]bool{}
	for _, o := range p.Objects {
		if err := o.Validate(); err != nil {
			return err
		}
		if seen[o.Name] {
			return fmt.Errorf("obj: duplicate object %q", o.Name)
		}
		seen[o.Name] = true
	}
	for _, o := range p.Objects {
		for _, r := range o.Relocs {
			if !seen[r.Target] {
				return fmt.Errorf("obj: %s: relocation against undefined %q", o.Name, r.Target)
			}
		}
		for _, c := range o.Calls {
			if !seen[c] {
				return fmt.Errorf("obj: %s: call to undefined %q", o.Name, c)
			}
		}
		for _, f := range o.Fragments {
			fo := p.Object(f)
			if fo == nil {
				return fmt.Errorf("obj: %s: fragment %q undefined", o.Name, f)
			}
			if fo.Parent != o.Name {
				return fmt.Errorf("obj: %s: fragment %q names parent %q", o.Name, f, fo.Parent)
			}
		}
		if o.Parent != "" {
			po := p.Object(o.Parent)
			if po == nil {
				return fmt.Errorf("obj: %s: parent %q undefined", o.Name, o.Parent)
			}
			found := false
			for _, f := range po.Fragments {
				found = found || f == o.Name
			}
			if !found {
				return fmt.Errorf("obj: %s: parent %q does not list it as a fragment", o.Name, o.Parent)
			}
		}
		for _, cj := range o.CrossJumps {
			if !seen[cj.Target] {
				return fmt.Errorf("obj: %s: cross jump to undefined %q", o.Name, cj.Target)
			}
		}
	}
	if p.Entry != "" && !seen[p.Entry] {
		return fmt.Errorf("obj: entry %q undefined", p.Entry)
	}
	if p.Main != "" && !seen[p.Main] {
		return fmt.Errorf("obj: main %q undefined", p.Main)
	}
	return nil
}
