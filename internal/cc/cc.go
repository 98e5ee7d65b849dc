package cc

import (
	"fmt"

	"repro/internal/asm"
	"repro/internal/obj"
)

// Compile compiles a MiniC translation unit into a complete program: one
// code object per function, one data object per global, the runtime library
// (software division) and the startup stub. The program's entry is
// "__start" and its analysis root is "main", which must be defined and take
// no parameters. The program is marked PlacementIndependent.
func Compile(src string) (*obj.Program, error) {
	file, err := parse(src)
	if err != nil {
		return nil, fmt.Errorf("cc: %w", err)
	}
	sema, err := analyse(file)
	if err != nil {
		return nil, fmt.Errorf("cc: %w", err)
	}
	mainFn := sema.funcs["main"]
	if mainFn == nil {
		return nil, fmt.Errorf("cc: no main function")
	}
	if len(mainFn.Params) != 0 {
		return nil, fmt.Errorf("cc: main must take no parameters")
	}

	var objs []*obj.Object
	crt, err := asm.Crt0("main")
	if err != nil {
		return nil, err
	}
	objs = append(objs, crt)

	for _, fn := range file.Funcs {
		o, err := genFunc(sema, fn)
		if err != nil {
			return nil, err
		}
		objs = append(objs, o)
	}
	for _, g := range file.Globals {
		objs = append(objs, genGlobal(g))
	}
	rt, err := asm.RuntimeObjects()
	if err != nil {
		return nil, err
	}
	objs = append(objs, rt...)

	// MiniC has no pointers (sema rejects them), so no value a program
	// computes depends on an object's address.
	prog := &obj.Program{Objects: objs, Entry: "__start", Main: "main", PlacementIndependent: true}
	if err := prog.Validate(); err != nil {
		return nil, fmt.Errorf("cc: %w", err)
	}
	return prog, nil
}

// genGlobal lowers a global declaration to a data object with little-endian
// initial contents.
func genGlobal(g *GlobalDecl) *obj.Object {
	w := g.Type.Base.Width()
	count := g.Type.ArrayLen
	if count == 0 {
		count = 1
	}
	data := make([]byte, int(w)*count)
	for i, v := range g.Init {
		off := i * int(w)
		for b := 0; b < int(w); b++ {
			data[off+b] = byte(uint64(v) >> (8 * b))
		}
	}
	return &obj.Object{
		Name:      g.Name,
		Kind:      obj.Data,
		Data:      data,
		Align:     4,
		ElemWidth: w,
		ReadOnly:  g.Const,
	}
}
