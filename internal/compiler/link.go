package compiler

import (
	"fmt"
	"slices"

	"repro/internal/hlc"
	"repro/internal/isa"
)

// Object is one function compiled on its own, like an object file: its
// code, whose LD/ST and CALL instructions name globals and functions by
// their indices in the program it was compiled in, and that program's
// name tables, by which linking resolves them against another program.
// Linking never changes an Object, so one serves any number of programs.
type Object struct {
	fn *isa.Func
	// globals names the global of each LD/ST Sym index, funcs the callee
	// of each CALL Sym index.
	globals, funcs []string
}

// CompileFuncs compiles the functions of cp at the indices idx, each on
// its own, for target at -O0, the level synthesis calibrates at. -O0 code
// depends on nothing of the rest of the program but what a function's
// hlc.FuncKeys key records, so each object links into any program holding
// a function of the same key.
func CompileFuncs(cp *hlc.CheckedProgram, idx []int, target *isa.Desc) ([]*Object, error) {
	if target == nil {
		return nil, fmt.Errorf("compiler: nil target ISA")
	}
	syms := newSymbols(cp.Prog)
	objs := make([]*Object, len(idx))
	for k, i := range idx {
		f, err := lowerFunc(cp, cp.Funcs[i], syms)
		if err != nil {
			return nil, err
		}
		tidy(f)
		if err := allocate(f, target, optimizeFunc(f, O0)); err != nil {
			return nil, fmt.Errorf("compiler: %s: %w", f.Name, err)
		}
		objs[k] = &Object{fn: f, globals: syms.globalNames, funcs: syms.funcNames}
	}
	return objs, nil
}

// Link assembles cp's -O0 program for target from one object per
// function, objs[i] compiled by CompileFuncs from a function with the key
// of cp's function i (under cp or under any other program). The result
// equals Compile(cp, target, O0). It shares an object's code wherever
// cp gives each symbol the object names the index the object's program
// gave it, and copies the blocks where it does not, resolved; the
// program is read-only, like every compiled program.
func Link(cp *hlc.CheckedProgram, target *isa.Desc, objs []*Object) (*isa.Program, error) {
	if len(objs) != len(cp.Funcs) {
		return nil, fmt.Errorf("compiler: link: %d objects for %d functions", len(objs), len(cp.Funcs))
	}
	prog := &isa.Program{ISA: target, Globals: globalTable(cp.Prog), Funcs: make([]*isa.Func, len(objs))}
	syms := newSymbols(cp.Prog)
	// Objects compiled together share their name tables, so each table
	// is resolved once.
	resolved := make(map[*string][]int32)
	resolve := func(table []string, index map[string]int32) []int32 {
		if len(table) == 0 {
			return nil
		}
		out, ok := resolved[&table[0]]
		if !ok {
			out = make([]int32, len(table))
			for i, name := range table {
				if x, ok := index[name]; ok {
					out[i] = x
				} else {
					out[i] = -1 // an error only where an object uses it
				}
			}
			resolved[&table[0]] = out
		}
		return out
	}
	for i, obj := range objs {
		f, err := obj.link(resolve(obj.globals, syms.globals), resolve(obj.funcs, syms.funcs))
		if err != nil {
			return nil, err
		}
		prog.Funcs[i] = f
	}
	var err error
	prog.Entry, err = entry(prog.Funcs)
	return prog, err
}

// link returns obj's code with every symbol at the index the maps give
// it: obj.fn itself when each is there already, or else a copy that
// shares every block whose symbols are.
func (obj *Object) link(globals, funcs []int32) (*isa.Func, error) {
	var f *isa.Func
	for b, ob := range obj.fn.Blocks {
		var code []isa.Instr // ob's instructions, copied once a symbol moves
		for k := range ob.Instrs {
			in := &ob.Instrs[k]
			sym := linkedSym(in, globals, funcs)
			if sym == in.Sym {
				continue
			}
			if sym < 0 {
				return nil, fmt.Errorf("compiler: link %s: %s names a symbol the program lacks", obj.fn.Name, in)
			}
			if f == nil {
				f = new(isa.Func)
				*f = *obj.fn
				f.Blocks = slices.Clone(f.Blocks)
			}
			if code == nil {
				code = slices.Clone(ob.Instrs)
				nb := *ob
				nb.Instrs = code
				f.Blocks[b] = &nb
			}
			code[k].Sym = sym
		}
	}
	if f == nil {
		return obj.fn, nil
	}
	return f, nil
}

// linkedSym returns the index in's symbol resolves to through the tables
// (in.Sym for an instruction that names none).
func linkedSym(in *isa.Instr, globals, funcs []int32) int32 {
	switch in.Op {
	case isa.LD, isa.ST:
		return globals[in.Sym]
	case isa.CALL:
		return funcs[in.Sym]
	}
	return in.Sym
}

// symbols indexes a program's globals and functions by name, the first
// declaration of a name winning as in hlc.Check, and keeps the names by
// index.
type symbols struct {
	globals, funcs         map[string]int32
	globalNames, funcNames []string
}

func newSymbols(prog *hlc.Program) *symbols {
	s := &symbols{
		globals:     make(map[string]int32, len(prog.Globals)),
		funcs:       make(map[string]int32, len(prog.Funcs)),
		globalNames: make([]string, len(prog.Globals)),
		funcNames:   make([]string, len(prog.Funcs)),
	}
	for i, g := range prog.Globals {
		s.globalNames[i] = g.Name
		if _, dup := s.globals[g.Name]; !dup {
			s.globals[g.Name] = int32(i)
		}
	}
	for i, fn := range prog.Funcs {
		s.funcNames[i] = fn.Name
		if _, dup := s.funcs[fn.Name]; !dup {
			s.funcs[fn.Name] = int32(i)
		}
	}
	return s
}

// entry returns the index of main.
func entry(funcs []*isa.Func) (int, error) {
	for i := len(funcs) - 1; i >= 0; i-- {
		if funcs[i].Name == "main" {
			return i, nil
		}
	}
	return -1, fmt.Errorf("compiler: no main function")
}
