// Package compiler translates checked HLC programs into virtual-ISA machine
// code at one of four optimization levels, standing in for GCC in the
// paper's methodology:
//
//	O0 — every local variable lives in a stack slot; every use is a load and
//	     every definition a store (like gcc -O0). Profiling for benchmark
//	     synthesis happens at this level, exactly as in the paper.
//	O1 — promotes locals to registers (mem2reg), folds constants, propagates
//	     copies, and removes dead code.
//	O2 — adds local common-subexpression elimination, strength reduction,
//	     loop-invariant code motion, and (on EPIC targets) static
//	     instruction scheduling into issue bundles.
//	O3 — adds inlining of small functions.
//
// The pass roster per level is what makes the paper's Fig. 5/6/11 shapes
// reappear: dynamic instruction count drops sharply from O0 to O1 and only
// slightly after; the load fraction falls and the arithmetic fraction rises
// with optimization; and only the EPIC target gains substantially from the
// O2 scheduler, which is the Itanium effect in Fig. 11.
//
// Compilation has two halves. Optimize is everything that does not depend
// on the target: lowering, the level's passes, and the live intervals
// register allocation needs. (*Optimized).Target is the per-ISA rest:
// linear-scan allocation, spill code, and EPIC scheduling. One Optimized
// serves any number of targets; Compile is Optimize followed by Target.
package compiler

import (
	"fmt"
	"math"

	"repro/internal/hlc"
	"repro/internal/isa"
)

// OptLevel selects the optimization level.
type OptLevel int

// Optimization levels, mirroring gcc -O0..-O3.
const (
	O0 OptLevel = iota
	O1
	O2
	O3
)

// String returns the gcc-style spelling of the level.
func (l OptLevel) String() string { return fmt.Sprintf("-O%d", int(l)) }

// Levels lists all optimization levels in ascending order.
var Levels = []OptLevel{O0, O1, O2, O3}

// Compile translates a checked program for the given ISA at the given
// optimization level: Optimize followed by Target.
func Compile(cp *hlc.CheckedProgram, target *isa.Desc, level OptLevel) (*isa.Program, error) {
	o, err := Optimize(cp, level)
	if err != nil {
		return nil, err
	}
	return o.Target(target)
}

// Optimized is a program after the target-independent half of
// compilation: lowered, optimized virtual-register code, plus each
// function's live intervals for register allocation. One Optimized serves
// any number of Target calls, concurrently too; none of them changes it.
type Optimized struct {
	level OptLevel
	prog  *isa.Program // virtual-register code; ISA is nil
	// itvs holds each function's live intervals in (begin, reg) order.
	itvs [][]interval
}

// Optimize runs everything of compilation that does not depend on the
// target: lowering, the level's optimization passes, and the liveness
// analysis behind register allocation.
func Optimize(cp *hlc.CheckedProgram, level OptLevel) (*Optimized, error) {
	prog := &isa.Program{Globals: globalTable(cp.Prog), Funcs: make([]*isa.Func, len(cp.Funcs))}
	syms := newSymbols(cp.Prog)
	for i, cf := range cp.Funcs {
		f, err := lowerFunc(cp, cf, syms)
		if err != nil {
			return nil, err
		}
		prog.Funcs[i] = f
	}
	var err error
	if prog.Entry, err = entry(prog.Funcs); err != nil {
		return nil, err
	}

	// Optimization pipeline on virtual-register code.
	for _, f := range prog.Funcs {
		tidy(f)
	}
	if level >= O3 {
		inlineSmallFuncs(prog)
	}
	o := &Optimized{level: level, prog: prog, itvs: make([][]interval, len(prog.Funcs))}
	for i, f := range prog.Funcs {
		o.itvs[i] = optimizeFunc(f, level)
	}
	return o, nil
}

// optimizeFunc runs the level's per-function passes over f, after
// lowering and tidying (and, at O3, inlining), and returns its live
// intervals in (begin, reg) order.
func optimizeFunc(f *isa.Func, level OptLevel) []interval {
	if level >= O1 {
		mem2reg(f)
		for i := 0; i < 3; i++ {
			constFold(f)
			copyProp(f)
			if level >= O2 {
				localCSE(f)
				strengthReduce(f)
			}
			deadCodeElim(f)
		}
		if level >= O2 {
			licm(f)
			copyProp(f)
			deadCodeElim(f)
		}
	}
	tidy(f)
	return intervals(f)
}

// globalTable lays out a program's globals: scalars become length-1
// globals. A scalar's initializer, a literal (hlc.Check enforces it), is
// recorded in the table and installed by vm.New when the program is
// loaded.
func globalTable(prog *hlc.Program) []isa.Global {
	globals := make([]isa.Global, len(prog.Globals))
	for i, g := range prog.Globals {
		gl := isa.Global{Name: g.Name, Kind: isa.KindInt, Len: max(g.ArrayLen, 1)}
		if g.Type == hlc.TypeFloat {
			gl.Kind = isa.KindFloat
		}
		switch v := hlc.Literal(g.Init).(type) {
		case *hlc.IntLit:
			gl.Init = v.Value
			if gl.Kind == isa.KindFloat {
				gl.Init = int64(math.Float64bits(float64(v.Value)))
			}
		case *hlc.FloatLit:
			gl.Init = int64(math.Float64bits(v.Value))
		}
		globals[i] = gl
	}
	return globals
}

// Target finishes compilation for one ISA: register allocation maps the
// virtual registers onto the target's register file, spilling to stack
// slots under pressure, and EPIC targets get static schedules at O2+
// (otherwise each instruction issues alone on in-order machines). The
// program it returns has its own functions and blocks but shares the
// global table. Allocation and scheduling write their code into new
// slices, so Target only reads the optimized instruction slices; a block
// that needs neither keeps sharing its slice with the Optimized and the
// other targets' programs.
func (o *Optimized) Target(target *isa.Desc) (*isa.Program, error) {
	if target == nil {
		return nil, fmt.Errorf("compiler: nil target ISA")
	}
	prog := &isa.Program{ISA: target, Globals: o.prog.Globals,
		Funcs: make([]*isa.Func, len(o.prog.Funcs)), Entry: o.prog.Entry}
	for i, of := range o.prog.Funcs {
		f := new(isa.Func)
		*f = *of
		blocks := make([]isa.Block, len(of.Blocks))
		f.Blocks = make([]*isa.Block, len(of.Blocks))
		for b, ob := range of.Blocks {
			blocks[b] = *ob
			f.Blocks[b] = &blocks[b]
		}
		if err := allocate(f, target, o.itvs[i]); err != nil {
			return nil, fmt.Errorf("compiler: %s: %w", f.Name, err)
		}
		if target.EPIC && o.level >= O2 {
			scheduleEPIC(f)
		}
		prog.Funcs[i] = f
	}
	return prog, nil
}
