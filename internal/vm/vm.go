// Package vm executes compiled virtual-ISA programs. It is the functional
// simulator of the framework and, through its per-instruction observer hook,
// also its binary-instrumentation layer — the role Pin plays in the paper:
// profilers, cache simulators, and branch-prediction models all attach to
// the executed instruction stream via Hook.
//
// Loading a program predecodes it: each function's blocks are flattened
// into one contiguous instruction array with branch targets resolved to
// flat PCs, global bases and element sizes baked in, and a dense static-site
// ID stamped on every instruction (see docs/vm.md). Run then dispatches to
// one of two specialized loops — a no-hook fast path and a hooked path —
// both of which authorize the instruction budget per basic block and pool
// frame register/slot storage so calls do not allocate.
package vm

import (
	"fmt"
	"math"

	"repro/internal/isa"
)

// Event describes one executed instruction to observers. It carries only
// what varies per execution; everything static about the instruction (its
// location, opcode and operands) comes from LayoutOf, by Site.
type Event struct {
	// Site is the instruction's dense static-site ID: its position in the
	// program-wide enumeration of instructions in (function, block, index)
	// order, exactly the numbering LayoutOf assigns. Hooks use it to index
	// flat per-site tables built once from the Layout.
	Site  int
	Addr  uint64 // data address (valid when IsMem)
	IsMem bool
	Taken bool // branch outcome (valid for BR)
}

// Hook observes every executed instruction. The Event struct is reused
// between calls; implementations must copy what they keep.
type Hook func(*Event)

// Config controls one execution.
type Config struct {
	// Hook, if non-nil, is invoked for every executed instruction.
	Hook Hook
	// MaxInstrs aborts execution after this many dynamic instructions
	// (0 means the package default of 2e9).
	MaxInstrs uint64
	// MaxOutput caps how many printed values are retained verbatim in
	// Result.Output (the hash and count always cover everything).
	// 0 means the package default of 4096.
	MaxOutput int
	// MaxDepth caps the call stack (0 means the default of 1<<20).
	MaxDepth int
}

// Result summarizes an execution.
type Result struct {
	DynInstrs  uint64   // dynamic instruction count
	Prints     uint64   // number of values printed
	Output     []string // first MaxOutput printed values, formatted
	OutputHash uint64   // FNV-1a hash over all printed values
}

// Memory layout constants. Globals and stack frames live in disjoint
// address ranges so cache simulators see realistic, non-overlapping data
// addresses.
const (
	globalsBase = 0x0001_0000
	stackBase   = 0x4000_0000
	globalAlign = 64
)

const (
	defaultMaxInstrs = 2_000_000_000
	defaultMaxOutput = 4096
	defaultMaxDepth  = 1 << 20
)

// FNV-1a parameters for Result.OutputHash.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// VM holds the loaded, predecoded program and its global memory. A VM may
// be Run multiple times; each Run re-zeroes nothing — callers that need
// pristine globals should create a fresh VM (loading is cheap). Concurrent
// Runs of distinct VMs are safe; all per-run state (frames, pools) is local
// to Run.
type VM struct {
	prog       *isa.Program
	globals    [][]int64 // float elements stored as IEEE bits
	globalAddr []uint64  // byte base address per global
	fns        []fcode   // predecoded functions, indexed like prog.Funcs
}

// New loads a compiled program.
func New(prog *isa.Program) *VM {
	vm := &VM{prog: prog}
	addr := uint64(globalsBase)
	for _, g := range prog.Globals {
		vm.globals = append(vm.globals, make([]int64, g.Len))
		vm.globalAddr = append(vm.globalAddr, addr)
		size := uint64(g.Len * g.ElemBytes())
		addr += (size + globalAlign - 1) / globalAlign * globalAlign
	}
	vm.fns = predecode(prog, vm.globals, vm.globalAddr)
	return vm
}

// Prog returns the loaded program.
func (vm *VM) Prog() *isa.Program { return vm.prog }

// SetInts installs values into an int global (array or scalar).
func (vm *VM) SetInts(name string, vals []int64) error {
	gi := vm.prog.GlobalIndex(name)
	if gi < 0 {
		return fmt.Errorf("vm: no global %q", name)
	}
	g := vm.prog.Globals[gi]
	if g.Kind != isa.KindInt {
		return fmt.Errorf("vm: global %q is not int", name)
	}
	if len(vals) > g.Len {
		return fmt.Errorf("vm: global %q holds %d elements, got %d", name, g.Len, len(vals))
	}
	copy(vm.globals[gi], vals)
	return nil
}

// SetFloats installs values into a float global (array or scalar).
func (vm *VM) SetFloats(name string, vals []float64) error {
	gi := vm.prog.GlobalIndex(name)
	if gi < 0 {
		return fmt.Errorf("vm: no global %q", name)
	}
	g := vm.prog.Globals[gi]
	if g.Kind != isa.KindFloat {
		return fmt.Errorf("vm: global %q is not float", name)
	}
	if len(vals) > g.Len {
		return fmt.Errorf("vm: global %q holds %d elements, got %d", name, g.Len, len(vals))
	}
	for i, v := range vals {
		vm.globals[gi][i] = int64(math.Float64bits(v))
	}
	return nil
}

// SetInt sets a scalar int global.
func (vm *VM) SetInt(name string, v int64) error { return vm.SetInts(name, []int64{v}) }

// SetFloat sets a scalar float global.
func (vm *VM) SetFloat(name string, v float64) error { return vm.SetFloats(name, []float64{v}) }

// Ints returns a copy of an int global's contents (after a run, typically).
func (vm *VM) Ints(name string) ([]int64, error) {
	gi := vm.prog.GlobalIndex(name)
	if gi < 0 {
		return nil, fmt.Errorf("vm: no global %q", name)
	}
	out := make([]int64, len(vm.globals[gi]))
	copy(out, vm.globals[gi])
	return out, nil
}

// TrapBudgetExhausted is the Reason of the trap raised when a Run hits
// its MaxInstrs bound. Callers that treat a truncated execution as a
// valid sampled measurement (cpu.Simulate) must discriminate on this
// reason — instruction counts alone cannot distinguish a genuine fault
// on the last in-budget instruction from the budget itself.
const TrapBudgetExhausted = "instruction budget exhausted"

// Trap is the error type for runtime faults (out-of-bounds access, division
// by zero, instruction budget exhaustion, stack overflow).
type Trap struct {
	Reason string
	Func   string
	Block  int
	Index  int
}

// Error formats the trap with its static location and reason.
func (t *Trap) Error() string {
	return fmt.Sprintf("vm: trap in %s (block %d, instr %d): %s", t.Func, t.Block, t.Index, t.Reason)
}

// Run executes the program from its entry function.
func (vm *VM) Run(cfg Config) (Result, error) {
	limit := cfg.MaxInstrs
	if limit == 0 {
		limit = defaultMaxInstrs
	}
	maxOutput := cfg.MaxOutput
	if maxOutput == 0 {
		maxOutput = defaultMaxOutput
	}
	maxDepth := cfg.MaxDepth
	if maxDepth == 0 {
		maxDepth = defaultMaxDepth
	}
	entry := vm.prog.Funcs[vm.prog.Entry]
	if entry.NumParams != 0 {
		return Result{OutputHash: fnvOffset}, fmt.Errorf("vm: entry function %s takes parameters", entry.Name)
	}
	var res Result
	var err error
	if cfg.Hook == nil {
		res, err = vm.runFast(limit, maxOutput, maxDepth)
	} else {
		res, err = vm.runHooked(cfg.Hook, limit, maxOutput, maxDepth)
	}
	// One atomic add per Run, not per instruction: the process-wide
	// telemetry counter must not slow the dispatch loop.
	executedInstrs.Add(res.DynInstrs)
	return res, err
}
