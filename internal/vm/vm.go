// Package vm executes compiled virtual-ISA programs. It is the functional
// simulator of the framework and, through its block-granular trace, also
// its binary-instrumentation layer — the role Pin plays in the paper:
// profilers, cache simulators, and branch-prediction models all read the
// executed instruction stream from Config.Trace, in batches of executed
// straight-line segments and data addresses.
//
// Loading a program predecodes it: each function's blocks are flattened
// into one contiguous, pointer-free instruction array with branch targets
// resolved to flat PCs and a dense static-site ID stamped on every
// instruction (see docs/vm.md). Run then executes it in one dispatch loop
// that, when traced, records an address at each memory instruction and a
// segment at each segment end, authorizes the instruction budget per
// basic block, and pools frame register/slot storage so calls do not
// allocate.
package vm

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"repro/internal/isa"
)

// Event describes one executed instruction to a Hook, the per-instruction
// view of a run's Trace. It carries only what varies per execution;
// everything static about the instruction (its location, opcode and
// operands) comes from the VM's Layout, by Site.
type Event struct {
	// Site is the instruction's dense static-site ID: its position in the
	// program-wide enumeration of instructions in (function, block, index)
	// order, exactly the numbering of the VM's Layout. Hooks use it to
	// index flat per-site tables built once from the Layout.
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
	// Trace, if non-nil, receives the run's trace batch by batch: when the
	// buffer fills, and once more before Run returns, trap or not (a run
	// that recorded nothing hands over nothing). The batch and its slices
	// are reused; consumers must copy what they keep.
	Trace func(*Trace)
	// Hook, if non-nil, is invoked for every executed instruction, in
	// order, with the events the vm package expands from the trace, one
	// batch at a time. It is the slow, simple view for tests and
	// reference checks; a Config sets Trace or Hook, not both.
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
// pristine globals load the program again, with New or Reload. Concurrent
// Runs of distinct VMs are safe; all per-run state (frames, pools) is local
// to Run.
type VM struct {
	prog    *isa.Program
	globals []global // indexed like prog.Globals
	fns     []fcode  // predecoded functions, indexed like prog.Funcs
	layout  *Layout  // the site and block numbering predecode stamped
	rec     recorder // a traced Run's batch buffers, kept for the next one
}

// global is one global's storage, indexed by the gi LD/ST carry.
type global struct {
	mem   []int64 // elements; floats stored as IEEE bits
	addr  uint64  // byte base address
	esize uint64  // element size in bytes
}

// New loads a compiled program: globals start zeroed, scalars holding
// their initializers.
func New(prog *isa.Program) *VM {
	vm := &VM{}
	vm.Reload(prog)
	return vm
}

// Reload loads prog in place of the VM's program, exactly as New would,
// but keeps each global's array when the global at the same index of the
// previous program had room for it, zeroing what it reuses. A caller
// that runs many similar programs one after another (synthesis
// calibration) reuses one VM instead of allocating fresh global arrays
// for each.
func (vm *VM) Reload(prog *isa.Program) {
	old := vm.globals
	vm.prog = prog
	vm.globals = make([]global, len(prog.Globals))
	addr := uint64(globalsBase)
	for i, g := range prog.Globals {
		var mem []int64
		if i < len(old) && cap(old[i].mem) >= g.Len {
			mem = old[i].mem[:g.Len]
			clear(mem)
		} else {
			mem = make([]int64, g.Len)
		}
		if g.Init != 0 {
			mem[0] = g.Init
		}
		vm.globals[i] = global{mem: mem, addr: addr, esize: uint64(g.ElemBytes())}
		size := uint64(g.Len * g.ElemBytes())
		addr += (size + globalAlign - 1) / globalAlign * globalAlign
	}
	vm.fns, vm.layout = predecode(prog)
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
	copy(vm.globals[gi].mem, vals)
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
		vm.globals[gi].mem[i] = int64(math.Float64bits(v))
	}
	return nil
}

// Ints returns a copy of an int global's contents (after a run, typically).
func (vm *VM) Ints(name string) ([]int64, error) {
	gi := vm.prog.GlobalIndex(name)
	if gi < 0 {
		return nil, fmt.Errorf("vm: no global %q", name)
	}
	return slices.Clone(vm.globals[gi].mem), nil
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
	var tr *recorder
	switch {
	case cfg.Trace != nil && cfg.Hook != nil:
		return Result{OutputHash: fnvOffset}, errors.New("vm: Config sets both Trace and Hook")
	case cfg.Trace != nil:
		tr = vm.rec.start(cfg.Trace)
	case cfg.Hook != nil:
		tr = vm.rec.start(vm.hookTrace(cfg.Hook))
	}
	res, err := vm.run(tr, limit, maxOutput, maxDepth)
	vm.rec.fn = nil // the VM outlives the run; its consumer need not
	// One atomic add per Run, not per instruction: the process-wide
	// telemetry counter must not slow the dispatch loop.
	executedInstrs.Add(res.DynInstrs)
	return res, err
}
