// Package isa defines the virtual instruction-set architectures targeted by
// the compiler and executed by the VM. It plays the role of x86, x86_64 and
// IA64 in the paper: three load/store ISAs that differ along the axes that
// matter for the paper's cross-ISA claims — integer register count (register
// pressure and spill traffic) and static (EPIC) versus dynamic scheduling.
package isa

import "fmt"

// RegID identifies a machine (or, in the compiler's virtual-register form, a
// virtual) register operand. NoReg marks an unused operand slot.
type RegID = uint16

// NoReg is the sentinel for an absent register operand.
const NoReg RegID = 0xffff

// Class is the functional-unit class of an instruction. The profiler's
// instruction-mix histograms (Fig. 6) and the timing models' latency tables
// are keyed by Class.
type Class int

// Instruction classes.
const (
	ClassOther  Class = iota // register moves and constant materialization
	ClassIntALU              // add/sub/logic/shift/compare
	ClassIntMul
	ClassIntDiv
	ClassFPAdd // fp add/sub/compare/abs/neg/convert
	ClassFPMul
	ClassFPDiv // divide, sqrt, and the trig intrinsics
	ClassLoad
	ClassStore
	ClassBranch // conditional branch
	ClassJump   // unconditional jump
	ClassCall
	ClassRet
	ClassSys // print
)

var classNames = [...]string{
	"other", "ialu", "imul", "idiv", "fpadd", "fpmul", "fpdiv",
	"load", "store", "branch", "jump", "call", "ret", "sys",
}

// String returns a short lowercase name for the class.
func (c Class) String() string {
	if int(c) < len(classNames) {
		return classNames[c]
	}
	return fmt.Sprintf("class(%d)", int(c))
}

// NumClasses is the number of distinct instruction classes.
const NumClasses = len(classNames)

// Opcode enumerates the virtual machine operations. All ISAs share one
// opcode set; they differ only in register count and scheduling regime
// (see Desc). This mirrors how the paper treats ISAs: the interesting
// differences are structural, not in the operation repertoire.
type Opcode int

// Opcodes.
const (
	NOP Opcode = iota

	// Data movement and constants.
	MOVI // Dst <- Imm
	MOVF // Dst <- F
	MOV  // Dst <- A (int or float bits; untyped move)

	// Integer arithmetic; Dst <- A op B.
	ADD
	SUB
	MUL
	DIV
	MOD
	AND
	OR
	XOR
	SHL
	SHR
	NEG  // Dst <- -A
	NOTB // Dst <- ^A (bitwise complement)

	// Integer comparisons producing 0/1.
	CMPEQ
	CMPNE
	CMPLT
	CMPLE
	CMPGT
	CMPGE

	// Floating point.
	FADD
	FSUB
	FMUL
	FDIV
	FNEG
	FCMPEQ
	FCMPNE
	FCMPLT
	FCMPLE
	FCMPGT
	FCMPGE
	ITOF
	FTOI
	FSQRT
	FSIN
	FCOS
	FABS

	// Memory. Globals are addressed as Sym(base) indexed by register A
	// (element index; NoReg means scalar/element 0) plus constant Imm.
	// Locals and spill slots live in the stack frame, addressed by slot
	// number in Imm.
	LD  // Dst <- global[Sym][A + Imm]
	ST  // global[Sym][A + Imm] <- B
	LDL // Dst <- frame slot Imm
	STL // frame slot Imm <- A

	// Control flow. Branch targets are expressed through Block.Succs:
	// BR takes Succs[0] when reg A != 0, else Succs[1]; JMP goes to
	// Succs[0]. RET returns register A (or NoReg for void).
	BR
	JMP
	RET

	// CALL invokes function Sym. Arguments are passed through the stack:
	// the caller stores them (STL) into its outgoing-argument slots
	// starting at frame slot Imm, and the VM copies them into the
	// callee's parameter slots 0..NumParams-1. The callee's RET value is
	// delivered to Dst (NoReg when unused). Stack argument passing is
	// the 32-bit cdecl convention the paper's x86 experiments used.
	CALL

	// PRINTI/PRINTF emit the value of register A to the program output.
	PRINTI
	PRINTF
)

// NumOpcodes is the number of defined opcodes; opcode values are dense in
// [0, NumOpcodes). The name and class tables below are arrays indexed by
// opcode — ClassOf sits on the per-executed-instruction path of every
// profiling trace consumer, where a map lookup would dominate.
const NumOpcodes = int(PRINTF) + 1

var opcodeNames = [NumOpcodes]string{
	NOP:  "nop",
	MOVI: "movi", MOVF: "movf", MOV: "mov",
	ADD: "add", SUB: "sub", MUL: "mul", DIV: "div", MOD: "mod",
	AND: "and", OR: "or", XOR: "xor", SHL: "shl", SHR: "shr",
	NEG: "neg", NOTB: "notb",
	CMPEQ: "cmpeq", CMPNE: "cmpne", CMPLT: "cmplt",
	CMPLE: "cmple", CMPGT: "cmpgt", CMPGE: "cmpge",
	FADD: "fadd", FSUB: "fsub", FMUL: "fmul", FDIV: "fdiv", FNEG: "fneg",
	FCMPEQ: "fcmpeq", FCMPNE: "fcmpne", FCMPLT: "fcmplt",
	FCMPLE: "fcmple", FCMPGT: "fcmpgt", FCMPGE: "fcmpge",
	ITOF: "itof", FTOI: "ftoi",
	FSQRT: "fsqrt", FSIN: "fsin", FCOS: "fcos", FABS: "fabs",
	LD: "ld", ST: "st", LDL: "ldl", STL: "stl",
	BR: "br", JMP: "jmp", RET: "ret", CALL: "call",
	PRINTI: "printi", PRINTF: "printf",
}

var opcodeClasses = [NumOpcodes]Class{
	NOP: ClassOther, MOVI: ClassOther, MOVF: ClassOther, MOV: ClassOther,
	ADD: ClassIntALU, SUB: ClassIntALU, MUL: ClassIntMul,
	DIV: ClassIntDiv, MOD: ClassIntDiv,
	AND: ClassIntALU, OR: ClassIntALU, XOR: ClassIntALU,
	SHL: ClassIntALU, SHR: ClassIntALU,
	NEG: ClassIntALU, NOTB: ClassIntALU,
	CMPEQ: ClassIntALU, CMPNE: ClassIntALU, CMPLT: ClassIntALU,
	CMPLE: ClassIntALU, CMPGT: ClassIntALU, CMPGE: ClassIntALU,
	FADD: ClassFPAdd, FSUB: ClassFPAdd, FMUL: ClassFPMul, FDIV: ClassFPDiv,
	FNEG:   ClassFPAdd,
	FCMPEQ: ClassFPAdd, FCMPNE: ClassFPAdd, FCMPLT: ClassFPAdd,
	FCMPLE: ClassFPAdd, FCMPGT: ClassFPAdd, FCMPGE: ClassFPAdd,
	ITOF: ClassFPAdd, FTOI: ClassFPAdd,
	FSQRT: ClassFPDiv, FSIN: ClassFPDiv, FCOS: ClassFPDiv, FABS: ClassFPAdd,
	LD: ClassLoad, ST: ClassStore, LDL: ClassLoad, STL: ClassStore,
	BR: ClassBranch, JMP: ClassJump, RET: ClassRet, CALL: ClassCall,
	PRINTI: ClassSys, PRINTF: ClassSys,
}

// String returns the mnemonic of the opcode.
func (op Opcode) String() string {
	if op >= 0 && int(op) < NumOpcodes {
		return opcodeNames[op]
	}
	return fmt.Sprintf("op(%d)", int(op))
}

// ClassOf returns the functional-unit class of the opcode.
func (op Opcode) ClassOf() Class {
	if op >= 0 && int(op) < NumOpcodes {
		return opcodeClasses[op]
	}
	return ClassOther
}

// Instr is one machine instruction. Operand roles depend on the opcode; see
// the opcode documentation above.
type Instr struct {
	Op   Opcode
	Dst  RegID
	A, B RegID
	Imm  int64
	F    float64
	Sym  int32 // global index (LD/ST) or callee function index (CALL)
}

// Class returns the functional-unit class of the instruction.
func (in *Instr) Class() Class { return in.Op.ClassOf() }

// String renders the instruction for dumps and debugging.
func (in Instr) String() string {
	switch in.Op {
	case MOVI:
		return fmt.Sprintf("movi r%d, %d", in.Dst, in.Imm)
	case MOVF:
		return fmt.Sprintf("movf r%d, %g", in.Dst, in.F)
	case LD:
		return fmt.Sprintf("ld r%d, g%d[r%d+%d]", in.Dst, in.Sym, int16(in.A), in.Imm)
	case ST:
		return fmt.Sprintf("st g%d[r%d+%d], r%d", in.Sym, int16(in.A), in.Imm, in.B)
	case LDL:
		return fmt.Sprintf("ldl r%d, [%d]", in.Dst, in.Imm)
	case STL:
		return fmt.Sprintf("stl [%d], r%d", in.Imm, in.A)
	case BR:
		return fmt.Sprintf("br r%d", in.A)
	case JMP:
		return "jmp"
	case RET:
		if in.A == NoReg {
			return "ret"
		}
		return fmt.Sprintf("ret r%d", in.A)
	case CALL:
		return fmt.Sprintf("call f%d -> r%d (args at slot %d)", in.Sym, int16(in.Dst), in.Imm)
	default:
		return fmt.Sprintf("%s r%d, r%d, r%d", in.Op, int16(in.Dst), int16(in.A), int16(in.B))
	}
}

// ValKind distinguishes integer from floating-point storage.
type ValKind int

// Value kinds.
const (
	KindInt ValKind = iota
	KindFloat
	KindVoid
)

// Data element sizes in bytes, fixed across ISAs (as if the C sources used
// int32_t and double): they determine the addresses fed to the cache
// simulator, matching the paper's 32-bit / 32-byte-line assumptions (Table I).
const (
	IntBytes   = 4
	FloatBytes = 8
	SlotBytes  = 8 // stack frame slots
)

// Global describes one global variable; scalars have Len 1.
type Global struct {
	Name string
	Kind ValKind
	Len  int
	// Init is a scalar's initial value (float bits for a float); arrays
	// start zeroed.
	Init int64 `json:",omitempty"`
}

// ElemBytes returns the byte size of one element of the global.
func (g Global) ElemBytes() int {
	if g.Kind == KindFloat {
		return FloatBytes
	}
	return IntBytes
}

// Block is a basic block: straight-line instructions ending in a terminator
// (BR, JMP, or RET). Succs holds the indices of successor blocks within the
// function: for BR, Succs[0] is the taken target and Succs[1] the
// fall-through; for JMP, Succs[0]; for RET, none.
type Block struct {
	Instrs []Instr
	Succs  []int
	// Bundle assigns each instruction to an EPIC issue group; instructions
	// sharing a bundle index were declared independent by the compiler's
	// static scheduler and may issue in the same cycle on an EPIC machine.
	// nil means no scheduling was performed (every instruction issues
	// alone, as IA64 code compiled at -O0 effectively does).
	Bundle []int
}

// Func is a compiled function.
//
// The stack frame layout (in 8-byte slots) is:
//
//	[0, FirstArgSlot)                    scalar locals, parameters first
//	[FirstArgSlot, FirstArgSlot+ArgSlots) outgoing call arguments
//	[FirstArgSlot+ArgSlots, NumSlots)     spill slots and inlined locals
//
// FirstArgSlot is -1 for functions that make no calls (then every slot
// below NumSlots is a local or spill slot).
type Func struct {
	Name         string
	NumParams    int
	RetKind      ValKind
	Blocks       []*Block
	NumRegs      int // registers used (VM frame register-file size)
	NumSlots     int // total stack-frame slots
	FirstArgSlot int // start of the outgoing-argument area, or -1
	ArgSlots     int // size of the outgoing-argument area
}

// PromotableSlot reports whether frame slot s holds an ordinary scalar
// variable that mem2reg may promote to a register (outgoing-argument slots
// are real memory the calling convention depends on).
func (f *Func) PromotableSlot(s int) bool {
	if f.FirstArgSlot < 0 {
		return true
	}
	return s < f.FirstArgSlot || s >= f.FirstArgSlot+f.ArgSlots
}

// Program is a complete compiled program for one ISA.
type Program struct {
	ISA     *Desc
	Globals []Global
	Funcs   []*Func
	Entry   int // index of main
}

// GlobalIndex returns the index of the named global, or -1.
func (p *Program) GlobalIndex(name string) int {
	for i, g := range p.Globals {
		if g.Name == name {
			return i
		}
	}
	return -1
}

// Desc describes one virtual ISA.
type Desc struct {
	Name    string
	IntRegs int  // allocatable general-purpose registers
	EPIC    bool // statically scheduled: compiler emits issue bundles,
	// machines execute in order (the Itanium axis of Fig. 11)
}

// The three ISAs of Table III. x86v is register-starved like IA-32, amd64v
// has the 16 architectural registers of x86_64, and ia64v models Itanium's
// large register file plus EPIC static scheduling.
var (
	X86   = &Desc{Name: "x86v", IntRegs: 6}
	AMD64 = &Desc{Name: "amd64v", IntRegs: 14}
	IA64  = &Desc{Name: "ia64v", IntRegs: 48, EPIC: true}
)

// ByName returns the ISA descriptor with the given name, or nil.
func ByName(name string) *Desc {
	switch name {
	case X86.Name:
		return X86
	case AMD64.Name:
		return AMD64
	case IA64.Name:
		return IA64
	}
	return nil
}
