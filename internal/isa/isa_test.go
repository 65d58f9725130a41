package isa

import (
	"math"
	"strings"
	"testing"
)

// allOpcodes enumerates every defined opcode (NOP through PRINTF).
func allOpcodes() []Opcode {
	var out []Opcode
	for op := NOP; op <= PRINTF; op++ {
		out = append(out, op)
	}
	return out
}

func TestOpcodeTableComplete(t *testing.T) {
	for _, op := range allOpcodes() {
		name := op.String()
		if name == "" || strings.HasPrefix(name, "op(") {
			t.Errorf("opcode %d has no mnemonic", int(op))
		}
		cls := op.ClassOf()
		if cls < 0 || int(cls) >= NumClasses {
			t.Errorf("%v: class %d out of range", op, cls)
		}
		if cls.String() == "" {
			t.Errorf("%v: class has no name", op)
		}
	}
	if Opcode(9999).String() != "op(9999)" {
		t.Error("unknown opcode should render as op(N)")
	}
}

func TestOpcodeClassification(t *testing.T) {
	// The class predicates partition the arithmetic opcodes: every opcode
	// answers true to at most one of them, and the classic members land
	// where expected.
	for _, op := range allOpcodes() {
		n := 0
		for _, ok := range []bool{IsIntBin(op), IsFloatBin(op), IsFloatCmp(op), IsFloatUn(op)} {
			if ok {
				n++
			}
		}
		if n > 1 {
			t.Errorf("%v matches %d arithmetic predicates", op, n)
		}
	}
	cases := []struct {
		op    Opcode
		class Class
	}{
		{LD, ClassLoad}, {LDL, ClassLoad}, {ST, ClassStore}, {STL, ClassStore},
		{BR, ClassBranch}, {JMP, ClassJump}, {CALL, ClassCall}, {RET, ClassRet},
		{ADD, ClassIntALU}, {MUL, ClassIntMul}, {DIV, ClassIntDiv}, {MOD, ClassIntDiv},
		{FADD, ClassFPAdd}, {FMUL, ClassFPMul}, {FDIV, ClassFPDiv}, {FSQRT, ClassFPDiv},
		{MOVI, ClassOther}, {PRINTI, ClassSys},
	}
	for _, c := range cases {
		if got := c.op.ClassOf(); got != c.class {
			t.Errorf("%v: class %v, want %v", c.op, got, c.class)
		}
	}
}

func TestHasSideEffects(t *testing.T) {
	effectful := map[Opcode]bool{
		ST: true, STL: true, BR: true, JMP: true, RET: true, CALL: true,
		PRINTI: true, PRINTF: true,
	}
	for _, op := range allOpcodes() {
		if got := HasSideEffects(op); got != effectful[op] {
			t.Errorf("HasSideEffects(%v) = %v, want %v", op, got, effectful[op])
		}
	}
}

func TestEvalIntBin(t *testing.T) {
	cases := []struct {
		op   Opcode
		a, b int64
		want int64
		ok   bool
	}{
		{ADD, 3, 4, 7, true},
		{SUB, 3, 4, -1, true},
		{MUL, -3, 4, -12, true},
		{DIV, 7, 2, 3, true},
		{DIV, 7, 0, 0, false}, // trap
		{MOD, 7, 3, 1, true},
		{MOD, 7, 0, 0, false}, // trap
		{AND, 0b1100, 0b1010, 0b1000, true},
		{OR, 0b1100, 0b1010, 0b1110, true},
		{XOR, 0b1100, 0b1010, 0b0110, true},
		{SHL, 1, 4, 16, true},
		{SHL, 1, 64, 1, true}, // count masked to 0..63
		{SHR, -8, 1, -4, true},
		{CMPEQ, 5, 5, 1, true},
		{CMPNE, 5, 5, 0, true},
		{CMPLT, 4, 5, 1, true},
		{CMPLE, 5, 5, 1, true},
		{CMPGT, 5, 4, 1, true},
		{CMPGE, 4, 5, 0, true},
	}
	for _, c := range cases {
		got, ok := EvalIntBin(c.op, c.a, c.b)
		if got != c.want || ok != c.ok {
			t.Errorf("EvalIntBin(%v, %d, %d) = (%d, %v), want (%d, %v)",
				c.op, c.a, c.b, got, ok, c.want, c.ok)
		}
	}
}

func TestEvalUnaryAndFloat(t *testing.T) {
	if got := EvalIntUn(NEG, 5); got != -5 {
		t.Errorf("neg 5 = %d", got)
	}
	if got := EvalIntUn(NOTB, 0); got != -1 {
		t.Errorf("notb 0 = %d", got)
	}
	if got := EvalFloatBin(FDIV, 1, 2); got != 0.5 {
		t.Errorf("fdiv = %g", got)
	}
	if got := EvalFloatCmp(FCMPLE, 1, 1); got != 1 {
		t.Errorf("fcmple = %d", got)
	}
	if got := EvalFloatUn(FSQRT, 9); got != 3 {
		t.Errorf("fsqrt 9 = %g", got)
	}
	if got := EvalFloatUn(FABS, -2.5); got != 2.5 {
		t.Errorf("fabs = %g", got)
	}
}

// TestF2ITotal pins the deterministic C-truncation semantics the VM and
// the constant folder must share.
func TestF2ITotal(t *testing.T) {
	cases := []struct {
		in   float64
		want int64
	}{
		{1.9, 1},
		{-1.9, -1},
		{0, 0},
		{math.NaN(), 0},
		{math.Inf(1), math.MaxInt64},
		{math.Inf(-1), math.MinInt64},
		{1e300, math.MaxInt64},
		{-1e300, math.MinInt64},
	}
	for _, c := range cases {
		if got := F2I(c.in); got != c.want {
			t.Errorf("F2I(%g) = %d, want %d", c.in, got, c.want)
		}
	}
}

func TestProgramLookups(t *testing.T) {
	p := &Program{
		Globals: []Global{{Name: "a", Kind: KindInt, Len: 4}, {Name: "f", Kind: KindFloat, Len: 1}},
		Funcs: []*Func{
			{Name: "main", Blocks: []*Block{{Instrs: []Instr{{Op: MOVI}, {Op: RET, A: NoReg}}}}},
			{Name: "work", Blocks: []*Block{{Instrs: []Instr{{Op: RET, A: NoReg}}}}},
		},
	}
	if i := p.GlobalIndex("f"); i != 1 {
		t.Errorf("GlobalIndex(f) = %d", i)
	}
	if i := p.GlobalIndex("missing"); i != -1 {
		t.Errorf("GlobalIndex(missing) = %d", i)
	}
	if b := p.Globals[0].ElemBytes(); b != IntBytes {
		t.Errorf("int ElemBytes = %d", b)
	}
	if b := p.Globals[1].ElemBytes(); b != FloatBytes {
		t.Errorf("float ElemBytes = %d", b)
	}
}

func TestISADescriptors(t *testing.T) {
	for _, d := range []*Desc{X86, AMD64, IA64} {
		if got := ByName(d.Name); got != d {
			t.Errorf("ByName(%q) = %v", d.Name, got)
		}
		if d.IntRegs < 4 {
			t.Errorf("%s: implausible register count %d", d.Name, d.IntRegs)
		}
	}
	if ByName("pdp11") != nil {
		t.Error("ByName should return nil for unknown ISAs")
	}
	if !IA64.EPIC || X86.EPIC || AMD64.EPIC {
		t.Error("EPIC flag misassigned: only ia64v is statically scheduled")
	}
}

func TestInstrString(t *testing.T) {
	cases := []Instr{
		{Op: MOVI, Dst: 1, Imm: 42},
		{Op: LD, Dst: 2, A: 3, Sym: 1, Imm: 4},
		{Op: ST, A: 3, B: 2, Sym: 1},
		{Op: BR, A: 5},
		{Op: RET, A: NoReg},
		{Op: ADD, Dst: 1, A: 2, B: 3},
	}
	for _, in := range cases {
		if s := in.String(); s == "" {
			t.Errorf("%v: empty String()", in.Op)
		}
	}
}
