package vm

import (
	"strings"
	"testing"

	"repro/internal/isa"
)

// handProg builds a tiny machine program by hand: main computes
// g[0] = 7 + 35 and prints it.
func handProg() *isa.Program {
	main := &isa.Func{
		Name: "main", RetKind: isa.KindVoid, NumRegs: 4, NumSlots: 1, FirstArgSlot: -1,
		Blocks: []*isa.Block{{
			Instrs: []isa.Instr{
				{Op: isa.MOVI, Dst: 0, Imm: 7},
				{Op: isa.MOVI, Dst: 1, Imm: 35},
				{Op: isa.ADD, Dst: 2, A: 0, B: 1},
				{Op: isa.ST, A: isa.NoReg, B: 2, Sym: 0},
				{Op: isa.LD, Dst: 3, A: isa.NoReg, Sym: 0},
				{Op: isa.PRINTI, A: 3},
				{Op: isa.RET, A: isa.NoReg},
			},
		}},
	}
	return &isa.Program{
		ISA:     isa.AMD64,
		Globals: []isa.Global{{Name: "g", Kind: isa.KindInt, Len: 1}},
		Funcs:   []*isa.Func{main},
		Entry:   0,
	}
}

func TestHandProgram(t *testing.T) {
	m := New(handProg())
	res, err := m.Run(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.DynInstrs != 7 {
		t.Errorf("dynamic instructions = %d, want 7", res.DynInstrs)
	}
	if len(res.Output) != 1 || res.Output[0] != "42" {
		t.Errorf("output = %v, want [42]", res.Output)
	}
	vals, err := m.Ints("g")
	if err != nil {
		t.Fatal(err)
	}
	if vals[0] != 42 {
		t.Errorf("g[0] = %d, want 42", vals[0])
	}
}

func TestHookSeesEveryInstruction(t *testing.T) {
	p := handProg()
	lay := LayoutOf(p)
	m := New(p)
	var classes []isa.Class
	var memAddrs []uint64
	res, err := m.Run(Config{Hook: func(ev *Event) {
		classes = append(classes, lay.Instr(ev.Site).Class())
		if ev.IsMem {
			memAddrs = append(memAddrs, ev.Addr)
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	if uint64(len(classes)) != res.DynInstrs {
		t.Fatalf("hook saw %d events, want %d", len(classes), res.DynInstrs)
	}
	if len(memAddrs) != 2 {
		t.Fatalf("expected 2 memory events (ST+LD), got %d", len(memAddrs))
	}
	if memAddrs[0] != memAddrs[1] {
		t.Errorf("store and load of g should share an address: %x vs %x", memAddrs[0], memAddrs[1])
	}
}

func TestTrapOutOfBounds(t *testing.T) {
	p := handProg()
	// Index 5 of a length-1 global.
	p.Funcs[0].Blocks[0].Instrs[4] = isa.Instr{Op: isa.LD, Dst: 3, A: isa.NoReg, Imm: 5, Sym: 0}
	m := New(p)
	_, err := m.Run(Config{})
	if err == nil || !strings.Contains(err.Error(), "out of bounds") {
		t.Fatalf("expected bounds trap, got %v", err)
	}
	var trap *Trap
	if !asTrap(err, &trap) || trap.Func != "main" {
		t.Fatalf("trap should identify the function: %v", err)
	}
}

func asTrap(err error, out **Trap) bool {
	t, ok := err.(*Trap)
	if ok {
		*out = t
	}
	return ok
}

func TestTrapDivByZero(t *testing.T) {
	p := handProg()
	p.Funcs[0].Blocks[0].Instrs[2] = isa.Instr{Op: isa.DIV, Dst: 2, A: 0, B: 3} // r3 is zero
	m := New(p)
	if _, err := m.Run(Config{}); err == nil || !strings.Contains(err.Error(), "division by zero") {
		t.Fatalf("expected div-by-zero trap, got %v", err)
	}
}

func TestInstructionBudget(t *testing.T) {
	// Infinite loop: block 0 jumps to itself.
	main := &isa.Func{
		Name: "main", RetKind: isa.KindVoid, NumRegs: 1, NumSlots: 1, FirstArgSlot: -1,
		Blocks: []*isa.Block{{
			Instrs: []isa.Instr{{Op: isa.JMP}},
			Succs:  []int{0},
		}},
	}
	p := &isa.Program{ISA: isa.AMD64, Funcs: []*isa.Func{main}, Entry: 0}
	m := New(p)
	_, err := m.Run(Config{MaxInstrs: 1000})
	if err == nil || !strings.Contains(err.Error(), "budget") {
		t.Fatalf("expected budget trap, got %v", err)
	}
}

func TestSetAndReadGlobals(t *testing.T) {
	p := &isa.Program{
		ISA: isa.AMD64,
		Globals: []isa.Global{
			{Name: "ints", Kind: isa.KindInt, Len: 4},
			{Name: "floats", Kind: isa.KindFloat, Len: 2},
		},
		Funcs: []*isa.Func{{
			Name: "main", RetKind: isa.KindVoid, NumRegs: 1, NumSlots: 1, FirstArgSlot: -1,
			Blocks: []*isa.Block{{Instrs: []isa.Instr{{Op: isa.RET, A: isa.NoReg}}}},
		}},
		Entry: 0,
	}
	m := New(p)
	if err := m.SetInts("ints", []int64{1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	if err := m.SetFloats("floats", []float64{1.5, -2.5}); err != nil {
		t.Fatal(err)
	}
	if err := m.SetInts("missing", []int64{1}); err == nil {
		t.Error("expected error for unknown global")
	}
	if err := m.SetInts("floats", []int64{1}); err == nil {
		t.Error("expected kind mismatch error")
	}
	if err := m.SetInts("ints", make([]int64, 9)); err == nil {
		t.Error("expected length error")
	}
	got, err := m.Ints("ints")
	if err != nil || got[2] != 3 {
		t.Errorf("Ints readback = %v, %v", got, err)
	}
}

func TestGlobalAddressesDisjointAndAligned(t *testing.T) {
	p := &isa.Program{
		ISA: isa.AMD64,
		Globals: []isa.Global{
			{Name: "a", Kind: isa.KindInt, Len: 100},
			{Name: "b", Kind: isa.KindInt, Len: 7},
			{Name: "c", Kind: isa.KindFloat, Len: 3},
		},
		Funcs: []*isa.Func{{
			Name: "main", RetKind: isa.KindVoid, NumRegs: 1, NumSlots: 1, FirstArgSlot: -1,
			Blocks: []*isa.Block{{Instrs: []isa.Instr{{Op: isa.RET, A: isa.NoReg}}}},
		}},
		Entry: 0,
	}
	m := New(p)
	for i := range p.Globals {
		if m.globalAddr[i]%globalAlign != 0 {
			t.Errorf("global %d not aligned: %#x", i, m.globalAddr[i])
		}
	}
	aEnd := m.globalAddr[0] + uint64(100*isa.IntBytes)
	if m.globalAddr[1] < aEnd {
		t.Errorf("globals overlap: a ends %#x, b starts %#x", aEnd, m.globalAddr[1])
	}
}

func TestOutputCap(t *testing.T) {
	// A loop printing 100 values with MaxOutput 10 keeps 10 but counts 100.
	main := &isa.Func{
		Name: "main", RetKind: isa.KindVoid, NumRegs: 3, NumSlots: 1, FirstArgSlot: -1,
		Blocks: []*isa.Block{
			{Instrs: []isa.Instr{
				{Op: isa.MOVI, Dst: 0, Imm: 0},
				{Op: isa.MOVI, Dst: 1, Imm: 100},
				{Op: isa.JMP},
			}, Succs: []int{1}},
			{Instrs: []isa.Instr{
				{Op: isa.PRINTI, A: 0},
				{Op: isa.MOVI, Dst: 2, Imm: 1},
				{Op: isa.ADD, Dst: 0, A: 0, B: 2},
				{Op: isa.CMPLT, Dst: 2, A: 0, B: 1},
				{Op: isa.BR, A: 2},
			}, Succs: []int{1, 2}},
			{Instrs: []isa.Instr{{Op: isa.RET, A: isa.NoReg}}},
		},
	}
	p := &isa.Program{ISA: isa.AMD64, Funcs: []*isa.Func{main}, Entry: 0}
	res, err := New(p).Run(Config{MaxOutput: 10})
	if err != nil {
		t.Fatal(err)
	}
	if res.Prints != 100 || len(res.Output) != 10 {
		t.Errorf("prints=%d outputs=%d, want 100/10", res.Prints, len(res.Output))
	}
}

func TestBranchEventsReportDirection(t *testing.T) {
	// Reuse the loop program above: BR taken 99 times, not taken once.
	main := &isa.Func{
		Name: "main", RetKind: isa.KindVoid, NumRegs: 3, NumSlots: 1, FirstArgSlot: -1,
		Blocks: []*isa.Block{
			{Instrs: []isa.Instr{
				{Op: isa.MOVI, Dst: 0, Imm: 0},
				{Op: isa.MOVI, Dst: 1, Imm: 100},
				{Op: isa.JMP},
			}, Succs: []int{1}},
			{Instrs: []isa.Instr{
				{Op: isa.MOVI, Dst: 2, Imm: 1},
				{Op: isa.ADD, Dst: 0, A: 0, B: 2},
				{Op: isa.CMPLT, Dst: 2, A: 0, B: 1},
				{Op: isa.BR, A: 2},
			}, Succs: []int{1, 2}},
			{Instrs: []isa.Instr{{Op: isa.RET, A: isa.NoReg}}},
		},
	}
	p := &isa.Program{ISA: isa.AMD64, Funcs: []*isa.Func{main}, Entry: 0}
	lay := LayoutOf(p)
	taken, notTaken := 0, 0
	_, err := New(p).Run(Config{Hook: func(ev *Event) {
		if lay.Instr(ev.Site).Op == isa.BR {
			if ev.Taken {
				taken++
			} else {
				notTaken++
			}
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	if taken != 99 || notTaken != 1 {
		t.Errorf("taken=%d notTaken=%d, want 99/1", taken, notTaken)
	}
}
