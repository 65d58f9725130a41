package vm

import (
	"reflect"
	"strings"
	"testing"
	"unsafe"

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
	m := New(p)
	bySite := m.Layout().Classes()
	var classes []isa.Class
	var memAddrs []uint64
	res, err := m.Run(Config{Hook: func(ev *Event) {
		classes = append(classes, bySite[ev.Site])
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
		if m.globals[i].addr%globalAlign != 0 {
			t.Errorf("global %d not aligned: %#x", i, m.globals[i].addr)
		}
	}
	aEnd := m.globals[0].addr + uint64(100*isa.IntBytes)
	if m.globals[1].addr < aEnd {
		t.Errorf("globals overlap: a ends %#x, b starts %#x", aEnd, m.globals[1].addr)
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
	m := New(p)
	classes := m.Layout().Classes()
	taken, notTaken := 0, 0
	_, err := m.Run(Config{Hook: func(ev *Event) {
		if classes[ev.Site] == isa.ClassBranch {
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

// TestPinsIsPlainData pins the predecoded instruction's layout: at most 48
// bytes and no field that holds a pointer, so predecoded code is an
// allocation the runtime need not scan. Facts owned elsewhere (a global's
// storage, a trap's location) are read from their owners, not copied in.
func TestPinsIsPlainData(t *testing.T) {
	if size := unsafe.Sizeof(pins{}); size > 48 {
		t.Errorf("pins is %d bytes, want at most 48", size)
	}
	var hasPointers func(reflect.Type) bool
	hasPointers = func(typ reflect.Type) bool {
		switch typ.Kind() {
		case reflect.Array:
			return hasPointers(typ.Elem())
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				if hasPointers(typ.Field(i).Type) {
					return true
				}
			}
			return false
		case reflect.Chan, reflect.Func, reflect.Interface, reflect.Map,
			reflect.Pointer, reflect.Slice, reflect.String, reflect.UnsafePointer:
			return true
		}
		return false
	}
	typ := reflect.TypeOf(pins{})
	for i := 0; i < typ.NumField(); i++ {
		if f := typ.Field(i); hasPointers(f.Type) {
			t.Errorf("pins.%s (%v) holds a pointer", f.Name, f.Type)
		}
	}
}

// TestLayoutWalkMatchesLoc checks that Walk visits every static site once
// in ID order, empty blocks included, with each site's location and the
// instruction stored there.
func TestLayoutWalkMatchesLoc(t *testing.T) {
	p := &isa.Program{ISA: isa.AMD64, Funcs: []*isa.Func{
		{Name: "main", NumRegs: 1, NumSlots: 1, Blocks: []*isa.Block{
			{Instrs: []isa.Instr{{Op: isa.MOVI, Dst: 0}, {Op: isa.JMP}}, Succs: []int{2}},
			{},
			{Instrs: []isa.Instr{{Op: isa.RET, A: isa.NoReg}}},
		}},
		{Name: "leaf", NumRegs: 1, NumSlots: 1, Blocks: []*isa.Block{
			{Instrs: []isa.Instr{{Op: isa.RET, A: isa.NoReg}}},
		}},
	}}
	lay := New(p).Layout()
	want := []SiteLoc{{0, 0, 0}, {0, 0, 1}, {0, 2, 0}, {1, 0, 0}}
	var got []SiteLoc
	lay.Walk(func(site int, loc SiteLoc, in *isa.Instr) {
		if site != len(got) {
			t.Errorf("site %d visited as number %d", site, len(got))
		}
		if in != &p.Funcs[loc.Func].Blocks[loc.Block].Instrs[loc.Index] {
			t.Errorf("site %d: instruction is not the one at %+v", site, loc)
		}
		got = append(got, loc)
	})
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Walk visited %v, want %v", got, want)
	}
	if lay.NumSites() != 4 || lay.NumBlocks() != 4 || lay.BlockID(1, 0) != 3 {
		t.Errorf("NumSites %d, NumBlocks %d, BlockID(1, 0) %d; want 4, 4, 3",
			lay.NumSites(), lay.NumBlocks(), lay.BlockID(1, 0))
	}
}
