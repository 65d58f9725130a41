package vm

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/isa"
)

// The dynamic-count contract at traps: a genuine fault counts its faulting
// instruction exactly once (the pre-predecode interpreter double-counted
// it), while a budget trap reports MaxInstrs+1 — one past the cap, marking
// "there was more".
//
// The event contract at traps: an instruction that faults before it
// completes (DIV/MOD by zero, an out-of-bounds LD/ST, the fell-off
// sentinel) emits no event, a CALL emits its event before the depth check
// can trap, and a budget trap has emitted exactly MaxInstrs events.

// runTrap runs a one-function program through runProgTrap.
func runTrap(t *testing.T, main *isa.Func, globals []isa.Global, cfg Config) (Result, *Trap, []Event) {
	t.Helper()
	return runProgTrap(t, &isa.Program{ISA: isa.AMD64, Globals: globals, Funcs: []*isa.Func{main}, Entry: 0}, cfg)
}

// runProgTrap runs a program twice — with no hook and with a hook
// recording every event — and requires both runs to trap with the same
// Result and the same Trap. It returns the hooked run's Result, Trap and
// events.
func runProgTrap(t *testing.T, p *isa.Program, cfg Config) (Result, *Trap, []Event) {
	t.Helper()
	run := func(hook Hook) (Result, *Trap) {
		t.Helper()
		c := cfg
		c.Hook = hook
		res, err := New(p).Run(c)
		if err == nil {
			t.Fatalf("expected a trap")
		}
		trap, ok := err.(*Trap)
		if !ok {
			t.Fatalf("expected *Trap, got %T: %v", err, err)
		}
		return res, trap
	}
	plainRes, plainTrap := run(nil)
	var events []Event
	res, trap := run(func(ev *Event) { events = append(events, *ev) })
	if !reflect.DeepEqual(plainRes, res) {
		t.Fatalf("no-hook result %+v != hooked result %+v", plainRes, res)
	}
	if *plainTrap != *trap {
		t.Fatalf("no-hook trap %+v != hooked trap %+v", *plainTrap, *trap)
	}
	return res, trap, events
}

func TestTrapCountsFaultingInstructionOnce(t *testing.T) {
	// r0=1; r1=0; r2=r0/r1 — the DIV is the third executed instruction.
	main := &isa.Func{
		Name: "main", RetKind: isa.KindVoid, NumRegs: 3, NumSlots: 1, FirstArgSlot: -1,
		Blocks: []*isa.Block{{
			Instrs: []isa.Instr{
				{Op: isa.MOVI, Dst: 0, Imm: 1},
				{Op: isa.MOVI, Dst: 1, Imm: 0},
				{Op: isa.DIV, Dst: 2, A: 0, B: 1},
				{Op: isa.RET, A: isa.NoReg},
			},
		}},
	}
	res, trap, _ := runTrap(t, main, nil, Config{})
	if !strings.Contains(trap.Reason, "division by zero") {
		t.Fatalf("reason = %q", trap.Reason)
	}
	if trap.Block != 0 || trap.Index != 2 {
		t.Fatalf("trap at block %d index %d, want 0/2", trap.Block, trap.Index)
	}
	if res.DynInstrs != 3 {
		t.Fatalf("DynInstrs = %d, want 3 (faulting instruction counted once)", res.DynInstrs)
	}
}

func TestTrapOutOfBoundsCountsOnce(t *testing.T) {
	// r0=100; r1=g0[r0] — the LD is the second executed instruction.
	main := &isa.Func{
		Name: "main", RetKind: isa.KindVoid, NumRegs: 2, NumSlots: 1, FirstArgSlot: -1,
		Blocks: []*isa.Block{{
			Instrs: []isa.Instr{
				{Op: isa.MOVI, Dst: 0, Imm: 100},
				{Op: isa.LD, Dst: 1, A: 0, Sym: 0},
				{Op: isa.RET, A: isa.NoReg},
			},
		}},
	}
	globals := []isa.Global{{Name: "g", Kind: isa.KindInt, Len: 4}}
	res, trap, _ := runTrap(t, main, globals, Config{})
	if !strings.Contains(trap.Reason, "out of bounds") {
		t.Fatalf("reason = %q", trap.Reason)
	}
	if res.DynInstrs != 2 {
		t.Fatalf("DynInstrs = %d, want 2", res.DynInstrs)
	}
}

func TestBudgetTrapCountsCapPlusOne(t *testing.T) {
	main := &isa.Func{
		Name: "main", RetKind: isa.KindVoid, NumRegs: 1, NumSlots: 1, FirstArgSlot: -1,
		Blocks: []*isa.Block{{
			Instrs: []isa.Instr{{Op: isa.JMP}},
			Succs:  []int{0},
		}},
	}
	for _, budget := range []uint64{1, 7, 1000} {
		res, trap, events := runTrap(t, main, nil, Config{MaxInstrs: budget})
		if trap.Reason != TrapBudgetExhausted {
			t.Fatalf("reason = %q", trap.Reason)
		}
		if res.DynInstrs != budget+1 {
			t.Fatalf("budget %d: DynInstrs = %d, want %d", budget, res.DynInstrs, budget+1)
		}
		if uint64(len(events)) != budget {
			t.Fatalf("budget %d: hook saw %d events, want %d", budget, len(events), budget)
		}
	}
}

func TestStackOverflowCountsOnce(t *testing.T) {
	// main calls itself forever; with MaxDepth 4 the fourth CALL traps.
	main := &isa.Func{
		Name: "main", RetKind: isa.KindVoid, NumRegs: 1, NumSlots: 1, FirstArgSlot: 0,
		Blocks: []*isa.Block{{
			Instrs: []isa.Instr{
				{Op: isa.CALL, Dst: isa.NoReg, Sym: 0},
				{Op: isa.RET, A: isa.NoReg},
			},
		}},
	}
	res, trap, events := runTrap(t, main, nil, Config{MaxDepth: 4})
	if trap.Reason != "stack overflow" {
		t.Fatalf("reason = %q", trap.Reason)
	}
	if res.DynInstrs != 4 {
		t.Fatalf("DynInstrs = %d, want 4", res.DynInstrs)
	}
	// The overflowing CALL is counted and emitted before it traps.
	if len(events) != 4 {
		t.Fatalf("hook saw %d events, want 4", len(events))
	}
	for i, ev := range events {
		if ev.Site != 0 {
			t.Fatalf("event %d at site %d, want every event at the CALL (site 0)", i, ev.Site)
		}
	}
}

func TestFaultingInstructionEmitsNoEvent(t *testing.T) {
	// Each program sets r0=7, r1=0 and then faults at index 2: the
	// faulting instruction is counted but emits no event, so the hook sees
	// exactly the two MOVIs before it.
	globals := []isa.Global{{Name: "g", Kind: isa.KindInt, Len: 4}}
	for _, tc := range []struct {
		name   string
		fault  []isa.Instr // instructions from index 2 on
		reason string
	}{
		{"DIV", []isa.Instr{{Op: isa.DIV, Dst: 2, A: 0, B: 1}, {Op: isa.RET, A: isa.NoReg}}, "division by zero"},
		{"MOD", []isa.Instr{{Op: isa.MOD, Dst: 2, A: 0, B: 1}, {Op: isa.RET, A: isa.NoReg}}, "division by zero"},
		{"LD", []isa.Instr{{Op: isa.LD, Dst: 2, A: 0, Sym: 0}, {Op: isa.RET, A: isa.NoReg}}, "load index 7 out of bounds"},
		{"ST", []isa.Instr{{Op: isa.ST, A: 0, B: 1, Sym: 0}, {Op: isa.RET, A: isa.NoReg}}, "store index 7 out of bounds"},
		{"fell off", nil, "fell off the end of a basic block"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			instrs := append([]isa.Instr{{Op: isa.MOVI, Dst: 0, Imm: 7}, {Op: isa.MOVI, Dst: 1, Imm: 0}}, tc.fault...)
			main := &isa.Func{
				Name: "main", RetKind: isa.KindVoid, NumRegs: 3, NumSlots: 1, FirstArgSlot: -1,
				Blocks: []*isa.Block{{Instrs: instrs}},
			}
			res, trap, events := runTrap(t, main, globals, Config{})
			if !strings.Contains(trap.Reason, tc.reason) {
				t.Fatalf("reason = %q, want %q", trap.Reason, tc.reason)
			}
			if trap.Block != 0 || trap.Index != 2 {
				t.Fatalf("trap at block %d index %d, want 0/2", trap.Block, trap.Index)
			}
			if res.DynInstrs != 3 {
				t.Fatalf("DynInstrs = %d, want 3", res.DynInstrs)
			}
			if len(events) != 2 || events[0].Site != 0 || events[1].Site != 1 {
				t.Fatalf("events = %+v, want the two MOVIs (sites 0 and 1) only", events)
			}
		})
	}
}

// TestTrapLocations places every kind of trap in the third block of a
// program's third function, reached through a call, and checks the
// reported function, block, index and dynamic count. The trapping block
// comes after a block that never runs, so a location read from the wrong
// block or the wrong function shows.
func TestTrapLocations(t *testing.T) {
	globals := []isa.Global{{Name: "g", Kind: isa.KindInt, Len: 4}}
	// main: CALL work (1 instruction). work block 0: r0=7, r1=0, JMP to
	// block 2 (3 more). Block 2 then runs two NOPs before the instruction
	// under test at index 2, so a fault there is dynamic instruction 7.
	prog := func(tail []isa.Instr) *isa.Program {
		main := &isa.Func{
			Name: "main", RetKind: isa.KindVoid, NumRegs: 1, NumSlots: 1, FirstArgSlot: 0,
			Blocks: []*isa.Block{{Instrs: []isa.Instr{
				{Op: isa.CALL, Dst: isa.NoReg, Sym: 2},
				{Op: isa.RET, A: isa.NoReg},
			}}},
		}
		spare := &isa.Func{
			Name: "spare", RetKind: isa.KindVoid, NumRegs: 1, NumSlots: 1, FirstArgSlot: -1,
			Blocks: []*isa.Block{{Instrs: []isa.Instr{{Op: isa.RET, A: isa.NoReg}}}},
		}
		work := &isa.Func{
			Name: "work", RetKind: isa.KindVoid, NumRegs: 3, NumSlots: 1, FirstArgSlot: 0,
			Blocks: []*isa.Block{
				{Instrs: []isa.Instr{
					{Op: isa.MOVI, Dst: 0, Imm: 7},
					{Op: isa.MOVI, Dst: 1, Imm: 0},
					{Op: isa.JMP},
				}, Succs: []int{2}},
				{Instrs: []isa.Instr{{Op: isa.RET, A: isa.NoReg}}},
				{Instrs: append([]isa.Instr{{Op: isa.NOP}, {Op: isa.NOP}}, tail...)},
			},
		}
		return &isa.Program{ISA: isa.AMD64, Globals: globals, Funcs: []*isa.Func{main, spare, work}, Entry: 0}
	}
	ret := isa.Instr{Op: isa.RET, A: isa.NoReg}
	for _, tc := range []struct {
		name   string
		tail   []isa.Instr // block 2 from index 2 on
		cfg    Config
		reason string
		index  int
		dyn    uint64
	}{
		{"DIV", []isa.Instr{{Op: isa.DIV, Dst: 2, A: 0, B: 1}, ret}, Config{}, "integer division by zero", 2, 7},
		{"MOD", []isa.Instr{{Op: isa.MOD, Dst: 2, A: 0, B: 1}, ret}, Config{}, "integer division by zero", 2, 7},
		{"LD", []isa.Instr{{Op: isa.LD, Dst: 2, A: 0, Sym: 0}, ret}, Config{}, "load index 7 out of bounds for g[4]", 2, 7},
		{"ST", []isa.Instr{{Op: isa.ST, A: 0, B: 1, Sym: 0}, ret}, Config{}, "store index 7 out of bounds for g[4]", 2, 7},
		{"stack overflow", []isa.Instr{{Op: isa.CALL, Dst: isa.NoReg, Sym: 2}, ret}, Config{MaxDepth: 2}, "stack overflow", 2, 7},
		{"unknown opcode", []isa.Instr{{Op: isa.Opcode(999)}, ret}, Config{}, "unknown opcode op(999)", 2, 7},
		{"fell off", nil, Config{}, "fell off the end of a basic block", 2, 7},
		{"budget at block entry", []isa.Instr{ret}, Config{MaxInstrs: 4}, TrapBudgetExhausted, 0, 5},
		{"budget mid-block", []isa.Instr{ret}, Config{MaxInstrs: 5}, TrapBudgetExhausted, 1, 6},
		{"budget on sentinel", nil, Config{MaxInstrs: 6}, "fell off the end of a basic block", 2, 7},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res, trap, _ := runProgTrap(t, prog(tc.tail), tc.cfg)
			want := Trap{Reason: tc.reason, Func: "work", Block: 2, Index: tc.index}
			if *trap != want {
				t.Fatalf("trap = %+v, want %+v", *trap, want)
			}
			if res.DynInstrs != tc.dyn {
				t.Fatalf("DynInstrs = %d, want %d", res.DynInstrs, tc.dyn)
			}
		})
	}
}
