package vm_test

// Trace oracle tests: a traced run's batches, expanded site by site by
// this file's own expansion (independent of the vm package's Hook view),
// must give exactly the reference interpreter's event stream, on every
// quick-suite original and clone, under budgets that cut a segment
// mid-block, across many batch hand-overs, and at every kind of trap.

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/compiler"
	"repro/internal/experiments"
	"repro/internal/isa"
	"repro/internal/pipeline"
	"repro/internal/vm"
)

// traced is one traced run, expanded.
type traced struct {
	events  []goldenEvent
	segs    int
	addrs   int // addresses handed over
	memSite int // memory sites the segments executed
	batches int
	// lastClosed reports whether the run's last segment ended with a
	// BR, JMP, CALL or RET.
	lastClosed bool
	res        vm.Result
	err        error
}

// runTraced runs m with cfg traced and expands the trace against m's
// Layout, checking each batch's shape as it arrives: segments of one or
// more consecutive sites of one block, only the closing site a control
// transfer, Taken only on a closing BR, every segment but the run's last
// closed by a control transfer, and one address per memory site of the
// batch.
func runTraced(t *testing.T, m *vm.VM, cfg vm.Config) traced {
	t.Helper()
	lay := m.Layout()
	locs := make([]vm.SiteLoc, lay.NumSites())
	instrs := make([]*isa.Instr, lay.NumSites())
	lay.Walk(func(s int, loc vm.SiteLoc, in *isa.Instr) { locs[s], instrs[s] = loc, in })
	isMem := func(op isa.Opcode) bool {
		return op == isa.LD || op == isa.ST || op == isa.LDL || op == isa.STL
	}
	isTransfer := func(op isa.Opcode) bool {
		return op == isa.BR || op == isa.JMP || op == isa.CALL || op == isa.RET
	}
	var out traced
	bad := 0
	fail := func(format string, args ...any) {
		if bad < 5 {
			t.Errorf(format, args...)
		}
		bad++
	}
	cfg.Trace = func(tr *vm.Trace) {
		out.batches++
		if len(tr.Segs) == 0 {
			fail("batch %d holds no segment", out.batches)
		}
		a := 0
		for _, sg := range tr.Segs {
			if out.segs > 0 && !out.lastClosed {
				fail("segment %d follows a segment that no control transfer closed", out.segs)
			}
			out.segs++
			if sg.N < 1 || sg.First < 0 || int(sg.First+sg.N) > len(locs) {
				fail("segment %d = %+v is out of range", out.segs, sg)
				continue
			}
			first, last := int(sg.First), int(sg.First+sg.N-1)
			for s := first; s <= last; s++ {
				loc, in := locs[s], instrs[s]
				if loc.Func != locs[first].Func || loc.Block != locs[first].Block || loc.Index != locs[first].Index+s-first {
					fail("segment %+v crosses a block boundary at site %d", sg, s)
				}
				if s < last && isTransfer(in.Op) {
					fail("segment %+v runs past the %v at site %d", sg, in.Op, s)
				}
				e := goldenEvent{fn: loc.Func, block: loc.Block, index: loc.Index, instr: in}
				if isMem(in.Op) {
					out.memSite++
					e.isMem = true
					if a < len(tr.Addrs) {
						e.addr = tr.Addrs[a]
					}
					a++
				}
				if s == last {
					e.taken = sg.Taken
				}
				out.events = append(out.events, e)
			}
			op := instrs[last].Op
			if sg.Taken && op != isa.BR {
				fail("segment %+v is Taken but closes with %v", sg, op)
			}
			out.lastClosed = isTransfer(op)
		}
		if a != len(tr.Addrs) {
			fail("batch %d: %d addresses for %d memory sites", out.batches, len(tr.Addrs), a)
		}
		out.addrs += len(tr.Addrs)
	}
	out.res, out.err = m.Run(cfg)
	return out
}

// globalsOf returns the raw words of every global of a set-up VM, the
// reference interpreter's starting memory.
func globalsOf(t *testing.T, m *vm.VM, prog *isa.Program) map[int][]int64 {
	t.Helper()
	globals := make(map[int][]int64)
	for gi, g := range prog.Globals {
		vals, err := m.Ints(g.Name)
		if err != nil {
			t.Fatal(err)
		}
		globals[gi] = vals
	}
	return globals
}

// checkTrace runs prog traced (after setup, if any) and checks it against
// the reference interpreter under the same budget and depth: the same
// event stream, count, output hash and trap, a recorded instruction count
// equal to DynInstrs less the instruction a trap stopped before (none for
// a stack overflow, whose CALL completes its recording first), and one
// address per executed memory site.
func checkTrace(t *testing.T, prog *isa.Program, setup func(*vm.VM) error, cfg vm.Config) traced {
	t.Helper()
	m := vm.New(prog)
	if setup != nil {
		if err := setup(m); err != nil {
			t.Fatal(err)
		}
	}
	budget := cfg.MaxInstrs
	if budget == 0 {
		budget = 2_000_000_000 // the VM's default
	}
	var want []goldenEvent
	refDyn, refHash, refTrap := refRunDepth(prog, globalsOf(t, m, prog), budget, cfg.MaxDepth,
		func(e goldenEvent) { want = append(want, e) })

	got := runTraced(t, m, cfg)
	stopped := uint64(0) // the instruction a trap stopped before
	switch tr, ok := got.err.(*vm.Trap); {
	case refTrap == "" && got.err != nil:
		t.Fatalf("VM trapped but reference completed: %v", got.err)
	case refTrap != "" && !ok:
		t.Fatalf("reference trapped (%s) but VM returned %v", refTrap, got.err)
	case ok && refTrap == vm.TrapBudgetExhausted && tr.Reason != vm.TrapBudgetExhausted:
		t.Fatalf("reference hit budget, VM trapped with %q", tr.Reason)
	case ok && tr.Reason != "stack overflow":
		stopped = 1
	}
	if got.res.DynInstrs != refDyn || got.res.OutputHash != refHash {
		t.Errorf("DynInstrs %d, hash %#x; reference %d, %#x", got.res.DynInstrs, got.res.OutputHash, refDyn, refHash)
	}
	if n := uint64(len(got.events)); n != got.res.DynInstrs-stopped {
		t.Errorf("segments record %d instructions, want DynInstrs %d less %d", n, got.res.DynInstrs, stopped)
	}
	if got.addrs != got.memSite {
		t.Errorf("trace holds %d addresses for %d executed memory sites", got.addrs, got.memSite)
	}
	if len(got.events) != len(want) {
		t.Errorf("trace expands to %d instructions, reference %d", len(got.events), len(want))
	}
	mismatches := 0
	for i := range min(len(got.events), len(want)) {
		if g, w := got.events[i], want[i]; g != w {
			if mismatches < 5 {
				t.Errorf("instruction %d: got {F%d B%d I%d %v addr=%#x mem=%v taken=%v}, want {F%d B%d I%d %v addr=%#x mem=%v taken=%v}",
					i, g.fn, g.block, g.index, g.instr.Op, g.addr, g.isMem, g.taken,
					w.fn, w.block, w.index, w.instr.Op, w.addr, w.isMem, w.taken)
			}
			mismatches++
		}
	}
	if mismatches > 0 {
		t.Errorf("%d of %d instructions differ", mismatches, len(want))
	}
	return got
}

// TestTraceMatchesReference checks every quick-suite original and clone
// at -O0 and -O2 on amd64v and x86v: a long run that hands over many
// batches, and short budgets that stop it inside a segment.
func TestTraceMatchesReference(t *testing.T) {
	ctx := context.Background()
	p := pipeline.New(pipeline.Options{Workers: 1, Seed: experiments.CloneSeed})
	const long = 150_000
	short := []uint64{1, 2, 3, 7, 40, 1001}
	maxBatches, midBlock := 0, 0
	for _, w := range experiments.Quick() {
		for _, target := range []*isa.Desc{isa.AMD64, isa.X86} {
			for _, level := range []compiler.OptLevel{compiler.O0, compiler.O2} {
				orig, err := p.Compile(ctx, w, target, level)
				if err != nil {
					t.Fatal(err)
				}
				clone, err := p.CompileClone(ctx, w, target, level)
				if err != nil {
					t.Fatal(err)
				}
				for _, side := range []struct {
					name  string
					prog  *isa.Program
					setup func(*vm.VM) error
				}{{"orig", orig, w.Setup}, {"clone", clone, nil}} {
					t.Run(fmt.Sprintf("%s/%s/%s/O%d", w.Name, side.name, target.Name, level), func(t *testing.T) {
						got := checkTrace(t, side.prog, side.setup, vm.Config{MaxInstrs: long})
						maxBatches = max(maxBatches, got.batches)
						for _, budget := range short {
							// A run the budget stops has no closing transfer
							// at its end when it stops inside a segment.
							if got := checkTrace(t, side.prog, side.setup, vm.Config{MaxInstrs: budget}); got.segs > 0 && !got.lastClosed {
								midBlock++
							}
						}
					})
				}
			}
		}
	}
	t.Logf("the longest run handed over %d batches", maxBatches)
	if maxBatches < 20 {
		t.Errorf("the longest run handed over %d batches, want at least 20", maxBatches)
	}
	if midBlock == 0 {
		t.Error("no short budget stopped a run inside a segment")
	}
}

// TestTraceAtTraps checks the trace at every kind of trap, placed as
// TestTrapLocations places it: in the third block of a called function,
// after a block that never runs. The stack overflow's CALL is recorded
// once, before it traps; every other trap records nothing of the
// instruction it stops before.
func TestTraceAtTraps(t *testing.T) {
	globals := []isa.Global{{Name: "g", Kind: isa.KindInt, Len: 4}}
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
					{Op: isa.STL, Imm: 0, A: 0},
					{Op: isa.JMP},
				}, Succs: []int{2}},
				{Instrs: []isa.Instr{{Op: isa.RET, A: isa.NoReg}}},
				{Instrs: append([]isa.Instr{{Op: isa.NOP}, {Op: isa.LDL, Dst: 2, Imm: 0}}, tail...)},
			},
		}
		return &isa.Program{ISA: isa.AMD64, Globals: globals, Funcs: []*isa.Func{main, spare, work}, Entry: 0}
	}
	ret := isa.Instr{Op: isa.RET, A: isa.NoReg}
	for _, tc := range []struct {
		name string
		tail []isa.Instr
		cfg  vm.Config
	}{
		{"DIV", []isa.Instr{{Op: isa.DIV, Dst: 2, A: 0, B: 1}, ret}, vm.Config{}},
		{"MOD", []isa.Instr{{Op: isa.MOD, Dst: 2, A: 0, B: 1}, ret}, vm.Config{}},
		{"LD", []isa.Instr{{Op: isa.LD, Dst: 2, A: 0, Sym: 0}, ret}, vm.Config{}},
		{"ST", []isa.Instr{{Op: isa.ST, A: 0, B: 1, Sym: 0}, ret}, vm.Config{}},
		{"stack overflow", []isa.Instr{{Op: isa.CALL, Dst: isa.NoReg, Sym: 2}, ret}, vm.Config{MaxDepth: 2}},
		{"deep stack overflow", []isa.Instr{{Op: isa.CALL, Dst: isa.NoReg, Sym: 2}, ret}, vm.Config{MaxDepth: 300}},
		{"unknown opcode", []isa.Instr{{Op: isa.Opcode(999)}, ret}, vm.Config{}},
		{"fell off", nil, vm.Config{}},
		{"budget at block entry", []isa.Instr{ret}, vm.Config{MaxInstrs: 5}},
		{"budget mid-block", []isa.Instr{ret}, vm.Config{MaxInstrs: 7}},
		{"budget on sentinel", nil, vm.Config{MaxInstrs: 7}},
		{"completes", []isa.Instr{ret}, vm.Config{}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			checkTrace(t, prog(tc.tail), nil, tc.cfg)
		})
	}
}
