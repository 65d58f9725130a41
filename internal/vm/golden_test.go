package vm_test

// Golden event-stream tests: the predecoded flat-dispatch VM must emit an
// Event sequence order- and content-identical to a reference straight-line
// interpretation of the program structure (the pre-predecode interpreter,
// kept here verbatim in miniature), and concurrent Runs with pooled frames
// must stay independent. These tests live in an external test package
// because they drive the VM with real compiled workloads, and the workloads
// package itself imports vm.

import (
	"fmt"
	"math"
	"strconv"
	"testing"

	"repro/internal/compiler"
	"repro/internal/hlc"
	"repro/internal/isa"
	"repro/internal/vm"
	"repro/internal/workloads"
)

// goldenEvent is one recorded hook event (Instr identity is compared as a
// pointer: the VM's Site, resolved through vm.Layout, must name the same
// static instruction the reference executed).
type goldenEvent struct {
	fn, block, index int
	instr            *isa.Instr
	addr             uint64
	isMem            bool
	taken            bool
}

// refRun is the reference interpreter: a direct walk of the program's block
// structure, one instruction at a time, with a budget check before every
// instruction — the semantics the predecoded VM must reproduce. It emits
// events through emit and returns the dynamic count and final output hash
// (counting genuine traps' faulting instruction exactly once).
func refRun(prog *isa.Program, globals map[int][]int64, maxInstrs uint64, emit func(goldenEvent)) (dyn uint64, hash uint64, trap string) {
	return refRunDepth(prog, globals, maxInstrs, 0, emit)
}

// refRunDepth is refRun with a call-depth bound: with maxDepth > 0, a
// CALL made with maxDepth frames live emits its event and then traps, as
// the VM's does.
func refRunDepth(prog *isa.Program, globals map[int][]int64, maxInstrs uint64, maxDepth int, emit func(goldenEvent)) (dyn uint64, hash uint64, trap string) {
	const stackBase = 0x4000_0000
	globalAddr := make([]uint64, len(prog.Globals))
	addr := uint64(0x0001_0000)
	for i, g := range prog.Globals {
		globalAddr[i] = addr
		size := uint64(g.Len * g.ElemBytes())
		addr += (size + 63) / 64 * 64
	}
	mem := make([][]int64, len(prog.Globals))
	for i, g := range prog.Globals {
		mem[i] = make([]int64, g.Len)
		copy(mem[i], globals[i])
	}

	type rframe struct {
		fn           *isa.Func
		fnIdx        int
		regs, slots  []int64
		base         uint64
		block, index int
		retDst       isa.RegID
	}
	newf := func(fn *isa.Func, fnIdx int, base uint64) *rframe {
		return &rframe{
			fn: fn, fnIdx: fnIdx, base: base, retDst: isa.NoReg,
			regs:  make([]int64, fn.NumRegs),
			slots: make([]int64, max(fn.NumSlots, 1)),
		}
	}
	hash = 14695981039346656037
	record := func(s string) {
		for i := 0; i < len(s); i++ {
			hash ^= uint64(s[i])
			hash *= 1099511628211
		}
		hash ^= '\n'
		hash *= 1099511628211
	}

	frames := []*rframe{newf(prog.Funcs[prog.Entry], prog.Entry, stackBase)}
	cur := frames[0]
	ev := func(in *isa.Instr, isMem bool, a uint64, taken bool) {
		emit(goldenEvent{cur.fnIdx, cur.block, cur.index, in, a, isMem, taken})
	}
	for {
		if dyn >= maxInstrs {
			return dyn + 1, hash, vm.TrapBudgetExhausted
		}
		blk := cur.fn.Blocks[cur.block]
		in := &blk.Instrs[cur.index]
		dyn++
		advance := true
		switch in.Op {
		case isa.NOP:
			ev(in, false, 0, false)
		case isa.MOVI:
			cur.regs[in.Dst] = in.Imm
			ev(in, false, 0, false)
		case isa.MOVF:
			cur.regs[in.Dst] = int64(math.Float64bits(in.F))
			ev(in, false, 0, false)
		case isa.MOV:
			cur.regs[in.Dst] = cur.regs[in.A]
			ev(in, false, 0, false)
		case isa.ADD, isa.SUB, isa.MUL, isa.AND, isa.OR, isa.XOR, isa.SHL, isa.SHR,
			isa.CMPEQ, isa.CMPNE, isa.CMPLT, isa.CMPLE, isa.CMPGT, isa.CMPGE:
			v, _ := isa.EvalIntBin(in.Op, cur.regs[in.A], cur.regs[in.B])
			cur.regs[in.Dst] = v
			ev(in, false, 0, false)
		case isa.DIV, isa.MOD:
			v, ok := isa.EvalIntBin(in.Op, cur.regs[in.A], cur.regs[in.B])
			if !ok {
				return dyn, hash, "integer division by zero"
			}
			cur.regs[in.Dst] = v
			ev(in, false, 0, false)
		case isa.NEG, isa.NOTB:
			cur.regs[in.Dst] = isa.EvalIntUn(in.Op, cur.regs[in.A])
			ev(in, false, 0, false)
		case isa.FADD, isa.FSUB, isa.FMUL, isa.FDIV:
			a := math.Float64frombits(uint64(cur.regs[in.A]))
			b := math.Float64frombits(uint64(cur.regs[in.B]))
			cur.regs[in.Dst] = int64(math.Float64bits(isa.EvalFloatBin(in.Op, a, b)))
			ev(in, false, 0, false)
		case isa.FCMPEQ, isa.FCMPNE, isa.FCMPLT, isa.FCMPLE, isa.FCMPGT, isa.FCMPGE:
			a := math.Float64frombits(uint64(cur.regs[in.A]))
			b := math.Float64frombits(uint64(cur.regs[in.B]))
			cur.regs[in.Dst] = isa.EvalFloatCmp(in.Op, a, b)
			ev(in, false, 0, false)
		case isa.FNEG, isa.FSQRT, isa.FSIN, isa.FCOS, isa.FABS:
			a := math.Float64frombits(uint64(cur.regs[in.A]))
			cur.regs[in.Dst] = int64(math.Float64bits(isa.EvalFloatUn(in.Op, a)))
			ev(in, false, 0, false)
		case isa.ITOF:
			cur.regs[in.Dst] = int64(math.Float64bits(float64(cur.regs[in.A])))
			ev(in, false, 0, false)
		case isa.FTOI:
			cur.regs[in.Dst] = isa.F2I(math.Float64frombits(uint64(cur.regs[in.A])))
			ev(in, false, 0, false)
		case isa.LD, isa.ST:
			gi := in.Sym
			idx := in.Imm
			if in.A != isa.NoReg {
				idx += cur.regs[in.A]
			}
			g := mem[gi]
			if idx < 0 || idx >= int64(len(g)) {
				return dyn, hash, "out of bounds"
			}
			if in.Op == isa.LD {
				cur.regs[in.Dst] = g[idx]
			} else {
				g[idx] = cur.regs[in.B]
			}
			a := globalAddr[gi] + uint64(idx)*uint64(prog.Globals[gi].ElemBytes())
			ev(in, true, a, false)
		case isa.LDL:
			cur.regs[in.Dst] = cur.slots[in.Imm]
			ev(in, true, cur.base+uint64(in.Imm)*isa.SlotBytes, false)
		case isa.STL:
			cur.slots[in.Imm] = cur.regs[in.A]
			ev(in, true, cur.base+uint64(in.Imm)*isa.SlotBytes, false)
		case isa.BR:
			taken := cur.regs[in.A] != 0
			ev(in, false, 0, taken)
			if taken {
				cur.block = blk.Succs[0]
			} else {
				cur.block = blk.Succs[1]
			}
			cur.index = 0
			advance = false
		case isa.JMP:
			ev(in, false, 0, false)
			cur.block = blk.Succs[0]
			cur.index = 0
			advance = false
		case isa.CALL:
			ev(in, false, 0, false)
			if maxDepth > 0 && len(frames) >= maxDepth {
				return dyn, hash, "stack overflow"
			}
			callee := prog.Funcs[in.Sym]
			nf := newf(callee, int(in.Sym), cur.base+uint64(cur.fn.NumSlots)*isa.SlotBytes)
			for p := 0; p < callee.NumParams; p++ {
				nf.slots[p] = cur.slots[in.Imm+int64(p)]
			}
			nf.retDst = in.Dst
			cur.index++
			frames = append(frames, nf)
			cur = nf
			advance = false
		case isa.RET:
			ev(in, false, 0, false)
			var retVal int64
			if in.A != isa.NoReg {
				retVal = cur.regs[in.A]
			}
			retDst := cur.retDst
			frames = frames[:len(frames)-1]
			if len(frames) == 0 {
				return dyn, hash, ""
			}
			cur = frames[len(frames)-1]
			if retDst != isa.NoReg {
				cur.regs[retDst] = retVal
			}
			advance = false
		case isa.PRINTI:
			record(strconv.FormatInt(cur.regs[in.A], 10))
			ev(in, false, 0, false)
		case isa.PRINTF:
			record(strconv.FormatFloat(math.Float64frombits(uint64(cur.regs[in.A])), 'g', 12, 64))
			ev(in, false, 0, false)
		default:
			return dyn, hash, "unknown opcode"
		}
		if advance {
			cur.index++
			if cur.index >= len(blk.Instrs) {
				return dyn + 1, hash, "fell off the end of a basic block"
			}
		}
	}
}

func compileWorkload(t testing.TB, name string, level compiler.OptLevel) (*workloads.Workload, *isa.Program) {
	t.Helper()
	w := workloads.ByName(name)
	if w == nil {
		t.Fatalf("workload %s not found", name)
	}
	ast, err := hlc.Parse(w.Source)
	if err != nil {
		t.Fatal(err)
	}
	cp, err := hlc.Check(ast)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := compiler.Compile(cp, isa.AMD64, level)
	if err != nil {
		t.Fatal(err)
	}
	return w, prog
}

// TestGoldenEventStream compares the predecoded VM's full event stream
// against the reference interpretation on real compiled workloads, at both
// the profiling optimization level and an optimized build.
func TestGoldenEventStream(t *testing.T) {
	cases := []struct {
		workload string
		level    compiler.OptLevel
		budget   uint64
	}{
		{"crc32/small", compiler.O0, 150_000},
		{"fft/small1", compiler.O0, 150_000},
		{"gsm/small1", compiler.O0, 150_000},
		{"dijkstra/small", compiler.O2, 150_000},
	}
	for _, tc := range cases {
		t.Run(fmt.Sprintf("%s-O%d", tc.workload, tc.level), func(t *testing.T) {
			w, prog := compileWorkload(t, tc.workload, tc.level)

			// Reference pass: record the expected event stream. Globals are
			// captured from a set-up VM so both sides see the same inputs.
			m0 := vm.New(prog)
			if err := w.Setup(m0); err != nil {
				t.Fatal(err)
			}
			// Ints returns the raw backing words of any global (floats are
			// stored as IEEE bits), so both interpreters start from
			// identical memory.
			globals := make(map[int][]int64)
			for gi, g := range prog.Globals {
				vals, err := m0.Ints(g.Name)
				if err != nil {
					t.Fatal(err)
				}
				globals[gi] = vals
			}

			var want []goldenEvent
			refDyn, refHash, refTrap := refRun(prog, globals, tc.budget, func(e goldenEvent) {
				want = append(want, e)
			})

			m := vm.New(prog)
			if err := w.Setup(m); err != nil {
				t.Fatal(err)
			}
			// The Site contract: the Layout's numbering of Site must name
			// the location and instruction the reference ran.
			lay := m.Layout()
			locs := make([]vm.SiteLoc, lay.NumSites())
			instrs := make([]*isa.Instr, lay.NumSites())
			lay.Walk(func(s int, loc vm.SiteLoc, in *isa.Instr) { locs[s], instrs[s] = loc, in })
			i := 0
			mismatches := 0
			hook := func(ev *vm.Event) {
				if i >= len(want) {
					if mismatches == 0 {
						t.Errorf("event %d: VM emitted beyond reference stream end", i)
					}
					mismatches++
					i++
					return
				}
				e := want[i]
				loc, instr := locs[ev.Site], instrs[ev.Site]
				if loc.Func != e.fn || loc.Block != e.block || loc.Index != e.index ||
					instr != e.instr || ev.Addr != e.addr || ev.IsMem != e.isMem || ev.Taken != e.taken {
					if mismatches < 5 {
						t.Errorf("event %d: got {Site %d = F%d B%d I%d addr=%#x mem=%v taken=%v}, want {F%d B%d I%d addr=%#x mem=%v taken=%v}",
							i, ev.Site, loc.Func, loc.Block, loc.Index, ev.Addr, ev.IsMem, ev.Taken,
							e.fn, e.block, e.index, e.addr, e.isMem, e.taken)
					}
					mismatches++
				}
				i++
			}
			res, err := m.Run(vm.Config{Hook: hook, MaxInstrs: tc.budget})
			if refTrap == "" {
				if err != nil {
					t.Fatalf("VM trapped but reference completed: %v", err)
				}
			} else {
				tr, ok := err.(*vm.Trap)
				if !ok {
					t.Fatalf("reference trapped (%s) but VM returned %v", refTrap, err)
				}
				if refTrap == vm.TrapBudgetExhausted && tr.Reason != vm.TrapBudgetExhausted {
					t.Fatalf("reference hit budget, VM trapped with %q", tr.Reason)
				}
			}
			if i != len(want) {
				t.Fatalf("VM emitted %d events, reference %d", i, len(want))
			}
			if res.DynInstrs != refDyn {
				t.Errorf("DynInstrs %d, reference %d", res.DynInstrs, refDyn)
			}
			if res.OutputHash != refHash {
				t.Errorf("OutputHash %#x, reference %#x", res.OutputHash, refHash)
			}
			if mismatches > 0 {
				t.Fatalf("%d event mismatches", mismatches)
			}
		})
	}
}

// TestVMFastPathMatchesHooked asserts that a run with no hook and a run
// with a hook produce identical results (count, output hash), and that the
// hook sees one event per counted instruction: installing an observer must
// not change what the program does.
func TestVMFastPathMatchesHooked(t *testing.T) {
	for _, name := range []string{"crc32/small", "fft/small1"} {
		w, prog := compileWorkload(t, name, compiler.O0)
		run := func(hook vm.Hook) vm.Result {
			m := vm.New(prog)
			if err := w.Setup(m); err != nil {
				t.Fatal(err)
			}
			res, err := m.Run(vm.Config{Hook: hook, MaxInstrs: 200_000})
			if err != nil {
				if tr, ok := err.(*vm.Trap); !ok || tr.Reason != vm.TrapBudgetExhausted {
					t.Fatal(err)
				}
			}
			return res
		}
		fast := run(nil)
		var events uint64
		hooked := run(func(*vm.Event) { events++ })
		if fast.DynInstrs != hooked.DynInstrs || fast.OutputHash != hooked.OutputHash || fast.Prints != hooked.Prints {
			t.Fatalf("%s: fast %+v != hooked %+v", name, fast, hooked)
		}
		if hooked.DynInstrs > 200_000 { // budget-trapped runs report cap+1
			if events != 200_000 {
				t.Fatalf("%s: hook saw %d events, want %d", name, events, 200_000)
			}
		} else if events != hooked.DynInstrs {
			t.Fatalf("%s: hook saw %d events for %d instructions", name, events, hooked.DynInstrs)
		}
	}
}

// TestVMConcurrentRuns exercises pooled frames under the race detector:
// concurrent Runs over the same program (each on its own VM, as profiling
// fans out) must stay independent and byte-identical.
func TestVMConcurrentRuns(t *testing.T) {
	w, prog := compileWorkload(t, "crc32/small", compiler.O0)
	const n = 8
	type out struct {
		res vm.Result
		dyn uint64
	}
	outs := make([]out, n)
	done := make(chan int, n)
	for i := 0; i < n; i++ {
		go func(i int) {
			defer func() { done <- i }()
			m := vm.New(prog)
			if err := w.Setup(m); err != nil {
				t.Error(err)
				return
			}
			var count uint64
			res, err := m.Run(vm.Config{Hook: func(*vm.Event) { count++ }, MaxInstrs: 100_000})
			if err != nil {
				if tr, ok := err.(*vm.Trap); !ok || tr.Reason != vm.TrapBudgetExhausted {
					t.Error(err)
					return
				}
			}
			outs[i] = out{res: res, dyn: count}
		}(i)
	}
	for i := 0; i < n; i++ {
		<-done
	}
	for i := 1; i < n; i++ {
		if outs[i].res.DynInstrs != outs[0].res.DynInstrs ||
			outs[i].res.OutputHash != outs[0].res.OutputHash ||
			outs[i].dyn != outs[0].dyn {
			t.Fatalf("run %d diverged: %+v (events %d) vs %+v (events %d)",
				i, outs[i].res, outs[i].dyn, outs[0].res, outs[0].dyn)
		}
	}
}
