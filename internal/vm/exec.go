package vm

import (
	"fmt"
	"math"
	"slices"
	"strconv"

	"repro/internal/isa"
)

// frame is one activation record. regs and slots are views into one pooled
// backing array (buf); regs carries one extra trailing register that is
// never written and always reads zero — predecode retargets scalar LD/ST
// at it so the hot path needs no NoReg test. pc holds the caller's resume
// point while a callee runs.
type frame struct {
	fc     *fcode
	buf    []int64
	regs   []int64
	slots  []int64
	base   uint64 // frame base address for LDL/STL addresses
	pc     int32
	fnIdx  int32
	retDst isa.RegID // caller register receiving the return value
}

// takeBuf pops a pooled regs+slots buffer for function fi, or allocates one.
// Reused buffers are cleared to preserve zero-initialization semantics.
func takeBuf(free [][][]int64, fi int32, fc *fcode) []int64 {
	if s := free[fi]; len(s) > 0 {
		buf := s[len(s)-1]
		free[fi] = s[:len(s)-1]
		clear(buf)
		return buf
	}
	return make([]int64, fc.nRegs+fc.nSlots)
}

// putBuf returns a buffer to function fi's free list.
func putBuf(free [][][]int64, fi int32, buf []int64) {
	free[fi] = append(free[fi], buf)
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// run is the dispatch loop. With a nil recorder it only interprets;
// otherwise it also records the run's trace: an address at each memory
// instruction and a segment at each segment end. Trap points, counts and
// output hashing do not depend on the recorder.
func (vm *VM) run(tr *recorder, limit uint64, maxOutput, maxDepth int) (Result, error) {
	var res Result
	res.OutputHash = fnvOffset

	fns := vm.fns
	globals := vm.globals
	free := make([][][]int64, len(fns))

	fnIdx := int32(vm.prog.Entry)
	fc := &fns[fnIdx]
	buf := takeBuf(free, fnIdx, fc)
	frames := make([]frame, 0, 64)
	frames = append(frames, frame{
		fc: fc, fnIdx: fnIdx, base: stackBase, retDst: isa.NoReg,
		buf: buf, regs: buf[:fc.nRegs:fc.nRegs], slots: buf[fc.nRegs:],
	})

	// Hot interpreter state, kept in locals. frames[top] holds the
	// authoritative copies for suspended callers only.
	var (
		code  = fc.ins
		regs  = frames[0].regs
		slots = frames[0].slots
		base  = uint64(stackBase)
		pc    int32
		dyn   uint64
		// segPC is the flat PC where the current segment began. A CALL
		// moves it past itself once recorded, so a trap closes only the
		// instructions it has not recorded yet.
		segPC int32
	)
	// closeSeg records the segment that ends at pc, inclusive.
	closeSeg := func(in *pins, pc int32, taken bool) {
		tr.seg(in.site-(pc-segPC), pc-segPC+1, taken)
	}

	// trapAt traps at flat PC pc, in the last block starting at or before
	// it (a sentinel's index is its block's length). The instruction at pc
	// did not complete, so a traced run's last segment stops before it.
	trapAt := func(reason string, pc int32, count uint64) (Result, error) {
		res.DynInstrs = count
		if tr != nil {
			if pc > segPC {
				tr.seg(fc.ins[segPC].site, pc-segPC, false)
			}
			tr.flush()
		}
		b, found := slices.BinarySearch(fc.blockStart, pc)
		if !found {
			b--
		}
		return res, &Trap{Reason: reason, Func: vm.prog.Funcs[fnIdx].Name, Block: b, Index: int(pc - fc.blockStart[b])}
	}
	// outOfBudget raises the budget trap at the next instruction — unless
	// that instruction is a block sentinel, where the pre-predecode
	// interpreter's fell-off trap fired before it could re-check the budget.
	outOfBudget := func(pc int32, count uint64) (Result, error) {
		if fc.ins[pc].op == opFellOff {
			return trapAt("fell off the end of a basic block", pc, count)
		}
		return trapAt(TrapBudgetExhausted, pc, count)
	}
	record := func(s string) {
		res.Prints++
		for i := 0; i < len(s); i++ {
			res.OutputHash ^= uint64(s[i])
			res.OutputHash *= fnvPrime
		}
		res.OutputHash ^= '\n'
		res.OutputHash *= fnvPrime
		if len(res.Output) < maxOutput {
			res.Output = append(res.Output, s)
		}
	}

run:
	for {
		// Segment entry: authorize the rest of the current basic block
		// against the budget in one comparison. Only when the block could
		// straddle the limit does the inner loop check per instruction.
		segPC = pc
		if dyn >= limit {
			return outOfBudget(pc, dyn+1)
		}
		stop := ^uint64(0)
		if limit-dyn < uint64(code[pc].segLen) {
			stop = limit
		}
		for {
			if dyn >= stop {
				return outOfBudget(pc, dyn+1)
			}
			in := &code[pc]
			dyn++

			switch in.op {
			case isa.NOP:

			case isa.MOVI: // also carries fused MOVF constants
				regs[in.dst] = in.imm
			case isa.MOV:
				regs[in.dst] = regs[in.a]

			case isa.ADD:
				regs[in.dst] = regs[in.a] + regs[in.b]
			case isa.SUB:
				regs[in.dst] = regs[in.a] - regs[in.b]
			case isa.MUL:
				regs[in.dst] = regs[in.a] * regs[in.b]
			case isa.DIV:
				if regs[in.b] == 0 {
					return trapAt("integer division by zero", pc, dyn)
				}
				regs[in.dst] = regs[in.a] / regs[in.b]
			case isa.MOD:
				if regs[in.b] == 0 {
					return trapAt("integer division by zero", pc, dyn)
				}
				regs[in.dst] = regs[in.a] % regs[in.b]
			case isa.AND:
				regs[in.dst] = regs[in.a] & regs[in.b]
			case isa.OR:
				regs[in.dst] = regs[in.a] | regs[in.b]
			case isa.XOR:
				regs[in.dst] = regs[in.a] ^ regs[in.b]
			case isa.SHL:
				regs[in.dst] = regs[in.a] << (uint64(regs[in.b]) & 63)
			case isa.SHR:
				regs[in.dst] = regs[in.a] >> (uint64(regs[in.b]) & 63)
			case isa.NEG:
				regs[in.dst] = -regs[in.a]
			case isa.NOTB:
				regs[in.dst] = ^regs[in.a]

			case isa.CMPEQ:
				regs[in.dst] = b2i(regs[in.a] == regs[in.b])
			case isa.CMPNE:
				regs[in.dst] = b2i(regs[in.a] != regs[in.b])
			case isa.CMPLT:
				regs[in.dst] = b2i(regs[in.a] < regs[in.b])
			case isa.CMPLE:
				regs[in.dst] = b2i(regs[in.a] <= regs[in.b])
			case isa.CMPGT:
				regs[in.dst] = b2i(regs[in.a] > regs[in.b])
			case isa.CMPGE:
				regs[in.dst] = b2i(regs[in.a] >= regs[in.b])

			case isa.FADD:
				a := math.Float64frombits(uint64(regs[in.a]))
				b := math.Float64frombits(uint64(regs[in.b]))
				regs[in.dst] = int64(math.Float64bits(a + b))
			case isa.FSUB:
				a := math.Float64frombits(uint64(regs[in.a]))
				b := math.Float64frombits(uint64(regs[in.b]))
				regs[in.dst] = int64(math.Float64bits(a - b))
			case isa.FMUL:
				a := math.Float64frombits(uint64(regs[in.a]))
				b := math.Float64frombits(uint64(regs[in.b]))
				regs[in.dst] = int64(math.Float64bits(a * b))
			case isa.FDIV:
				a := math.Float64frombits(uint64(regs[in.a]))
				b := math.Float64frombits(uint64(regs[in.b]))
				regs[in.dst] = int64(math.Float64bits(a / b))
			case isa.FCMPEQ:
				regs[in.dst] = b2i(math.Float64frombits(uint64(regs[in.a])) == math.Float64frombits(uint64(regs[in.b])))
			case isa.FCMPNE:
				regs[in.dst] = b2i(math.Float64frombits(uint64(regs[in.a])) != math.Float64frombits(uint64(regs[in.b])))
			case isa.FCMPLT:
				regs[in.dst] = b2i(math.Float64frombits(uint64(regs[in.a])) < math.Float64frombits(uint64(regs[in.b])))
			case isa.FCMPLE:
				regs[in.dst] = b2i(math.Float64frombits(uint64(regs[in.a])) <= math.Float64frombits(uint64(regs[in.b])))
			case isa.FCMPGT:
				regs[in.dst] = b2i(math.Float64frombits(uint64(regs[in.a])) > math.Float64frombits(uint64(regs[in.b])))
			case isa.FCMPGE:
				regs[in.dst] = b2i(math.Float64frombits(uint64(regs[in.a])) >= math.Float64frombits(uint64(regs[in.b])))
			case isa.FNEG:
				regs[in.dst] = int64(math.Float64bits(-math.Float64frombits(uint64(regs[in.a]))))
			case isa.FSQRT:
				regs[in.dst] = int64(math.Float64bits(math.Sqrt(math.Float64frombits(uint64(regs[in.a])))))
			case isa.FSIN:
				regs[in.dst] = int64(math.Float64bits(math.Sin(math.Float64frombits(uint64(regs[in.a])))))
			case isa.FCOS:
				regs[in.dst] = int64(math.Float64bits(math.Cos(math.Float64frombits(uint64(regs[in.a])))))
			case isa.FABS:
				regs[in.dst] = int64(math.Float64bits(math.Abs(math.Float64frombits(uint64(regs[in.a])))))
			case isa.ITOF:
				regs[in.dst] = int64(math.Float64bits(float64(regs[in.a])))
			case isa.FTOI:
				regs[in.dst] = isa.F2I(math.Float64frombits(uint64(regs[in.a])))

			case isa.LD:
				g := &globals[in.gi]
				idx := in.imm + regs[in.a]
				if uint64(idx) >= uint64(len(g.mem)) {
					return trapAt(fmt.Sprintf("load index %d out of bounds for %s[%d]",
						idx, vm.prog.Globals[in.gi].Name, len(g.mem)), pc, dyn)
				}
				regs[in.dst] = g.mem[idx]
				if tr != nil {
					tr.batch.Addrs = append(tr.batch.Addrs, g.addr+uint64(idx)*g.esize)
				}
			case isa.ST:
				g := &globals[in.gi]
				idx := in.imm + regs[in.a]
				if uint64(idx) >= uint64(len(g.mem)) {
					return trapAt(fmt.Sprintf("store index %d out of bounds for %s[%d]",
						idx, vm.prog.Globals[in.gi].Name, len(g.mem)), pc, dyn)
				}
				g.mem[idx] = regs[in.b]
				if tr != nil {
					tr.batch.Addrs = append(tr.batch.Addrs, g.addr+uint64(idx)*g.esize)
				}
			case isa.LDL:
				regs[in.dst] = slots[in.imm]
				if tr != nil {
					tr.batch.Addrs = append(tr.batch.Addrs, base+uint64(in.imm)*isa.SlotBytes)
				}
			case isa.STL:
				slots[in.imm] = regs[in.a]
				if tr != nil {
					tr.batch.Addrs = append(tr.batch.Addrs, base+uint64(in.imm)*isa.SlotBytes)
				}

			case isa.BR:
				taken := regs[in.a] != 0
				if tr != nil {
					closeSeg(in, pc, taken)
				}
				if taken {
					pc = in.t0
				} else {
					pc = in.t1
				}
				continue run
			case isa.JMP:
				if tr != nil {
					closeSeg(in, pc, false)
				}
				pc = in.t0
				continue run

			case isa.CALL:
				if tr != nil {
					closeSeg(in, pc, false)
					segPC = pc + 1
				}
				if len(frames) >= maxDepth {
					return trapAt("stack overflow", pc, dyn)
				}
				callee := &fns[in.gi]
				nbuf := takeBuf(free, in.gi, callee)
				nregs := nbuf[:callee.nRegs:callee.nRegs]
				nslots := nbuf[callee.nRegs:]
				for p := 0; p < callee.nParams; p++ {
					nslots[p] = slots[in.imm+int64(p)]
				}
				nbase := base + fc.frameBytes
				frames[len(frames)-1].pc = pc + 1 // resume after the call
				frames = append(frames, frame{
					fc: callee, fnIdx: in.gi, base: nbase, retDst: in.dst,
					buf: nbuf, regs: nregs, slots: nslots,
				})
				fc = callee
				fnIdx = in.gi
				code = fc.ins
				regs, slots, base = nregs, nslots, nbase
				pc = 0
				continue run

			case isa.RET:
				if tr != nil {
					closeSeg(in, pc, false)
				}
				var retVal int64
				if in.a != isa.NoReg {
					retVal = regs[in.a]
				}
				top := len(frames) - 1
				rd := frames[top].retDst
				putBuf(free, fnIdx, frames[top].buf)
				frames = frames[:top]
				if top == 0 {
					res.DynInstrs = dyn
					if tr != nil {
						tr.flush()
					}
					return res, nil
				}
				cur := &frames[top-1]
				fc = cur.fc
				fnIdx = cur.fnIdx
				code = fc.ins
				regs, slots, base = cur.regs, cur.slots, cur.base
				pc = cur.pc
				if rd != isa.NoReg {
					regs[rd] = retVal
				}
				continue run

			case isa.PRINTI:
				record(strconv.FormatInt(regs[in.a], 10))
			case isa.PRINTF:
				f := math.Float64frombits(uint64(regs[in.a]))
				record(strconv.FormatFloat(f, 'g', 12, 64))

			case opFellOff:
				return trapAt("fell off the end of a basic block", pc, dyn)

			default:
				return trapAt(fmt.Sprintf("unknown opcode %v", in.op), pc, dyn)
			}
			pc++
		}
	}
}
