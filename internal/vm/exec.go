package vm

import (
	"fmt"
	"math"
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

// runHooked is the instrumented dispatch loop. It must be kept in exact
// step with runFast: same semantics, same trap points, same counts — the
// only difference is the Event emitted per executed instruction.
func (vm *VM) runHooked(hook Hook, limit uint64, maxOutput, maxDepth int) (Result, error) {
	var res Result
	res.OutputHash = fnvOffset

	fns := vm.fns
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
	)

	// Event holds no pointers, so refilling it per instruction is a plain
	// store with no GC write barrier.
	var ev Event
	emit := func(in *pins, isMem bool, addr uint64, taken bool) {
		ev = Event{Site: int(in.site), Addr: addr, IsMem: isMem, Taken: taken}
		hook(&ev)
	}

	trapAt := func(reason string, in *pins, count uint64) (Result, error) {
		res.DynInstrs = count
		return res, &Trap{Reason: reason, Func: fc.name, Block: int(in.block), Index: int(in.index)}
	}
	// outOfBudget raises the budget trap at the next instruction — unless
	// that instruction is a block sentinel, where the pre-predecode
	// interpreter's fell-off trap fired before it could re-check the budget.
	outOfBudget := func(in *pins, count uint64) (Result, error) {
		if in.op == opFellOff {
			return trapAt("fell off the end of a basic block", in, count)
		}
		return trapAt(TrapBudgetExhausted, in, count)
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
		if dyn >= limit {
			return outOfBudget(&code[pc], dyn+1)
		}
		stop := ^uint64(0)
		if limit-dyn < uint64(code[pc].segLen) {
			stop = limit
		}
		for {
			if dyn >= stop {
				return outOfBudget(&code[pc], dyn+1)
			}
			in := &code[pc]
			dyn++

			switch in.op {
			case isa.NOP:
				emit(in, false, 0, false)

			case isa.MOVI: // also carries fused MOVF constants
				regs[in.dst] = in.imm
				emit(in, false, 0, false)
			case isa.MOV:
				regs[in.dst] = regs[in.a]
				emit(in, false, 0, false)

			case isa.ADD:
				regs[in.dst] = regs[in.a] + regs[in.b]
				emit(in, false, 0, false)
			case isa.SUB:
				regs[in.dst] = regs[in.a] - regs[in.b]
				emit(in, false, 0, false)
			case isa.MUL:
				regs[in.dst] = regs[in.a] * regs[in.b]
				emit(in, false, 0, false)
			case isa.DIV:
				if regs[in.b] == 0 {
					return trapAt("integer division by zero", in, dyn)
				}
				regs[in.dst] = regs[in.a] / regs[in.b]
				emit(in, false, 0, false)
			case isa.MOD:
				if regs[in.b] == 0 {
					return trapAt("integer division by zero", in, dyn)
				}
				regs[in.dst] = regs[in.a] % regs[in.b]
				emit(in, false, 0, false)
			case isa.AND:
				regs[in.dst] = regs[in.a] & regs[in.b]
				emit(in, false, 0, false)
			case isa.OR:
				regs[in.dst] = regs[in.a] | regs[in.b]
				emit(in, false, 0, false)
			case isa.XOR:
				regs[in.dst] = regs[in.a] ^ regs[in.b]
				emit(in, false, 0, false)
			case isa.SHL:
				regs[in.dst] = regs[in.a] << (uint64(regs[in.b]) & 63)
				emit(in, false, 0, false)
			case isa.SHR:
				regs[in.dst] = regs[in.a] >> (uint64(regs[in.b]) & 63)
				emit(in, false, 0, false)
			case isa.NEG:
				regs[in.dst] = -regs[in.a]
				emit(in, false, 0, false)
			case isa.NOTB:
				regs[in.dst] = ^regs[in.a]
				emit(in, false, 0, false)

			case isa.CMPEQ:
				regs[in.dst] = b2i(regs[in.a] == regs[in.b])
				emit(in, false, 0, false)
			case isa.CMPNE:
				regs[in.dst] = b2i(regs[in.a] != regs[in.b])
				emit(in, false, 0, false)
			case isa.CMPLT:
				regs[in.dst] = b2i(regs[in.a] < regs[in.b])
				emit(in, false, 0, false)
			case isa.CMPLE:
				regs[in.dst] = b2i(regs[in.a] <= regs[in.b])
				emit(in, false, 0, false)
			case isa.CMPGT:
				regs[in.dst] = b2i(regs[in.a] > regs[in.b])
				emit(in, false, 0, false)
			case isa.CMPGE:
				regs[in.dst] = b2i(regs[in.a] >= regs[in.b])
				emit(in, false, 0, false)

			case isa.FADD:
				a := math.Float64frombits(uint64(regs[in.a]))
				b := math.Float64frombits(uint64(regs[in.b]))
				regs[in.dst] = int64(math.Float64bits(a + b))
				emit(in, false, 0, false)
			case isa.FSUB:
				a := math.Float64frombits(uint64(regs[in.a]))
				b := math.Float64frombits(uint64(regs[in.b]))
				regs[in.dst] = int64(math.Float64bits(a - b))
				emit(in, false, 0, false)
			case isa.FMUL:
				a := math.Float64frombits(uint64(regs[in.a]))
				b := math.Float64frombits(uint64(regs[in.b]))
				regs[in.dst] = int64(math.Float64bits(a * b))
				emit(in, false, 0, false)
			case isa.FDIV:
				a := math.Float64frombits(uint64(regs[in.a]))
				b := math.Float64frombits(uint64(regs[in.b]))
				regs[in.dst] = int64(math.Float64bits(a / b))
				emit(in, false, 0, false)
			case isa.FCMPEQ:
				regs[in.dst] = b2i(math.Float64frombits(uint64(regs[in.a])) == math.Float64frombits(uint64(regs[in.b])))
				emit(in, false, 0, false)
			case isa.FCMPNE:
				regs[in.dst] = b2i(math.Float64frombits(uint64(regs[in.a])) != math.Float64frombits(uint64(regs[in.b])))
				emit(in, false, 0, false)
			case isa.FCMPLT:
				regs[in.dst] = b2i(math.Float64frombits(uint64(regs[in.a])) < math.Float64frombits(uint64(regs[in.b])))
				emit(in, false, 0, false)
			case isa.FCMPLE:
				regs[in.dst] = b2i(math.Float64frombits(uint64(regs[in.a])) <= math.Float64frombits(uint64(regs[in.b])))
				emit(in, false, 0, false)
			case isa.FCMPGT:
				regs[in.dst] = b2i(math.Float64frombits(uint64(regs[in.a])) > math.Float64frombits(uint64(regs[in.b])))
				emit(in, false, 0, false)
			case isa.FCMPGE:
				regs[in.dst] = b2i(math.Float64frombits(uint64(regs[in.a])) >= math.Float64frombits(uint64(regs[in.b])))
				emit(in, false, 0, false)
			case isa.FNEG:
				regs[in.dst] = int64(math.Float64bits(-math.Float64frombits(uint64(regs[in.a]))))
				emit(in, false, 0, false)
			case isa.FSQRT:
				regs[in.dst] = int64(math.Float64bits(math.Sqrt(math.Float64frombits(uint64(regs[in.a])))))
				emit(in, false, 0, false)
			case isa.FSIN:
				regs[in.dst] = int64(math.Float64bits(math.Sin(math.Float64frombits(uint64(regs[in.a])))))
				emit(in, false, 0, false)
			case isa.FCOS:
				regs[in.dst] = int64(math.Float64bits(math.Cos(math.Float64frombits(uint64(regs[in.a])))))
				emit(in, false, 0, false)
			case isa.FABS:
				regs[in.dst] = int64(math.Float64bits(math.Abs(math.Float64frombits(uint64(regs[in.a])))))
				emit(in, false, 0, false)
			case isa.ITOF:
				regs[in.dst] = int64(math.Float64bits(float64(regs[in.a])))
				emit(in, false, 0, false)
			case isa.FTOI:
				regs[in.dst] = isa.F2I(math.Float64frombits(uint64(regs[in.a])))
				emit(in, false, 0, false)

			case isa.LD:
				idx := in.imm + regs[in.a]
				if uint64(idx) >= uint64(len(in.mem)) {
					return trapAt(fmt.Sprintf("load index %d out of bounds for %s[%d]",
						idx, vm.prog.Globals[in.gi].Name, len(in.mem)), in, dyn)
				}
				regs[in.dst] = in.mem[idx]
				emit(in, true, in.base+uint64(idx)*in.esize, false)
			case isa.ST:
				idx := in.imm + regs[in.a]
				if uint64(idx) >= uint64(len(in.mem)) {
					return trapAt(fmt.Sprintf("store index %d out of bounds for %s[%d]",
						idx, vm.prog.Globals[in.gi].Name, len(in.mem)), in, dyn)
				}
				in.mem[idx] = regs[in.b]
				emit(in, true, in.base+uint64(idx)*in.esize, false)
			case isa.LDL:
				regs[in.dst] = slots[in.imm]
				emit(in, true, base+in.base, false)
			case isa.STL:
				slots[in.imm] = regs[in.a]
				emit(in, true, base+in.base, false)

			case isa.BR:
				if regs[in.a] != 0 {
					emit(in, false, 0, true)
					pc = in.t0
				} else {
					emit(in, false, 0, false)
					pc = in.t1
				}
				continue run
			case isa.JMP:
				emit(in, false, 0, false)
				pc = in.t0
				continue run

			case isa.CALL:
				emit(in, false, 0, false)
				if len(frames) >= maxDepth {
					return trapAt("stack overflow", in, dyn)
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
				emit(in, false, 0, false)
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
				emit(in, false, 0, false)
			case isa.PRINTF:
				f := math.Float64frombits(uint64(regs[in.a]))
				record(strconv.FormatFloat(f, 'g', 12, 64))
				emit(in, false, 0, false)

			case opFellOff:
				return trapAt("fell off the end of a basic block", in, dyn)

			default:
				return trapAt(fmt.Sprintf("unknown opcode %v", in.op), in, dyn)
			}
			pc++
		}
	}
}

// runFast is the uninstrumented dispatch loop used when no hook is
// installed (validation, calibration's instruction-count passes). It is
// runHooked minus event construction; every other behavior — trap points,
// counts, output hashing — is identical.
func (vm *VM) runFast(limit uint64, maxOutput, maxDepth int) (Result, error) {
	var res Result
	res.OutputHash = fnvOffset

	fns := vm.fns
	free := make([][][]int64, len(fns))

	fnIdx := int32(vm.prog.Entry)
	fc := &fns[fnIdx]
	buf := takeBuf(free, fnIdx, fc)
	frames := make([]frame, 0, 64)
	frames = append(frames, frame{
		fc: fc, fnIdx: fnIdx, base: stackBase, retDst: isa.NoReg,
		buf: buf, regs: buf[:fc.nRegs:fc.nRegs], slots: buf[fc.nRegs:],
	})

	var (
		code  = fc.ins
		regs  = frames[0].regs
		slots = frames[0].slots
		base  = uint64(stackBase)
		pc    int32
		dyn   uint64
	)

	trapAt := func(reason string, in *pins, count uint64) (Result, error) {
		res.DynInstrs = count
		return res, &Trap{Reason: reason, Func: fc.name, Block: int(in.block), Index: int(in.index)}
	}
	outOfBudget := func(in *pins, count uint64) (Result, error) {
		if in.op == opFellOff {
			return trapAt("fell off the end of a basic block", in, count)
		}
		return trapAt(TrapBudgetExhausted, in, count)
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
		if dyn >= limit {
			return outOfBudget(&code[pc], dyn+1)
		}
		stop := ^uint64(0)
		if limit-dyn < uint64(code[pc].segLen) {
			stop = limit
		}
		for {
			if dyn >= stop {
				return outOfBudget(&code[pc], dyn+1)
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
					return trapAt("integer division by zero", in, dyn)
				}
				regs[in.dst] = regs[in.a] / regs[in.b]
			case isa.MOD:
				if regs[in.b] == 0 {
					return trapAt("integer division by zero", in, dyn)
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
				idx := in.imm + regs[in.a]
				if uint64(idx) >= uint64(len(in.mem)) {
					return trapAt(fmt.Sprintf("load index %d out of bounds for %s[%d]",
						idx, vm.prog.Globals[in.gi].Name, len(in.mem)), in, dyn)
				}
				regs[in.dst] = in.mem[idx]
			case isa.ST:
				idx := in.imm + regs[in.a]
				if uint64(idx) >= uint64(len(in.mem)) {
					return trapAt(fmt.Sprintf("store index %d out of bounds for %s[%d]",
						idx, vm.prog.Globals[in.gi].Name, len(in.mem)), in, dyn)
				}
				in.mem[idx] = regs[in.b]
			case isa.LDL:
				regs[in.dst] = slots[in.imm]
			case isa.STL:
				slots[in.imm] = regs[in.a]

			case isa.BR:
				if regs[in.a] != 0 {
					pc = in.t0
				} else {
					pc = in.t1
				}
				continue run
			case isa.JMP:
				pc = in.t0
				continue run

			case isa.CALL:
				if len(frames) >= maxDepth {
					return trapAt("stack overflow", in, dyn)
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
				return trapAt("fell off the end of a basic block", in, dyn)

			default:
				return trapAt(fmt.Sprintf("unknown opcode %v", in.op), in, dyn)
			}
			pc++
		}
	}
}
