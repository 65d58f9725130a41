package compiler

import (
	"math"
	"math/bits"
	"slices"

	"repro/internal/ir"
	"repro/internal/isa"
)

// This file implements the optimization passes. They operate on
// virtual-register code (an isa.Func before register allocation) and are
// deliberately the textbook passes GCC applies at the corresponding levels,
// because the paper's compiler-space results (Figs. 5, 6, 11) hinge on the
// synthetic benchmarks reacting to exactly these transformations.

// mapUses applies f to every register operand the instruction reads.
func mapUses(in *isa.Instr, f func(isa.RegID) isa.RegID) {
	m := func(r isa.RegID) isa.RegID {
		if r == isa.NoReg {
			return r
		}
		return f(r)
	}
	switch in.Op {
	case isa.NOP, isa.JMP, isa.MOVI, isa.MOVF, isa.LDL, isa.CALL:
		// no register uses
	case isa.MOV, isa.NEG, isa.NOTB, isa.FNEG, isa.ITOF, isa.FTOI,
		isa.FSQRT, isa.FSIN, isa.FCOS, isa.FABS,
		isa.LD, isa.STL, isa.BR, isa.RET, isa.PRINTI, isa.PRINTF:
		in.A = m(in.A)
	case isa.ST:
		in.A = m(in.A)
		in.B = m(in.B)
	default: // binary ALU/FP
		in.A = m(in.A)
		in.B = m(in.B)
	}
}

// tidy removes unreachable blocks, threads trivial jump chains, and drops
// NOPs, keeping block indices dense.
func tidy(f *isa.Func) {
	// Drop NOPs first.
	for _, b := range f.Blocks {
		out := b.Instrs[:0]
		for _, in := range b.Instrs {
			if in.Op != isa.NOP {
				out = append(out, in)
			}
		}
		b.Instrs = out
	}

	// Thread jumps: a block consisting solely of JMP forwards its edges.
	final := make([]int, len(f.Blocks))
	for i := range final {
		t, hops := i, 0
		for hops < len(f.Blocks) {
			b := f.Blocks[t]
			if len(b.Instrs) == 1 && b.Instrs[0].Op == isa.JMP && b.Succs[0] != t {
				t = b.Succs[0]
				hops++
				continue
			}
			break
		}
		final[i] = t
	}
	for _, b := range f.Blocks {
		for i, s := range b.Succs {
			b.Succs[i] = final[s]
		}
	}

	// Remove unreachable blocks and remap indices.
	entry := final[0]
	reach := make([]bool, len(f.Blocks))
	stack := []int{entry}
	reach[entry] = true
	for len(stack) > 0 {
		b := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, s := range f.Blocks[b].Succs {
			if !reach[s] {
				reach[s] = true
				stack = append(stack, s)
			}
		}
	}
	remap := make([]int, len(f.Blocks))
	var kept []*isa.Block
	// The entry block must come first.
	order := make([]int, 0, len(f.Blocks))
	order = append(order, entry)
	for i := range f.Blocks {
		if i != entry && reach[i] {
			order = append(order, i)
		}
	}
	for newIdx, oldIdx := range order {
		remap[oldIdx] = newIdx
		kept = append(kept, f.Blocks[oldIdx])
	}
	for _, b := range kept {
		for i, s := range b.Succs {
			b.Succs[i] = remap[s]
		}
	}
	f.Blocks = kept
}

// newVReg mints a fresh virtual register on the function.
func newVReg(f *isa.Func) isa.RegID {
	r := isa.RegID(f.NumRegs)
	f.NumRegs++
	return r
}

// mem2reg promotes scalar stack slots to virtual registers (the essential
// O1 transformation: it converts gcc -O0's load/store-everything code into
// register code). Parameter slots are reloaded once at function entry; the
// outgoing-argument area is left untouched because CALL reads it.
func mem2reg(f *isa.Func) {
	slotReg := make(map[int64]isa.RegID)
	regFor := func(slot int64) isa.RegID {
		r, ok := slotReg[slot]
		if !ok {
			r = newVReg(f)
			slotReg[slot] = r
		}
		return r
	}
	for _, b := range f.Blocks {
		for i := range b.Instrs {
			in := &b.Instrs[i]
			switch in.Op {
			case isa.LDL:
				if f.PromotableSlot(int(in.Imm)) {
					*in = isa.Instr{Op: isa.MOV, Dst: in.Dst, A: regFor(in.Imm)}
				}
			case isa.STL:
				if f.PromotableSlot(int(in.Imm)) {
					*in = isa.Instr{Op: isa.MOV, Dst: regFor(in.Imm), A: in.A}
				}
			}
		}
	}
	// Parameters arrive in frame slots (the VM's calling convention copies
	// them there); load each promoted parameter once at entry.
	var loads []isa.Instr
	for p := 0; p < f.NumParams; p++ {
		if r, ok := slotReg[int64(p)]; ok {
			loads = append(loads, isa.Instr{Op: isa.LDL, Dst: r, Imm: int64(p)})
		}
	}
	if len(loads) > 0 {
		entry := f.Blocks[0]
		entry.Instrs = append(loads, entry.Instrs...)
	}
}

// cval is a lattice value for local constant tracking.
type cval struct {
	known   bool
	isFloat bool
	i       int64
	f       float64
}

// constFold evaluates operations whose operands are block-locally known
// constants, rewriting them to MOVI/MOVF.
func constFold(f *isa.Func) {
	known := make(map[isa.RegID]cval)
	for _, b := range f.Blocks {
		clear(known)
		for i := range b.Instrs {
			in := &b.Instrs[i]
			_, _, def := ir.UseDef2(in)
			get := func(r isa.RegID) (cval, bool) {
				v, ok := known[r]
				return v, ok && v.known
			}
			folded := false
			switch {
			case in.Op == isa.MOVI:
				known[in.Dst] = cval{known: true, i: in.Imm}
				continue
			case in.Op == isa.MOVF:
				known[in.Dst] = cval{known: true, isFloat: true, f: in.F}
				continue
			case in.Op == isa.MOV:
				if v, ok := get(in.A); ok {
					if v.isFloat {
						*in = isa.Instr{Op: isa.MOVF, Dst: in.Dst, F: v.f}
					} else {
						*in = isa.Instr{Op: isa.MOVI, Dst: in.Dst, Imm: v.i}
					}
					known[in.Dst] = v
					folded = true
				}
			case isa.IsIntBin(in.Op):
				va, oka := get(in.A)
				vb, okb := get(in.B)
				if oka && okb && !va.isFloat && !vb.isFloat {
					if r, ok := isa.EvalIntBin(in.Op, va.i, vb.i); ok {
						*in = isa.Instr{Op: isa.MOVI, Dst: in.Dst, Imm: r}
						known[in.Dst] = cval{known: true, i: r}
						folded = true
					}
				}
			case in.Op == isa.NEG || in.Op == isa.NOTB:
				if v, ok := get(in.A); ok && !v.isFloat {
					r := isa.EvalIntUn(in.Op, v.i)
					*in = isa.Instr{Op: isa.MOVI, Dst: in.Dst, Imm: r}
					known[in.Dst] = cval{known: true, i: r}
					folded = true
				}
			case isa.IsFloatBin(in.Op):
				va, oka := get(in.A)
				vb, okb := get(in.B)
				if oka && okb && va.isFloat && vb.isFloat {
					r := isa.EvalFloatBin(in.Op, va.f, vb.f)
					*in = isa.Instr{Op: isa.MOVF, Dst: in.Dst, F: r}
					known[in.Dst] = cval{known: true, isFloat: true, f: r}
					folded = true
				}
			case isa.IsFloatCmp(in.Op):
				va, oka := get(in.A)
				vb, okb := get(in.B)
				if oka && okb && va.isFloat && vb.isFloat {
					r := isa.EvalFloatCmp(in.Op, va.f, vb.f)
					*in = isa.Instr{Op: isa.MOVI, Dst: in.Dst, Imm: r}
					known[in.Dst] = cval{known: true, i: r}
					folded = true
				}
			case isa.IsFloatUn(in.Op):
				if v, ok := get(in.A); ok && v.isFloat {
					r := isa.EvalFloatUn(in.Op, v.f)
					*in = isa.Instr{Op: isa.MOVF, Dst: in.Dst, F: r}
					known[in.Dst] = cval{known: true, isFloat: true, f: r}
					folded = true
				}
			case in.Op == isa.ITOF:
				if v, ok := get(in.A); ok && !v.isFloat {
					r := float64(v.i)
					*in = isa.Instr{Op: isa.MOVF, Dst: in.Dst, F: r}
					known[in.Dst] = cval{known: true, isFloat: true, f: r}
					folded = true
				}
			case in.Op == isa.FTOI:
				if v, ok := get(in.A); ok && v.isFloat {
					r := isa.F2I(v.f)
					*in = isa.Instr{Op: isa.MOVI, Dst: in.Dst, Imm: r}
					known[in.Dst] = cval{known: true, i: r}
					folded = true
				}
			}
			if !folded && def != isa.NoReg {
				delete(known, def)
			}
		}
	}
}

// copyProp forwards MOV sources to uses within each block and turns
// self-moves into NOPs.
func copyProp(f *isa.Func) {
	// copyOf[r] is the register r is a copy of, or NoReg. copiesOf[s]
	// lists the registers made copies of s; a register since redefined
	// may still be listed.
	copyOf := make([]isa.RegID, f.NumRegs)
	for r := range copyOf {
		copyOf[r] = isa.NoReg
	}
	copiesOf := make([][]isa.RegID, f.NumRegs)
	var srcs []isa.RegID // registers with a nonempty copiesOf list
	resolve := func(r isa.RegID) isa.RegID {
		for copyOf[r] != isa.NoReg {
			r = copyOf[r]
		}
		return r
	}
	for _, b := range f.Blocks {
		for _, s := range srcs {
			for _, r := range copiesOf[s] {
				copyOf[r] = isa.NoReg
			}
			copiesOf[s] = copiesOf[s][:0]
		}
		srcs = srcs[:0]
		for i := range b.Instrs {
			in := &b.Instrs[i]
			mapUses(in, resolve)
			_, _, def := ir.UseDef2(in)
			if def != isa.NoReg {
				copyOf[def] = isa.NoReg
				for _, r := range copiesOf[def] {
					if copyOf[r] == def {
						copyOf[r] = isa.NoReg
					}
				}
				copiesOf[def] = copiesOf[def][:0]
			}
			if in.Op == isa.MOV {
				if in.Dst == in.A {
					in.Op = isa.NOP
				} else {
					copyOf[in.Dst] = in.A
					if len(copiesOf[in.A]) == 0 {
						srcs = append(srcs, in.A)
					}
					copiesOf[in.A] = append(copiesOf[in.A], in.Dst)
				}
			}
		}
	}
}

// exprKey identifies an available expression for local CSE. Loads carry the
// memory epoch at which they were taken so that intervening stores
// invalidate them.
type exprKey struct {
	op       isa.Opcode
	imm      int64
	fbits    uint64
	memEpoch int
	sym      int32
	a, b     isa.RegID
}

// localCSE eliminates repeated computation of identical pure expressions
// within each block (including redundant loads, which is much of what gcc's
// GCSE does to -O2 code shapes).
func localCSE(f *isa.Func) {
	t := newCSETable(f.NumRegs)
	for _, b := range f.Blocks {
		t.reset()
		epochG, epochL := 0, 0
		for i := range b.Instrs {
			in := &b.Instrs[i]
			switch in.Op {
			case isa.ST, isa.CALL, isa.PRINTI, isa.PRINTF:
				epochG++
				epochL++ // conservative: treat calls/IO as full barriers
				if in.Op != isa.CALL {
					continue
				}
			case isa.STL:
				epochL++
				continue
			}
			_, _, def := ir.UseDef2(in)
			if def == isa.NoReg || isa.HasSideEffects(in.Op) && in.Op != isa.CALL {
				continue
			}
			if in.Op == isa.CALL || in.Op == isa.NOP {
				// calls are never CSE'd, but their def invalidates
				t.invalidate(in.Dst)
				continue
			}
			key := exprKey{op: in.Op, a: in.A, b: in.B, imm: in.Imm,
				fbits: math.Float64bits(in.F), sym: in.Sym}
			switch in.Op {
			case isa.LD:
				key.memEpoch = epochG
			case isa.LDL:
				key.memEpoch = epochL
			}
			if prev, ok := t.avail[key]; ok && prev != def {
				*in = isa.Instr{Op: isa.MOV, Dst: def, A: prev}
				t.invalidate(def)
				t.put(exprKey{op: isa.MOV, a: prev}, def)
				continue
			}
			t.invalidate(def)
			t.put(key, def)
		}
	}
}

// cseTable is localCSE's table of available expressions, indexed by the
// registers each entry mentions so that a def invalidates only the
// entries that name it.
type cseTable struct {
	avail map[exprKey]isa.RegID
	// keys holds every key put since the last reset, and mentions one
	// linked list per register of the keys whose entry mentioned it when
	// it was put; an entry since deleted or replaced may still be listed.
	// head[r] is the first node of r's list, or -1.
	keys     []exprKey
	head     []int32
	mentions []cseMention
	touched  []isa.RegID // registers with a nonempty list
}

type cseMention struct {
	key, next int32
}

func newCSETable(numRegs int) *cseTable {
	t := &cseTable{avail: make(map[exprKey]isa.RegID), head: make([]int32, numRegs)}
	for r := range t.head {
		t.head[r] = -1
	}
	return t
}

// put makes key available in register r.
func (t *cseTable) put(key exprKey, r isa.RegID) {
	t.avail[key] = r
	t.keys = append(t.keys, key)
	for _, m := range [3]isa.RegID{r, key.a, key.b} {
		if m == isa.NoReg {
			continue
		}
		if t.head[m] == -1 {
			t.touched = append(t.touched, m)
		}
		t.mentions = append(t.mentions, cseMention{int32(len(t.keys) - 1), t.head[m]})
		t.head[m] = int32(len(t.mentions) - 1)
	}
}

// invalidate drops every available expression that mentions reg r.
func (t *cseTable) invalidate(r isa.RegID) {
	if r == isa.NoReg {
		return
	}
	for i := t.head[r]; i != -1; i = t.mentions[i].next {
		k := t.keys[t.mentions[i].key]
		if v, ok := t.avail[k]; ok && (v == r || k.a == r || k.b == r) {
			delete(t.avail, k)
		}
	}
	t.head[r] = -1
}

// reset empties the table for the next block.
func (t *cseTable) reset() {
	clear(t.avail)
	for _, r := range t.touched {
		t.head[r] = -1
	}
	t.keys, t.mentions, t.touched = t.keys[:0], t.mentions[:0], t.touched[:0]
}

// strengthReduce rewrites expensive operations whose operand is a
// block-locally known constant: multiplies by powers of two become shifts,
// and algebraic identities collapse to moves.
func strengthReduce(f *isa.Func) {
	knownI := make(map[isa.RegID]int64)
	for _, b := range f.Blocks {
		clear(knownI)
		out := make([]isa.Instr, 0, len(b.Instrs))
		for _, in := range b.Instrs {
			switch in.Op {
			case isa.MOVI:
				out = append(out, in)
				knownI[in.Dst] = in.Imm
				continue
			case isa.MUL:
				ca, oka := knownI[in.A]
				cb, okb := knownI[in.B]
				other, c, okc := in.B, ca, oka
				if okb {
					other, c, okc = in.A, cb, true
				}
				if okc {
					switch {
					case c == 0:
						out = append(out, isa.Instr{Op: isa.MOVI, Dst: in.Dst, Imm: 0})
						knownI[in.Dst] = 0
						continue
					case c == 1:
						out = append(out, isa.Instr{Op: isa.MOV, Dst: in.Dst, A: other})
						delete(knownI, in.Dst)
						continue
					case c > 1 && c&(c-1) == 0:
						sh := newVReg(f)
						shift := int64(bits.TrailingZeros64(uint64(c)))
						out = append(out,
							isa.Instr{Op: isa.MOVI, Dst: sh, Imm: shift},
							isa.Instr{Op: isa.SHL, Dst: in.Dst, A: other, B: sh})
						knownI[sh] = shift
						delete(knownI, in.Dst)
						continue
					}
				}
			case isa.ADD:
				if c, ok := knownI[in.B]; ok && c == 0 {
					out = append(out, isa.Instr{Op: isa.MOV, Dst: in.Dst, A: in.A})
					delete(knownI, in.Dst)
					continue
				}
				if c, ok := knownI[in.A]; ok && c == 0 {
					out = append(out, isa.Instr{Op: isa.MOV, Dst: in.Dst, A: in.B})
					delete(knownI, in.Dst)
					continue
				}
			case isa.SUB:
				if c, ok := knownI[in.B]; ok && c == 0 {
					out = append(out, isa.Instr{Op: isa.MOV, Dst: in.Dst, A: in.A})
					delete(knownI, in.Dst)
					continue
				}
				if in.A == in.B {
					out = append(out, isa.Instr{Op: isa.MOVI, Dst: in.Dst, Imm: 0})
					knownI[in.Dst] = 0
					continue
				}
			case isa.XOR:
				if in.A == in.B {
					out = append(out, isa.Instr{Op: isa.MOVI, Dst: in.Dst, Imm: 0})
					knownI[in.Dst] = 0
					continue
				}
			}
			_, _, def := ir.UseDef2(&in)
			if def != isa.NoReg {
				delete(knownI, def)
			}
			out = append(out, in)
		}
		b.Instrs = out
	}
}

// deadCodeElim removes pure instructions whose results are never used,
// using global liveness.
func deadCodeElim(f *isa.Func) {
	// live[r] == gen: r is live at the current point of the block being
	// walked; each block walk takes a new gen, which empties the set.
	live := make([]uint32, f.NumRegs)
	gen := uint32(0)
	var keep []bool
	for {
		lv := liveness(f)
		roundChanged := false
		for bi, b := range f.Blocks {
			gen++
			lv.forEach(lv.out(bi), func(r isa.RegID) { live[r] = gen })
			// Walk backward, marking removals.
			keep = slices.Grow(keep[:0], len(b.Instrs))[:len(b.Instrs)]
			for i := len(b.Instrs) - 1; i >= 0; i-- {
				in := &b.Instrs[i]
				u1, u2, def := ir.UseDef2(in)
				keep[i] = false
				if in.Op == isa.NOP {
					roundChanged = true
					continue
				}
				if def != isa.NoReg && live[def] != gen && !isa.HasSideEffects(in.Op) {
					roundChanged = true
					continue // drop
				}
				keep[i] = true
				if def != isa.NoReg {
					live[def] = 0
				}
				for _, u := range [2]isa.RegID{u1, u2} {
					if u != isa.NoReg {
						live[u] = gen
					}
				}
			}
			if roundChanged {
				out := b.Instrs[:0]
				for i, in := range b.Instrs {
					if keep[i] {
						out = append(out, in)
					}
				}
				b.Instrs = out
			}
		}
		if !roundChanged {
			return
		}
	}
}

// licm hoists loop-invariant pure instructions into freshly created
// preheaders, deepest loops first. Memory loads are hoisted only from
// blocks that execute on every iteration (they dominate all latches) and
// only when no store or call in the loop could disturb them; trapping
// operations (DIV/MOD) and calls are never hoisted. A loop headed by the
// function's entry block is left alone: no edge enters it, so a preheader
// would never run.
//
// The CFG analyses (predecessors, dominators, loop forest) are built once
// and updated in place as each preheader is added. Def counts are taken
// once: hoisting moves instructions but never adds or removes a def.
func licm(f *isa.Func) {
	succs := ir.Succs(f)
	forest := ir.FindLoops(succs, 0)
	h := &hoister{f: f, loops: forest.Loops, preds: ir.Preds(succs), idom: forest.Idom,
		defs: make([]int32, f.NumRegs), defInLoop: make([]bool, f.NumRegs),
		hoisted: make([]bool, f.NumRegs), inLoop: make([]bool, len(f.Blocks))}
	for _, b := range f.Blocks {
		for i := range b.Instrs {
			if _, _, def := ir.UseDef2(&b.Instrs[i]); def != isa.NoReg {
				h.defs[def]++
			}
		}
	}
	processed := make([]bool, len(h.loops))
	for {
		// Pick the deepest unprocessed loop.
		pick := -1
		for i := range h.loops {
			if processed[i] {
				continue
			}
			if pick == -1 || h.loops[i].Depth > h.loops[pick].Depth {
				pick = i
			}
		}
		if pick == -1 {
			return
		}
		processed[pick] = true
		if h.loops[pick].Header != 0 {
			h.hoist(&h.loops[pick])
		}
	}
}

// hoister is licm's state for one function: the CFG analyses, and
// scratch slices indexed by register or by block that are cleared after
// each loop, touching only the loop's own entries.
type hoister struct {
	f         *isa.Func
	loops     []ir.Loop
	preds     [][]int
	idom      []int
	defs      []int32 // function-wide def count per register
	defInLoop []bool  // by register
	hoisted   []bool  // by register
	inLoop    []bool  // by block
}

// hoist moves the invariant instructions of one loop into a new preheader.
func (h *hoister) hoist(loop *ir.Loop) {
	f := h.f
	// In-loop defs, stores per global symbol and frame slot, and calls.
	var loopDefs []isa.RegID
	storedSyms := make(map[int32]bool)
	storedSlots := make(map[int64]bool)
	callInLoop := false
	size := 0
	for _, bi := range loop.Blocks {
		h.inLoop[bi] = true
		b := f.Blocks[bi]
		for i := range b.Instrs {
			in := &b.Instrs[i]
			if _, _, def := ir.UseDef2(in); def != isa.NoReg && !h.defInLoop[def] {
				h.defInLoop[def] = true
				loopDefs = append(loopDefs, def)
			}
			switch in.Op {
			case isa.ST:
				storedSyms[in.Sym] = true
			case isa.STL:
				storedSlots[in.Imm] = true
			case isa.CALL:
				callInLoop = true
			}
		}
		size += len(b.Instrs)
	}

	var latches []int
	for _, p := range h.preds[loop.Header] {
		if h.inLoop[p] {
			latches = append(latches, p)
		}
	}
	dominatesAllLatches := func(b int) bool {
		for _, l := range latches {
			if !ir.Dominates(h.idom, b, l) {
				return false
			}
		}
		return true
	}

	removed := make([]bool, size) // by instruction of the loop, in block order
	var moved []isa.Instr
	invariantUse := func(r isa.RegID) bool {
		return r == isa.NoReg || !h.defInLoop[r] || h.hoisted[r]
	}
	for changedRound := true; changedRound; {
		changedRound = false
		off := 0
		for _, bi := range loop.Blocks {
			b := f.Blocks[bi]
			for i := range b.Instrs {
				in := &b.Instrs[i]
				if removed[off+i] {
					continue
				}
				u1, u2, def := ir.UseDef2(in)
				if def == isa.NoReg || h.hoisted[def] || isa.HasSideEffects(in.Op) {
					continue
				}
				if h.defs[def] != 1 {
					continue
				}
				switch in.Op {
				case isa.DIV, isa.MOD, isa.CALL, isa.NOP:
					continue // may trap / not pure
				case isa.LD:
					if callInLoop || storedSyms[in.Sym] || !dominatesAllLatches(bi) {
						continue
					}
				case isa.LDL:
					if storedSlots[in.Imm] || !dominatesAllLatches(bi) {
						continue
					}
				}
				if !invariantUse(u1) || !invariantUse(u2) {
					continue
				}
				moved = append(moved, *in)
				removed[off+i] = true
				h.hoisted[def] = true
				changedRound = true
			}
			off += len(b.Instrs)
		}
	}
	if len(moved) > 0 {
		h.addPreheader(loop, moved, latches)
		off := 0
		for _, bi := range loop.Blocks {
			b := f.Blocks[bi]
			out := b.Instrs[:0]
			for i := range b.Instrs {
				if !removed[off+i] {
					out = append(out, b.Instrs[i])
				}
			}
			off += len(b.Instrs)
			b.Instrs = out
		}
	}

	for _, bi := range loop.Blocks {
		h.inLoop[bi] = false
	}
	for _, r := range loopDefs {
		h.defInLoop[r], h.hoisted[r] = false, false
	}
}

// addPreheader appends a preheader holding instrs to loop, redirects the
// loop's entry edges to it, and updates the analyses: the header now has
// the latches and the preheader as predecessors, and the preheader takes
// the header's place in the dominator tree, directly above it. The
// preheader joins every loop enclosing this one, which are its ancestors;
// no loop's header, nesting or depth changes.
func (h *hoister) addPreheader(loop *ir.Loop, instrs []isa.Instr, latches []int) {
	f, hd := h.f, loop.Header
	pre := len(f.Blocks)
	f.Blocks = append(f.Blocks, &isa.Block{Instrs: append(instrs, isa.Instr{Op: isa.JMP}), Succs: []int{hd}})
	var entries []int
	for _, p := range h.preds[hd] {
		if h.inLoop[p] {
			continue
		}
		entries = append(entries, p)
		for si, s := range f.Blocks[p].Succs {
			if s == hd {
				f.Blocks[p].Succs[si] = pre
			}
		}
	}
	h.preds[hd] = append(latches, pre)
	h.preds = append(h.preds, entries)
	h.idom = append(h.idom, h.idom[hd])
	h.idom[hd] = pre
	for a := loop.Parent; a != -1; a = h.loops[a].Parent {
		h.loops[a].Blocks = append(h.loops[a].Blocks, pre)
	}
	h.inLoop = append(h.inLoop, false)
}

// inlineSmallFuncs splices the bodies of small leaf functions into their
// callers (the O3 pass). Arguments already live in the caller's
// outgoing-argument slots, so parameter accesses in the inlined body are
// simply remapped onto those slots.
func inlineSmallFuncs(prog *isa.Program) {
	const (
		maxCalleeSize = 28
		maxPerCaller  = 8
	)
	size := func(f *isa.Func) int {
		n := 0
		for _, b := range f.Blocks {
			n += len(b.Instrs)
		}
		return n
	}
	leaf := func(f *isa.Func) bool {
		for _, b := range f.Blocks {
			for i := range b.Instrs {
				if b.Instrs[i].Op == isa.CALL {
					return false
				}
			}
		}
		return true
	}
	for _, caller := range prog.Funcs {
		budget := maxPerCaller
		for budget > 0 {
			bi, ii := findInlinableCall(prog, caller, size, leaf, maxCalleeSize)
			if bi < 0 {
				break
			}
			callee := prog.Funcs[caller.Blocks[bi].Instrs[ii].Sym]
			inlineCall(caller, bi, ii, callee)
			budget--
		}
	}
}

func findInlinableCall(prog *isa.Program, caller *isa.Func,
	size func(*isa.Func) int, leaf func(*isa.Func) bool, maxSize int) (int, int) {
	for bi, b := range caller.Blocks {
		for ii := range b.Instrs {
			in := &b.Instrs[ii]
			if in.Op != isa.CALL {
				continue
			}
			callee := prog.Funcs[in.Sym]
			if callee == caller || !leaf(callee) || size(callee) > maxSize {
				continue
			}
			return bi, ii
		}
	}
	return -1, -1
}

func inlineCall(caller *isa.Func, bi, ii int, callee *isa.Func) {
	call := caller.Blocks[bi].Instrs[ii]
	argBase := call.Imm
	regOff := isa.RegID(caller.NumRegs)
	caller.NumRegs += callee.NumRegs
	localOff := int64(caller.NumSlots) // callee's non-param locals land here
	caller.NumSlots += callee.NumSlots - callee.NumParams

	cloneBase := len(caller.Blocks)
	contIdx := cloneBase + len(callee.Blocks)

	mapReg := func(r isa.RegID) isa.RegID {
		if r == isa.NoReg {
			return r
		}
		return r + regOff
	}
	for _, cb := range callee.Blocks {
		nb := &isa.Block{}
		for _, cin := range cb.Instrs {
			ni := cin
			ni.Dst = mapReg(ni.Dst)
			ni.A = mapReg(ni.A)
			ni.B = mapReg(ni.B)
			switch ni.Op {
			case isa.LDL, isa.STL:
				if int(ni.Imm) < callee.NumParams {
					ni.Imm = argBase + ni.Imm
				} else {
					ni.Imm = localOff + (ni.Imm - int64(callee.NumParams))
				}
			case isa.RET:
				if call.Dst != isa.NoReg && ni.A != isa.NoReg {
					nb.Instrs = append(nb.Instrs, isa.Instr{Op: isa.MOV, Dst: call.Dst, A: ni.A})
				}
				nb.Instrs = append(nb.Instrs, isa.Instr{Op: isa.JMP})
				nb.Succs = []int{contIdx}
				continue
			}
			nb.Instrs = append(nb.Instrs, ni)
		}
		if nb.Succs == nil {
			nb.Succs = make([]int, len(cb.Succs))
			for i, s := range cb.Succs {
				nb.Succs[i] = s + cloneBase
			}
		}
		caller.Blocks = append(caller.Blocks, nb)
	}

	// Continuation: the remainder of the split block.
	b := caller.Blocks[bi]
	cont := &isa.Block{
		Instrs: append([]isa.Instr(nil), b.Instrs[ii+1:]...),
		Succs:  b.Succs,
	}
	caller.Blocks = append(caller.Blocks, cont)

	b.Instrs = append(b.Instrs[:ii], isa.Instr{Op: isa.JMP})
	b.Succs = []int{cloneBase}
}
