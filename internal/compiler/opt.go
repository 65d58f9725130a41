package compiler

import (
	"math"
	"math/bits"

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
	copies := make(map[isa.RegID]isa.RegID)
	for _, b := range f.Blocks {
		clear(copies)
		for i := range b.Instrs {
			in := &b.Instrs[i]
			mapUses(in, func(r isa.RegID) isa.RegID {
				for {
					s, ok := copies[r]
					if !ok {
						return r
					}
					r = s
				}
			})
			_, _, def := ir.UseDef2(in)
			if def != isa.NoReg {
				delete(copies, def)
				for k, v := range copies {
					if v == def {
						delete(copies, k)
					}
				}
			}
			if in.Op == isa.MOV {
				if in.Dst == in.A {
					in.Op = isa.NOP
				} else {
					copies[in.Dst] = in.A
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
	a, b     isa.RegID
	imm      int64
	fbits    uint64
	sym      int32
	memEpoch int
}

// localCSE eliminates repeated computation of identical pure expressions
// within each block (including redundant loads, which is much of what gcc's
// GCSE does to -O2 code shapes).
func localCSE(f *isa.Func) {
	avail := make(map[exprKey]isa.RegID)
	for _, b := range f.Blocks {
		clear(avail)
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
				invalidate(avail, in.Dst)
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
			if prev, ok := avail[key]; ok && prev != def {
				*in = isa.Instr{Op: isa.MOV, Dst: def, A: prev}
				invalidate(avail, def)
				avail[exprKey{op: isa.MOV, a: prev}] = def
				continue
			}
			invalidate(avail, def)
			avail[key] = def
		}
	}
}

// invalidate drops every available expression that mentions reg r.
func invalidate(avail map[exprKey]isa.RegID, r isa.RegID) {
	if r == isa.NoReg {
		return
	}
	for k, v := range avail {
		if v == r || k.a == r || k.b == r {
			delete(avail, k)
		}
	}
}

// strengthReduce rewrites expensive operations whose operand is a
// block-locally known constant: multiplies by powers of two become shifts,
// and algebraic identities collapse to moves.
func strengthReduce(f *isa.Func) {
	for _, b := range f.Blocks {
		knownI := make(map[isa.RegID]int64)
		var out []isa.Instr
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
// using global liveness. Returns true when anything was removed.
func deadCodeElim(f *isa.Func) bool {
	changed := false
	for {
		_, liveOut := liveness(f)
		roundChanged := false
		for bi, b := range f.Blocks {
			live := liveOut[bi].clone()
			// Walk backward, marking removals.
			keep := make([]bool, len(b.Instrs))
			for i := len(b.Instrs) - 1; i >= 0; i-- {
				in := &b.Instrs[i]
				u1, u2, def := ir.UseDef2(in)
				if in.Op == isa.NOP {
					roundChanged = true
					continue
				}
				if def != isa.NoReg && !live.has(def) && !isa.HasSideEffects(in.Op) {
					roundChanged = true
					continue // drop
				}
				keep[i] = true
				if def != isa.NoReg {
					live.clear(def)
				}
				for _, u := range [2]isa.RegID{u1, u2} {
					if u != isa.NoReg {
						live.set(u)
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
			return changed
		}
		changed = true
	}
}

// licm hoists loop-invariant pure instructions into freshly created
// preheaders. Memory loads are hoisted only from blocks that execute on
// every iteration (they dominate all latches) and only when no store or
// call in the loop could disturb them; trapping operations (DIV/MOD) and
// calls are never hoisted.
func licm(f *isa.Func) {
	processed := make(map[int]bool) // by header block's first-instr identity: use header index after stabilization
	for {
		succs := ir.Succs(f)
		forest := ir.FindLoops(succs, 0)
		// Pick the deepest unprocessed loop.
		pick := -1
		for i := range forest.Loops {
			if processed[forest.Loops[i].Header] {
				continue
			}
			if pick == -1 || forest.Loops[i].Depth > forest.Loops[pick].Depth {
				pick = i
			}
		}
		if pick == -1 {
			return
		}
		loop := forest.Loops[pick]
		processed[loop.Header] = true
		hoistLoop(f, succs, &loop)
	}
}

func hoistLoop(f *isa.Func, succs [][]int, loop *ir.Loop) {
	inLoop := make(map[int]bool)
	for _, b := range loop.Blocks {
		inLoop[b] = true
	}
	// Global def counts and in-loop def counts per register; in-loop
	// stores per global symbol and frame slot; calls in loop.
	defsGlobal := make(map[isa.RegID]int)
	defsInLoop := make(map[isa.RegID]int)
	storedSyms := make(map[int32]bool)
	storedSlots := make(map[int64]bool)
	callInLoop := false
	for bi, b := range f.Blocks {
		for i := range b.Instrs {
			in := &b.Instrs[i]
			_, _, def := ir.UseDef2(in)
			if def != isa.NoReg {
				defsGlobal[def]++
				if inLoop[bi] {
					defsInLoop[def]++
				}
			}
			if inLoop[bi] {
				switch in.Op {
				case isa.ST:
					storedSyms[in.Sym] = true
				case isa.STL:
					storedSlots[in.Imm] = true
				case isa.CALL:
					callInLoop = true
				}
			}
		}
	}

	idom := ir.Dominators(succs, 0)
	preds := ir.Preds(succs)
	var latches []int
	for _, p := range preds[loop.Header] {
		if inLoop[p] {
			latches = append(latches, p)
		}
	}
	dominatesAllLatches := func(b int) bool {
		for _, l := range latches {
			if !ir.Dominates(idom, b, l) {
				return false
			}
		}
		return true
	}

	hoisted := make(map[isa.RegID]bool)
	var moved []isa.Instr
	removed := make(map[*isa.Instr]bool)

	invariantUse := func(r isa.RegID) bool {
		return r == isa.NoReg || defsInLoop[r] == 0 || hoisted[r]
	}
	for changedRound := true; changedRound; {
		changedRound = false
		for _, bi := range loop.Blocks {
			b := f.Blocks[bi]
			for i := range b.Instrs {
				in := &b.Instrs[i]
				if removed[in] {
					continue
				}
				u1, u2, def := ir.UseDef2(in)
				if def == isa.NoReg || hoisted[def] || isa.HasSideEffects(in.Op) {
					continue
				}
				if defsGlobal[def] != 1 {
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
				removed[in] = true
				hoisted[def] = true
				changedRound = true
			}
		}
	}
	if len(moved) == 0 {
		return
	}

	// Create the preheader, redirect entry edges, and delete moved instrs.
	pre := &isa.Block{Instrs: append(moved, isa.Instr{Op: isa.JMP}), Succs: []int{loop.Header}}
	f.Blocks = append(f.Blocks, pre)
	preIdx := len(f.Blocks) - 1
	for pi, b := range f.Blocks {
		if pi == preIdx || inLoop[pi] {
			continue
		}
		for si, s := range b.Succs {
			if s == loop.Header {
				b.Succs[si] = preIdx
			}
		}
	}
	for _, bi := range loop.Blocks {
		b := f.Blocks[bi]
		out := b.Instrs[:0]
		for i := range b.Instrs {
			if !removed[&b.Instrs[i]] {
				out = append(out, b.Instrs[i])
			}
		}
		b.Instrs = out
	}
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
