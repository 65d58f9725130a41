package core

import (
	"repro/internal/hlc"
	"repro/internal/isa"
	"repro/internal/sfgl"
)

// This file implements Section III.B.4 / Table II: scanning a profiled
// basic block's instruction types and emitting C statements whose compiled
// form reproduces those sequences. The recognizer groups a maximal
// load/const/arith run ending in a store into one assignment statement —
// Table II's load-store, load-arith-store, load-load-arith-store,
// three-load, and store rows are exactly the small instances of this rule,
// and load-cmp-br sequences are claimed by branch modeling. Instructions no
// group covers are compensated afterwards, as the paper prescribes.

// tkind classifies instruction types for pattern matching.
type tkind int

const (
	kSkip tkind = iota
	kLoad
	kStore
	kArithI
	kArithF
	kUnaryF
	kConst
	kCmp
	kBr
)

type tok struct {
	kind   tkind
	op     isa.Opcode
	stream *sfgl.Stream // per-site stride stream (nil: always-hit)
}

func kindOf(in sfgl.InstrInfo) tkind {
	switch in.Op {
	case isa.LD, isa.LDL:
		return kLoad
	case isa.ST, isa.STL:
		return kStore
	case isa.ADD, isa.SUB, isa.MUL, isa.DIV, isa.MOD, isa.AND, isa.OR,
		isa.XOR, isa.SHL, isa.SHR, isa.NEG, isa.NOTB:
		return kArithI
	case isa.FADD, isa.FSUB, isa.FMUL, isa.FDIV, isa.FNEG, isa.ITOF, isa.FTOI:
		return kArithF
	case isa.FSQRT, isa.FSIN, isa.FCOS, isa.FABS:
		return kUnaryF
	case isa.MOVI, isa.MOVF:
		return kConst
	case isa.CMPEQ, isa.CMPNE, isa.CMPLT, isa.CMPLE, isa.CMPGT, isa.CMPGE,
		isa.FCMPEQ, isa.FCMPNE, isa.FCMPLT, isa.FCMPLE, isa.FCMPGT, isa.FCMPGE:
		return kCmp
	case isa.BR:
		return kBr
	}
	return kSkip
}

// group is one recognized statement: loads feeding a chain of operations
// into a store.
type group struct {
	loads   []tok
	ops     []isa.Opcode
	store   tok
	isFloat bool
	nTokens int // tokens consumed, for coverage accounting
}

// maxGroupLen bounds how many instruction tokens one statement absorbs.
// Real O0 blocks routinely carry 14+ instruction runs between stores
// (crc32's table lookup is one), so the bound sits well above Table II's
// largest listed pattern.
const maxGroupLen = 24

// translate emits C statements for one basic-block occurrence expected to
// execute w times.
func (gen *generator) translate(n *sfgl.Node, w float64) []hlc.Stmt {
	seq := make([]tok, 0, len(n.Instrs))
	for _, in := range n.Instrs {
		gen.target[in.Op.ClassOf()] += w
		k := kindOf(in)
		if k == kSkip {
			continue
		}
		seq = append(seq, tok{kind: k, op: in.Op, stream: in.Stream})
	}
	gen.totalInstrs += w * float64(len(seq))

	kindAt := func(i int) tkind {
		if i >= len(seq) {
			return kSkip
		}
		return seq[i].kind
	}

	var out []hlc.Stmt
	var leftoverI, leftoverF []isa.Opcode
	var leftoverLoads int

	// branchHeaderLen reports how many tokens starting at i form a branch
	// condition — a short run of loads, constants, and integer arithmetic
	// feeding a compare and a conditional branch, the generalized
	// "load-cmp-br" of Table II (`x & MASK == 0`-style conditions compile
	// to load-const-arith-const-cmp-br at O0). Zero means no branch
	// pattern starts here.
	branchHeaderLen := func(i int) int {
		j := i
		for j-i < 6 {
			switch kindAt(j) {
			case kLoad, kConst, kArithI:
				j++
				continue
			}
			break
		}
		if kindAt(j) == kCmp && kindAt(j+1) == kBr {
			return j + 2 - i
		}
		if kindAt(j) == kBr && j > i {
			return j + 1 - i // direct test of a loaded value
		}
		return 0
	}

	i := 0
	for i < len(seq) {
		if n := branchHeaderLen(i); n > 0 {
			gen.consumedInstrs += float64(n) * w
			i += n
			continue
		}
		if kindAt(i) == kBr {
			gen.consumedInstrs += w
			i++
			continue
		}

		// Maximal-munch group collection.
		g := group{}
		j := i
	scan:
		for j < len(seq) && j-i < maxGroupLen {
			t := seq[j]
			switch t.kind {
			case kLoad, kConst:
				// Loads feeding a cmp+br belong to the branch pattern.
				if branchHeaderLen(j) > 0 {
					break scan
				}
				if t.kind == kLoad {
					g.loads = append(g.loads, t)
				}
				j++
			case kArithI:
				g.ops = append(g.ops, t.op)
				j++
			case kArithF, kUnaryF:
				g.isFloat = true
				g.ops = append(g.ops, t.op)
				j++
			case kCmp:
				// A comparison not feeding a branch produces a 0/1 value
				// usable as an ordinary operand.
				if kindAt(j+1) == kBr {
					break scan
				}
				g.ops = append(g.ops, t.op)
				j++
			case kStore:
				g.store = t
				j++
				g.nTokens = j - i
				break scan
			default:
				break scan
			}
		}
		// A run that never reached a store still matches Table II's
		// store-less rows (three-load and long expression runs feeding a
		// value kept live across blocks): close it with a synthetic
		// accumulator store so its loads and operations survive with
		// their classes intact.
		if g.nTokens == 0 && j > i && (len(g.loads) > 0 || len(g.ops) >= 2) {
			g.store = tok{kind: kStore, op: isa.ST}
			g.nTokens = j - i
		}
		if g.nTokens > 0 {
			out = append(out, gen.emitGroup(&g, w)...)
			gen.consumedInstrs += w * float64(g.nTokens)
			i = j
			continue
		}
		// No pattern claimed the run: the scanned operations are
		// uncovered; queue them for compensation.
		if j == i {
			i++ // lone cmp or stray token
			continue
		}
		for _, t := range seq[i:j] {
			switch t.kind {
			case kArithI:
				leftoverI = append(leftoverI, t.op)
			case kArithF, kUnaryF:
				leftoverF = append(leftoverF, t.op)
			case kLoad:
				leftoverLoads++
			}
		}
		i = j
	}

	out = append(out, gen.compensateInt(leftoverI, leftoverLoads)...)
	out = append(out, gen.compensateFloat(leftoverF)...)
	return out
}

// emitGroup renders one recognized group as an assignment statement,
// chaining every load and operation so the clone's dynamic instruction
// classes match the profile's. Each load keeps its profiled memory source:
// the stream walker matching its stride signature.
func (gen *generator) emitGroup(g *group, w float64) []hlc.Stmt {
	dst := gen.refFor(g.store, g.isFloat)
	var srcs []memRef
	for _, l := range g.loads {
		srcs = append(srcs, gen.refFor(l, g.isFloat))
	}

	walk := func(r memRef, slot int) hlc.Expr {
		return gen.srcWalk(r, slot, g.isFloat)
	}
	cst := func(tk hlc.Token) hlc.Expr {
		if g.isFloat {
			return gen.floatConst()
		}
		return gen.rhsConst(tk)
	}

	var expr hlc.Expr
	loadIdx := 0
	if len(srcs) > 0 {
		expr = walk(srcs[0], 0)
		loadIdx = 1
	} else if g.isFloat {
		expr = gen.floatConst()
	} else {
		expr = gen.smallConst()
	}

	for _, op := range g.ops {
		if op == isa.FSQRT || op == isa.FSIN || op == isa.FCOS || op == isa.FABS {
			name := intrinsicName(op)
			if name == "sqrt" {
				expr = &hlc.CallExpr{Name: "fabs", Args: []hlc.Expr{expr}}
			}
			expr = &hlc.CallExpr{Name: name, Args: []hlc.Expr{expr}}
			continue
		}
		tk, constOnly := opToken(op)
		if g.isFloat {
			tk = floatSafe(tk)
			constOnly = false
		}
		var operand hlc.Expr
		if !constOnly && loadIdx < len(srcs) {
			operand = walk(srcs[loadIdx], loadIdx)
			loadIdx++
		} else {
			operand = cst(tk)
		}
		expr = &hlc.BinaryExpr{Op: tk, X: expr, Y: operand}
	}
	// Chain any loads the operations did not absorb so the load count
	// still matches the profile.
	plus := hlc.Plus
	for loadIdx < len(srcs) {
		expr = &hlc.BinaryExpr{Op: plus, X: expr, Y: walk(srcs[loadIdx], loadIdx)}
		loadIdx++
	}

	stmt := &hlc.AssignStmt{LHS: gen.srcWalk(dst, 0, g.isFloat), Op: hlc.Assign, RHS: expr}
	refs := append([]memRef{dst}, srcs...)
	return append([]hlc.Stmt{stmt}, gen.advancesFor(refs, g.isFloat, w)...)
}

func intrinsicName(op isa.Opcode) string {
	switch op {
	case isa.FSIN:
		return "sin"
	case isa.FCOS:
		return "cos"
	case isa.FABS:
		return "fabs"
	default:
		return "sqrt"
	}
}

// opToken maps an arithmetic opcode to an HLC operator, with a flag for
// operators that are only safe against constant right-hand sides (division
// and modulo can trap; shifts need small counts).
func opToken(op isa.Opcode) (tk hlc.Token, constOnly bool) {
	switch op {
	case isa.ADD, isa.FADD, isa.ITOF, isa.FTOI:
		return hlc.Plus, false
	case isa.SUB, isa.FSUB, isa.NEG, isa.FNEG:
		return hlc.Minus, false
	case isa.MUL, isa.FMUL:
		return hlc.Star, false
	case isa.DIV, isa.MOD:
		return hlc.Slash, true
	case isa.FDIV:
		return hlc.Slash, false // float division cannot trap
	case isa.AND:
		return hlc.Amp, false
	case isa.OR:
		return hlc.Pipe, false
	case isa.XOR, isa.NOTB:
		return hlc.Caret, false
	case isa.SHL:
		return hlc.Shl, true
	case isa.SHR:
		return hlc.Shr, true
	case isa.CMPEQ, isa.FCMPEQ:
		return hlc.Eq, false
	case isa.CMPNE, isa.FCMPNE:
		return hlc.Neq, false
	case isa.CMPLT, isa.FCMPLT:
		return hlc.Lt, false
	case isa.CMPLE, isa.FCMPLE:
		return hlc.Le, false
	case isa.CMPGT, isa.FCMPGT:
		return hlc.Gt, false
	case isa.CMPGE, isa.FCMPGE:
		return hlc.Ge, false
	}
	return hlc.Plus, false
}

func (gen *generator) smallConst() *hlc.IntLit { return intLit(int64(1 + gen.rng.Intn(9))) }
func (gen *generator) shiftConst() *hlc.IntLit { return intLit(int64(1 + gen.rng.Intn(5))) }
func (gen *generator) floatConst() *hlc.FloatLit {
	return &hlc.FloatLit{Value: float64(gen.rng.Intn(64))/8 + 0.5}
}

// rhsConst returns a right-hand-side constant appropriate for the operator.
func (gen *generator) rhsConst(tk hlc.Token) hlc.Expr {
	switch tk {
	case hlc.Shl, hlc.Shr:
		return gen.shiftConst()
	case hlc.Slash, hlc.Percent:
		return intLit(int64(2 + gen.rng.Intn(8)))
	}
	return gen.smallConst()
}

// compensateInt folds leftover integer operations (instructions no pattern
// covered) into chained statements — the paper's "compensate for those
// instructions on a later occasion". Leftover loads stay loads: they
// become always-hit array reads rather than constant operands.
func (gen *generator) compensateInt(ops []isa.Opcode, loads int) []hlc.Stmt {
	var out []hlc.Stmt
	for len(ops) > 0 || loads > 0 {
		take := len(ops)
		if take > 3 {
			take = 3
		}
		expr := hlc.Expr(gen.smallWalk(false))
		for _, op := range ops[:take] {
			tk, constOnly := opToken(op)
			var operand hlc.Expr
			if !constOnly && loads > 0 {
				operand = gen.smallWalk(false)
				loads--
			} else {
				operand = gen.rhsConst(tk)
			}
			expr = &hlc.BinaryExpr{Op: tk, X: expr, Y: operand}
		}
		// Loads with no operation left to carry them chain on with adds.
		for extra := 0; take == 0 && loads > 0 && extra < 3; extra++ {
			expr = &hlc.BinaryExpr{Op: hlc.Plus, X: expr, Y: gen.smallWalk(false)}
			loads--
		}
		out = append(out, &hlc.AssignStmt{
			LHS: gen.smallWalk(false), Op: hlc.Assign, RHS: expr,
		})
		ops = ops[take:]
	}
	return out
}

func (gen *generator) compensateFloat(ops []isa.Opcode) []hlc.Stmt {
	var out []hlc.Stmt
	for len(ops) > 0 {
		take := len(ops)
		if take > 3 {
			take = 3
		}
		expr := hlc.Expr(gen.smallWalk(true))
		for _, op := range ops[:take] {
			if op == isa.FSQRT || op == isa.FSIN || op == isa.FCOS || op == isa.FABS {
				name := intrinsicName(op)
				if name == "sqrt" {
					expr = &hlc.CallExpr{Name: "fabs", Args: []hlc.Expr{expr}}
				}
				expr = &hlc.CallExpr{Name: name, Args: []hlc.Expr{expr}}
				continue
			}
			tk, _ := opToken(op)
			expr = &hlc.BinaryExpr{Op: floatSafe(tk), X: expr, Y: gen.floatConst()}
		}
		out = append(out, &hlc.AssignStmt{
			LHS: gen.smallWalk(true), Op: hlc.Assign, RHS: expr,
		})
		ops = ops[take:]
	}
	return out
}

// floatSafe maps integer-only operators that can appear on float data
// (via ITOF/FTOI sequences) back to float-legal ones.
func floatSafe(tk hlc.Token) hlc.Token {
	switch tk {
	case hlc.Amp, hlc.Pipe, hlc.Caret, hlc.Shl, hlc.Shr, hlc.Percent:
		return hlc.Plus
	}
	return tk
}
