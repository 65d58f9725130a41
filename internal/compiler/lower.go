package compiler

import (
	"fmt"

	"repro/internal/hlc"
	"repro/internal/isa"
)

// lowerer translates one HLC function into virtual-register machine code.
// Lowering is deliberately naive — it produces the memory-heavy code shape
// of an unoptimized compile (every local access is a stack-slot load or
// store); the optimization passes then earn their keep at O1+.
type lowerer struct {
	cp   *hlc.CheckedProgram
	cf   *hlc.CheckedFunc
	syms *symbols // the program's globals and functions by name
	out  *isa.Func

	cur     int // current block index
	nextReg int
	maxOut  int // widest outgoing-argument list of any call site

	// Loop context stacks for break/continue targets.
	breakTo    []int
	continueTo []int

	// code holds the instructions emitted so far into the current chunk;
	// the current block's are code[start:]. Each block is lowered in one
	// run: it is made current once, empty, and left only once terminated,
	// when it takes its instructions as a slice of the chunk.
	code  []isa.Instr
	start int
}

// lowerFunc lowers one checked function of cp, naming globals and
// functions by their indices in syms.
func lowerFunc(cp *hlc.CheckedProgram, cf *hlc.CheckedFunc, syms *symbols) (*isa.Func, error) {
	fn := cf.Decl
	out := &isa.Func{Name: fn.Name, NumParams: len(fn.Params), RetKind: kindOf(fn.Ret)}
	lw := &lowerer{cp: cp, cf: cf, syms: syms, out: out}
	lw.out.NumSlots = len(cf.Locals)
	lw.newBlock()

	var err error
	func() {
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("compiler: lowering %s: %v", fn.Name, r)
			}
		}()
		lw.block(fn.Body)
		// Fall-off-the-end return (void functions, or C-style undefined
		// return value modeled as 0).
		if !lw.terminated() {
			lw.emitFallOffReturn()
		}
	}()
	if err != nil {
		return nil, err
	}
	lw.finishBlock()
	lw.out.NumRegs = lw.nextReg
	if lw.maxOut > 0 {
		lw.out.FirstArgSlot = lw.out.NumSlots
		lw.out.ArgSlots = lw.maxOut
		lw.out.NumSlots += lw.maxOut
	} else {
		lw.out.FirstArgSlot = -1
	}
	return out, nil
}

func kindOf(t hlc.Type) isa.ValKind {
	switch t {
	case hlc.TypeInt:
		return isa.KindInt
	case hlc.TypeFloat:
		return isa.KindFloat
	default:
		return isa.KindVoid
	}
}

func (lw *lowerer) emitFallOffReturn() {
	if lw.out.RetKind == isa.KindVoid {
		lw.emit(isa.Instr{Op: isa.RET, A: isa.NoReg})
		return
	}
	r := lw.reg()
	if lw.out.RetKind == isa.KindFloat {
		lw.emit(isa.Instr{Op: isa.MOVF, Dst: r, F: 0})
	} else {
		lw.emit(isa.Instr{Op: isa.MOVI, Dst: r, Imm: 0})
	}
	lw.emit(isa.Instr{Op: isa.RET, A: r})
}

// --- block & instruction plumbing ---

func (lw *lowerer) reg() isa.RegID {
	r := lw.nextReg
	lw.nextReg++
	if lw.nextReg >= int(isa.NoReg) {
		panic("virtual register overflow")
	}
	return isa.RegID(r)
}

func (lw *lowerer) newBlock() int {
	lw.switchTo(lw.reserveBlock())
	return lw.cur
}

func (lw *lowerer) curBlock() *isa.Block { return lw.out.Blocks[lw.cur] }

// emit appends an instruction to the current block. A full chunk is
// left to the blocks that own slices of it: the current block's
// instructions so far move to a new chunk, twice the last one's size up
// to 1024 instructions (32 KB, the largest small allocation), so blocks
// stay contiguous at a few allocations per function.
func (lw *lowerer) emit(in isa.Instr) {
	if len(lw.code) == cap(lw.code) {
		n := len(lw.code) - lw.start
		chunk := make([]isa.Instr, n, max(min(2*cap(lw.code), 1024), 64, 2*n))
		copy(chunk, lw.code[lw.start:])
		lw.code, lw.start = chunk, 0
	}
	lw.code = append(lw.code, in)
}

// finishBlock gives the current block the instructions emitted since it
// became current.
func (lw *lowerer) finishBlock() {
	if n := len(lw.code); n > lw.start {
		lw.out.Blocks[lw.cur].Instrs = lw.code[lw.start:n:n]
	}
}

// terminated reports whether the current block already ends in control flow.
func (lw *lowerer) terminated() bool {
	if len(lw.code) == lw.start {
		return false
	}
	switch lw.code[len(lw.code)-1].Op {
	case isa.BR, isa.JMP, isa.RET:
		return true
	}
	return false
}

// jumpTo ends the current block with JMP to target (no-op if terminated).
func (lw *lowerer) jumpTo(target int) {
	if lw.terminated() {
		return
	}
	lw.emit(isa.Instr{Op: isa.JMP})
	lw.curBlock().Succs = []int{target}
}

// branchTo ends the current block with BR cond -> taken / fall.
func (lw *lowerer) branchTo(cond isa.RegID, taken, fall int) {
	lw.emit(isa.Instr{Op: isa.BR, A: cond})
	lw.curBlock().Succs = []int{taken, fall}
}

// switchTo makes an existing (pre-created) block current.
func (lw *lowerer) switchTo(b int) {
	lw.finishBlock()
	lw.cur, lw.start = b, len(lw.code)
}

// reserveBlock creates a block without making it current.
func (lw *lowerer) reserveBlock() int {
	lw.out.Blocks = append(lw.out.Blocks, &isa.Block{})
	return len(lw.out.Blocks) - 1
}

// --- statements ---

func (lw *lowerer) block(b *hlc.Block) {
	for _, s := range b.Stmts {
		lw.stmt(s)
	}
}

func (lw *lowerer) stmt(s hlc.Stmt) {
	if lw.terminated() {
		// Dead code after return/break/continue: lower into a fresh
		// unreachable block so the builder stays consistent; tidy()
		// removes it.
		lw.newBlock()
	}
	switch st := s.(type) {
	case *hlc.Block:
		lw.block(st)
	case *hlc.DeclStmt:
		sym := lw.resolveDecl(st.Decl)
		if st.Decl.Init != nil {
			r, k := lw.expr(st.Decl.Init)
			r = lw.convert(r, k, kindOf(st.Decl.Type))
			lw.storeLocal(sym, r)
		}
	case *hlc.AssignStmt:
		lw.assign(st)
	case *hlc.IfStmt:
		lw.ifStmt(st)
	case *hlc.ForStmt:
		lw.forStmt(st)
	case *hlc.WhileStmt:
		lw.whileStmt(st)
	case *hlc.BreakStmt:
		lw.jumpTo(lw.breakTo[len(lw.breakTo)-1])
	case *hlc.ContinueStmt:
		lw.jumpTo(lw.continueTo[len(lw.continueTo)-1])
	case *hlc.ReturnStmt:
		if st.X == nil {
			lw.emit(isa.Instr{Op: isa.RET, A: isa.NoReg})
			lw.curBlock().Succs = nil
			return
		}
		r, k := lw.expr(st.X)
		r = lw.convert(r, k, lw.out.RetKind)
		lw.emit(isa.Instr{Op: isa.RET, A: r})
	case *hlc.PrintStmt:
		for _, a := range st.Args {
			r, k := lw.expr(a)
			op := isa.PRINTI
			if k == isa.KindFloat {
				op = isa.PRINTF
			}
			lw.emit(isa.Instr{Op: op, A: r})
		}
	case *hlc.ExprStmt:
		lw.expr(st.X)
	default:
		panic(fmt.Sprintf("unknown statement %T", s))
	}
}

// resolveDecl finds the Symbol the checker created for a local declaration.
func (lw *lowerer) resolveDecl(d *hlc.VarDecl) *hlc.Symbol {
	for _, sym := range lw.cf.Locals {
		if sym.Decl == d {
			return sym
		}
	}
	panic(fmt.Sprintf("local %s not resolved", d.Name))
}

func (lw *lowerer) assign(st *hlc.AssignStmt) {
	switch lhs := st.LHS.(type) {
	case *hlc.VarRef:
		sym := lw.cf.Resolved[lhs]
		dstKind := kindOf(sym.Type)
		var val isa.RegID
		if st.Op == hlc.Assign {
			r, k := lw.expr(st.RHS)
			val = lw.convert(r, k, dstKind)
		} else {
			cur := lw.loadVar(sym)
			r, k := lw.expr(st.RHS)
			val = lw.binop(compoundOp(st.Op), cur, dstKind, r, k)
			val = lw.convert(val, lw.resultKind(compoundOp(st.Op), dstKind, k), dstKind)
		}
		lw.storeVar(sym, val)
	case *hlc.IndexExpr:
		sym := lw.cf.Resolved[lhs]
		idx, ik := lw.expr(lhs.Idx)
		if ik != isa.KindInt {
			panic("array index must be int")
		}
		gi := lw.globalIndex(sym.Name)
		dstKind := kindOf(sym.Type)
		var val isa.RegID
		if st.Op == hlc.Assign {
			r, k := lw.expr(st.RHS)
			val = lw.convert(r, k, dstKind)
		} else {
			cur := lw.reg()
			lw.emit(isa.Instr{Op: isa.LD, Dst: cur, A: idx, Sym: gi})
			r, k := lw.expr(st.RHS)
			val = lw.binop(compoundOp(st.Op), cur, dstKind, r, k)
			val = lw.convert(val, lw.resultKind(compoundOp(st.Op), dstKind, k), dstKind)
		}
		lw.emit(isa.Instr{Op: isa.ST, A: idx, B: val, Sym: gi})
	default:
		panic(fmt.Sprintf("bad lvalue %T", st.LHS))
	}
}

// compoundOp maps a compound-assignment token to its binary operator.
func compoundOp(t hlc.Token) hlc.Token {
	switch t {
	case hlc.PlusEq:
		return hlc.Plus
	case hlc.MinusEq:
		return hlc.Minus
	case hlc.StarEq:
		return hlc.Star
	case hlc.SlashEq:
		return hlc.Slash
	case hlc.PercentEq:
		return hlc.Percent
	case hlc.AmpEq:
		return hlc.Amp
	case hlc.PipeEq:
		return hlc.Pipe
	case hlc.CaretEq:
		return hlc.Caret
	case hlc.ShlEq:
		return hlc.Shl
	case hlc.ShrEq:
		return hlc.Shr
	}
	panic(fmt.Sprintf("not a compound assignment: %v", t))
}

func (lw *lowerer) ifStmt(st *hlc.IfStmt) {
	cond := lw.condValue(st.Cond)
	thenB := lw.reserveBlock()
	joinB := lw.reserveBlock()
	elseB := joinB
	if st.Else != nil {
		elseB = lw.reserveBlock()
	}
	lw.branchTo(cond, thenB, elseB)

	lw.switchTo(thenB)
	lw.block(st.Then)
	lw.jumpTo(joinB)

	if st.Else != nil {
		lw.switchTo(elseB)
		lw.block(st.Else)
		lw.jumpTo(joinB)
	}
	lw.switchTo(joinB)
}

func (lw *lowerer) forStmt(st *hlc.ForStmt) {
	if st.Init != nil {
		lw.stmt(st.Init)
	}
	header := lw.reserveBlock()
	body := lw.reserveBlock()
	post := lw.reserveBlock()
	exit := lw.reserveBlock()
	lw.jumpTo(header)

	lw.switchTo(header)
	if st.Cond != nil {
		cond := lw.condValue(st.Cond)
		lw.branchTo(cond, body, exit)
	} else {
		lw.jumpTo(body)
	}

	lw.switchTo(body)
	lw.breakTo = append(lw.breakTo, exit)
	lw.continueTo = append(lw.continueTo, post)
	lw.block(st.Body)
	lw.breakTo = lw.breakTo[:len(lw.breakTo)-1]
	lw.continueTo = lw.continueTo[:len(lw.continueTo)-1]
	lw.jumpTo(post)

	lw.switchTo(post)
	if st.Post != nil {
		lw.stmt(st.Post)
	}
	lw.jumpTo(header)

	lw.switchTo(exit)
}

func (lw *lowerer) whileStmt(st *hlc.WhileStmt) {
	header := lw.reserveBlock()
	body := lw.reserveBlock()
	exit := lw.reserveBlock()
	lw.jumpTo(header)

	lw.switchTo(header)
	cond := lw.condValue(st.Cond)
	lw.branchTo(cond, body, exit)

	lw.switchTo(body)
	lw.breakTo = append(lw.breakTo, exit)
	lw.continueTo = append(lw.continueTo, header)
	lw.block(st.Body)
	lw.breakTo = lw.breakTo[:len(lw.breakTo)-1]
	lw.continueTo = lw.continueTo[:len(lw.continueTo)-1]
	lw.jumpTo(header)

	lw.switchTo(exit)
}

// condValue lowers an expression used as a branch condition to an int
// register that is nonzero when the condition holds.
func (lw *lowerer) condValue(e hlc.Expr) isa.RegID {
	r, k := lw.expr(e)
	if k == isa.KindFloat {
		zero := lw.reg()
		lw.emit(isa.Instr{Op: isa.MOVF, Dst: zero, F: 0})
		out := lw.reg()
		lw.emit(isa.Instr{Op: isa.FCMPNE, Dst: out, A: r, B: zero})
		return out
	}
	return r
}

// --- variable access ---

func (lw *lowerer) globalIndex(name string) int32 {
	gi, ok := lw.syms.globals[name]
	if !ok {
		panic(fmt.Sprintf("unknown global %s", name))
	}
	return gi
}

// loadVar loads a scalar variable into a fresh register.
func (lw *lowerer) loadVar(sym *hlc.Symbol) isa.RegID {
	r := lw.reg()
	if sym.Kind == hlc.SymGlobal {
		lw.emit(isa.Instr{Op: isa.LD, Dst: r, A: isa.NoReg, Sym: lw.globalIndex(sym.Name)})
	} else {
		lw.emit(isa.Instr{Op: isa.LDL, Dst: r, Imm: int64(sym.Index)})
	}
	return r
}

// storeVar stores a register to a scalar variable.
func (lw *lowerer) storeVar(sym *hlc.Symbol, val isa.RegID) {
	if sym.Kind == hlc.SymGlobal {
		lw.emit(isa.Instr{Op: isa.ST, A: isa.NoReg, B: val, Sym: lw.globalIndex(sym.Name)})
	} else {
		lw.storeLocal(sym, val)
	}
}

func (lw *lowerer) storeLocal(sym *hlc.Symbol, val isa.RegID) {
	lw.emit(isa.Instr{Op: isa.STL, A: val, Imm: int64(sym.Index)})
}

// convert inserts a conversion instruction when kinds differ.
func (lw *lowerer) convert(r isa.RegID, from, to isa.ValKind) isa.RegID {
	if from == to || to == isa.KindVoid {
		return r
	}
	out := lw.reg()
	if from == isa.KindInt && to == isa.KindFloat {
		lw.emit(isa.Instr{Op: isa.ITOF, Dst: out, A: r})
	} else {
		lw.emit(isa.Instr{Op: isa.FTOI, Dst: out, A: r})
	}
	return out
}

// --- expressions ---

// expr lowers an expression, returning the result register and its kind.
func (lw *lowerer) expr(e hlc.Expr) (isa.RegID, isa.ValKind) {
	switch x := e.(type) {
	case *hlc.IntLit:
		r := lw.reg()
		lw.emit(isa.Instr{Op: isa.MOVI, Dst: r, Imm: x.Value})
		return r, isa.KindInt
	case *hlc.FloatLit:
		r := lw.reg()
		lw.emit(isa.Instr{Op: isa.MOVF, Dst: r, F: x.Value})
		return r, isa.KindFloat
	case *hlc.VarRef:
		sym := lw.cf.Resolved[x]
		return lw.loadVar(sym), kindOf(sym.Type)
	case *hlc.IndexExpr:
		sym := lw.cf.Resolved[x]
		idx, _ := lw.expr(x.Idx)
		r := lw.reg()
		lw.emit(isa.Instr{Op: isa.LD, Dst: r, A: idx, Sym: lw.globalIndex(sym.Name)})
		return r, kindOf(sym.Type)
	case *hlc.UnaryExpr:
		return lw.unary(x)
	case *hlc.BinaryExpr:
		return lw.binary(x)
	case *hlc.CallExpr:
		return lw.call(x)
	}
	panic(fmt.Sprintf("unknown expression %T", e))
}

func (lw *lowerer) unary(x *hlc.UnaryExpr) (isa.RegID, isa.ValKind) {
	r, k := lw.expr(x.X)
	out := lw.reg()
	switch x.Op {
	case hlc.Minus:
		if k == isa.KindFloat {
			lw.emit(isa.Instr{Op: isa.FNEG, Dst: out, A: r})
			return out, isa.KindFloat
		}
		lw.emit(isa.Instr{Op: isa.NEG, Dst: out, A: r})
		return out, isa.KindInt
	case hlc.Tilde:
		lw.emit(isa.Instr{Op: isa.NOTB, Dst: out, A: r})
		return out, isa.KindInt
	case hlc.Not:
		zero := lw.reg()
		if k == isa.KindFloat {
			lw.emit(isa.Instr{Op: isa.MOVF, Dst: zero, F: 0})
			lw.emit(isa.Instr{Op: isa.FCMPEQ, Dst: out, A: r, B: zero})
		} else {
			lw.emit(isa.Instr{Op: isa.MOVI, Dst: zero, Imm: 0})
			lw.emit(isa.Instr{Op: isa.CMPEQ, Dst: out, A: r, B: zero})
		}
		return out, isa.KindInt
	}
	panic(fmt.Sprintf("bad unary op %v", x.Op))
}

func (lw *lowerer) binary(x *hlc.BinaryExpr) (isa.RegID, isa.ValKind) {
	switch x.Op {
	case hlc.LAnd, hlc.LOr:
		return lw.shortCircuit(x), isa.KindInt
	}
	a, ak := lw.expr(x.X)
	b, bk := lw.expr(x.Y)
	out := lw.binop(x.Op, a, ak, b, bk)
	return out, lw.resultKind(x.Op, ak, bk)
}

// resultKind computes the kind of a binary operation's result.
func (lw *lowerer) resultKind(op hlc.Token, ak, bk isa.ValKind) isa.ValKind {
	switch op {
	case hlc.Eq, hlc.Neq, hlc.Lt, hlc.Le, hlc.Gt, hlc.Ge:
		return isa.KindInt
	}
	if ak == isa.KindFloat || bk == isa.KindFloat {
		return isa.KindFloat
	}
	return isa.KindInt
}

// binop emits the instruction(s) for a binary operator over already-lowered
// operands, widening int operands to float when mixed.
func (lw *lowerer) binop(op hlc.Token, a isa.RegID, ak isa.ValKind, b isa.RegID, bk isa.ValKind) isa.RegID {
	isFloat := ak == isa.KindFloat || bk == isa.KindFloat
	if isFloat {
		a = lw.convert(a, ak, isa.KindFloat)
		b = lw.convert(b, bk, isa.KindFloat)
	}
	out := lw.reg()
	var mop isa.Opcode
	switch op {
	case hlc.Plus:
		mop = pick(isFloat, isa.FADD, isa.ADD)
	case hlc.Minus:
		mop = pick(isFloat, isa.FSUB, isa.SUB)
	case hlc.Star:
		mop = pick(isFloat, isa.FMUL, isa.MUL)
	case hlc.Slash:
		mop = pick(isFloat, isa.FDIV, isa.DIV)
	case hlc.Percent:
		mop = isa.MOD
	case hlc.Amp:
		mop = isa.AND
	case hlc.Pipe:
		mop = isa.OR
	case hlc.Caret:
		mop = isa.XOR
	case hlc.Shl:
		mop = isa.SHL
	case hlc.Shr:
		mop = isa.SHR
	case hlc.Eq:
		mop = pick(isFloat, isa.FCMPEQ, isa.CMPEQ)
	case hlc.Neq:
		mop = pick(isFloat, isa.FCMPNE, isa.CMPNE)
	case hlc.Lt:
		mop = pick(isFloat, isa.FCMPLT, isa.CMPLT)
	case hlc.Le:
		mop = pick(isFloat, isa.FCMPLE, isa.CMPLE)
	case hlc.Gt:
		mop = pick(isFloat, isa.FCMPGT, isa.CMPGT)
	case hlc.Ge:
		mop = pick(isFloat, isa.FCMPGE, isa.CMPGE)
	default:
		panic(fmt.Sprintf("bad binary op %v", op))
	}
	lw.emit(isa.Instr{Op: mop, Dst: out, A: a, B: b})
	return out
}

func pick(cond bool, a, b isa.Opcode) isa.Opcode {
	if cond {
		return a
	}
	return b
}

// shortCircuit lowers && and || with C short-circuit evaluation, producing
// a 0/1 register.
func (lw *lowerer) shortCircuit(x *hlc.BinaryExpr) isa.RegID {
	out := lw.reg()
	evalY := lw.reserveBlock()
	skip := lw.reserveBlock()
	join := lw.reserveBlock()

	cond := lw.condValue(x.X)
	if x.Op == hlc.LAnd {
		lw.branchTo(cond, evalY, skip) // true: need Y; false: result 0
	} else {
		lw.branchTo(cond, skip, evalY) // true: result 1; false: need Y
	}

	lw.switchTo(evalY)
	ry := lw.condValue(x.Y)
	zero := lw.reg()
	lw.emit(isa.Instr{Op: isa.MOVI, Dst: zero, Imm: 0})
	lw.emit(isa.Instr{Op: isa.CMPNE, Dst: out, A: ry, B: zero})
	lw.jumpTo(join)

	lw.switchTo(skip)
	v := int64(0)
	if x.Op == hlc.LOr {
		v = 1
	}
	lw.emit(isa.Instr{Op: isa.MOVI, Dst: out, Imm: v})
	lw.jumpTo(join)

	lw.switchTo(join)
	return out
}

func (lw *lowerer) call(x *hlc.CallExpr) (isa.RegID, isa.ValKind) {
	if b, ok := hlc.Builtins[x.Name]; ok {
		return lw.builtin(b, x)
	}
	callee, ok := lw.syms.funcs[x.Name]
	if !ok {
		panic(fmt.Sprintf("unknown function %s", x.Name))
	}
	fnDecl := lw.cp.Prog.Funcs[callee]
	// Evaluate every argument first (nested calls reuse the same outgoing
	// area and complete before the stores below), then store them into the
	// outgoing-argument slots — stack argument passing, cdecl style.
	var args []isa.RegID
	for i, a := range x.Args {
		r, k := lw.expr(a)
		r = lw.convert(r, k, kindOf(fnDecl.Params[i].Type))
		args = append(args, r)
	}
	argBase := len(lw.cf.Locals) // outgoing area begins after locals
	for i, r := range args {
		lw.emit(isa.Instr{Op: isa.STL, A: r, Imm: int64(argBase + i)})
	}
	if len(args) > lw.maxOut {
		lw.maxOut = len(args)
	}
	retKind := kindOf(fnDecl.Ret)
	dst := isa.NoReg
	if retKind != isa.KindVoid {
		dst = lw.reg()
	}
	lw.emit(isa.Instr{Op: isa.CALL, Dst: dst, Sym: callee, Imm: int64(argBase)})
	return dst, retKind
}

func (lw *lowerer) builtin(b hlc.Builtin, x *hlc.CallExpr) (isa.RegID, isa.ValKind) {
	r, k := lw.expr(x.Args[0])
	r = lw.convert(r, k, kindOf(b.ArgTyp))
	out := lw.reg()
	var op isa.Opcode
	switch b.Name {
	case "sin":
		op = isa.FSIN
	case "cos":
		op = isa.FCOS
	case "sqrt":
		op = isa.FSQRT
	case "fabs":
		op = isa.FABS
	case "itof":
		op = isa.ITOF
	case "ftoi":
		op = isa.FTOI
	default:
		panic(fmt.Sprintf("unknown builtin %s", b.Name))
	}
	lw.emit(isa.Instr{Op: op, Dst: out, A: r})
	return out, kindOf(b.Ret)
}
