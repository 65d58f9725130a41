package hlc

import (
	"fmt"
	"slices"
)

// CheckedProgram is a type-checked program together with the symbol
// information the compiler front end needs.
type CheckedProgram struct {
	Prog *Program
	// Funcs holds each function's resolution results, indexed like
	// Prog.Funcs.
	Funcs []*CheckedFunc
}

// CheckedFunc is one type-checked function. It refers to nothing of the
// rest of its program but the values of its global symbols, so it serves
// any program whose function has the same FuncKeys key (see CheckWith).
type CheckedFunc struct {
	Decl *FuncDecl
	// Resolved records how each VarRef/IndexExpr name in the body
	// resolves; keyed by the expression node because names may shadow.
	Resolved map[Expr]*Symbol
	// Locals lists the parameters and local variables in slot order.
	Locals []*Symbol
}

// SymbolKind distinguishes storage classes.
type SymbolKind int

// Symbol storage classes.
const (
	SymGlobal SymbolKind = iota
	SymLocal
	SymParam
)

// Symbol describes a resolved variable.
type Symbol struct {
	Name  string
	Kind  SymbolKind
	Type  Type
	Array bool     // a global array
	Decl  *VarDecl // a local's declaration (nil for parameters and globals)
	Index int      // a parameter's or local's position in CheckedFunc.Locals: its frame slot
}

type checker struct {
	globals map[string]*Symbol
	funcs   map[string]*FuncDecl // the first declaration of each name
	out     *CheckedFunc
	scopes  []map[string]*Symbol
	loops   int
	errs    []error
}

// Check type checks a parsed program. All errors found are joined into the
// returned error; on success the CheckedProgram carries resolution results.
func Check(prog *Program) (*CheckedProgram, error) {
	return CheckWith(prog, nil)
}

// CheckWith type checks prog like Check, but takes function i's result
// from known[i] instead of checking it again when known[i] is non-nil. A
// known function must have been checked under a program where its FuncKeys
// key equals that of prog's function i, so it is the same function under
// the same view of the rest of the program. When it reuses any, the
// result's Prog is a copy of prog holding known[i].Decl in place of
// function i: an equal declaration whose nodes the reused resolution
// results are keyed by.
func CheckWith(prog *Program, known []*CheckedFunc) (*CheckedProgram, error) {
	c := &checker{
		globals: make(map[string]*Symbol, len(prog.Globals)),
		funcs:   make(map[string]*FuncDecl, len(prog.Funcs)),
	}
	for _, g := range prog.Globals {
		if _, dup := c.globals[g.Name]; dup {
			c.errorf(g.Pos, "duplicate global %s", g.Name)
			continue
		}
		if lit := Literal(g.Init); lit != nil {
			if t := c.exprType(lit); !assignable(g.Type, t) {
				c.errorf(g.Pos, "cannot initialize %s %s with %s", g.Type, g.Name, t)
			}
		} else if g.Init != nil {
			c.errorf(g.Pos, "global %s: initializer must be a literal", g.Name)
		}
		c.globals[g.Name] = &Symbol{Name: g.Name, Kind: SymGlobal, Type: g.Type, Array: g.ArrayLen > 0}
	}
	for _, fn := range prog.Funcs {
		if _, dup := c.funcs[fn.Name]; dup {
			c.errorf(fn.Pos, "duplicate function %s", fn.Name)
		} else {
			c.funcs[fn.Name] = fn
		}
		if _, isBuiltin := Builtins[fn.Name]; isBuiltin {
			c.errorf(fn.Pos, "function %s shadows a builtin", fn.Name)
		}
	}
	out := &CheckedProgram{Prog: prog, Funcs: make([]*CheckedFunc, len(prog.Funcs))}
	for i, fn := range prog.Funcs {
		if i >= len(known) || known[i] == nil {
			out.Funcs[i] = c.checkFunc(fn)
			continue
		}
		out.Funcs[i] = known[i]
		if out.Prog == prog {
			out.Prog = &Program{Globals: prog.Globals, Funcs: slices.Clone(prog.Funcs)}
		}
		out.Prog.Funcs[i] = known[i].Decl
	}
	if c.funcs["main"] == nil {
		c.errs = append(c.errs, fmt.Errorf("hlc: program has no main function"))
	}
	if len(c.errs) > 0 {
		return nil, joinErrors(c.errs)
	}
	return out, nil
}

// Literal returns a global initializer's value as a literal: an int or
// float literal as it is, or one negated by unary minus (the parser reads
// -1 as minus applied to 1). It returns nil for anything else.
func Literal(e Expr) Expr {
	switch x := e.(type) {
	case *IntLit, *FloatLit:
		return x
	case *UnaryExpr:
		if x.Op != Minus {
			return nil
		}
		switch v := Literal(x.X).(type) {
		case *IntLit:
			return &IntLit{Value: -v.Value, Pos: x.Pos}
		case *FloatLit:
			return &FloatLit{Value: -v.Value, Pos: x.Pos}
		}
	}
	return nil
}

func joinErrors(errs []error) error {
	if len(errs) == 1 {
		return errs[0]
	}
	msg := errs[0].Error()
	for _, e := range errs[1:] {
		msg += "\n" + e.Error()
	}
	return fmt.Errorf("%s", msg)
}

func (c *checker) errorf(pos Pos, format string, args ...any) {
	c.errs = append(c.errs, fmt.Errorf("hlc: %v: %s", pos, fmt.Sprintf(format, args...)))
}

func assignable(dst, src Type) bool {
	if dst == src {
		return true
	}
	// Implicit int->float widening, as in C.
	return dst == TypeFloat && src == TypeInt
}

func (c *checker) checkFunc(fn *FuncDecl) *CheckedFunc {
	c.out = &CheckedFunc{Decl: fn, Resolved: make(map[Expr]*Symbol)}
	c.scopes = []map[string]*Symbol{make(map[string]*Symbol)}
	c.loops = 0
	for i, prm := range fn.Params {
		sym := &Symbol{Name: prm.Name, Kind: SymParam, Type: prm.Type, Index: i}
		if _, dup := c.scopes[0][prm.Name]; dup {
			c.errorf(fn.Pos, "duplicate parameter %s", prm.Name)
		}
		c.scopes[0][prm.Name] = sym
		c.out.Locals = append(c.out.Locals, sym)
	}
	c.checkBlock(fn.Body)
	return c.out
}

// push opens a scope; its map is made by the first declaration in it,
// since most blocks declare nothing.
func (c *checker) push() { c.scopes = append(c.scopes, nil) }
func (c *checker) pop()  { c.scopes = c.scopes[:len(c.scopes)-1] }

func (c *checker) lookup(name string) *Symbol {
	for i := len(c.scopes) - 1; i >= 0; i-- {
		if s, ok := c.scopes[i][name]; ok {
			return s
		}
	}
	return c.globals[name]
}

func (c *checker) declareLocal(d *VarDecl) {
	top := c.scopes[len(c.scopes)-1]
	if top == nil {
		top = make(map[string]*Symbol)
		c.scopes[len(c.scopes)-1] = top
	}
	if _, dup := top[d.Name]; dup {
		c.errorf(d.Pos, "duplicate local %s", d.Name)
		return
	}
	sym := &Symbol{Name: d.Name, Kind: SymLocal, Type: d.Type, Decl: d,
		Index: len(c.out.Locals)}
	top[d.Name] = sym
	c.out.Locals = append(c.out.Locals, sym)
}

func (c *checker) checkBlock(b *Block) {
	c.push()
	for _, s := range b.Stmts {
		c.checkStmt(s)
	}
	c.pop()
}

func (c *checker) checkStmt(s Stmt) {
	switch st := s.(type) {
	case *Block:
		c.checkBlock(st)
	case *DeclStmt:
		if st.Decl.Init != nil {
			t := c.exprType(st.Decl.Init)
			if !assignable(st.Decl.Type, t) {
				c.errorf(st.Decl.Pos, "cannot initialize %s %s with %s", st.Decl.Type, st.Decl.Name, t)
			}
		}
		c.declareLocal(st.Decl)
	case *AssignStmt:
		lt := c.exprType(st.LHS)
		rt := c.exprType(st.RHS)
		if st.Op == Assign {
			if !assignable(lt, rt) {
				c.errorf(st.Pos, "cannot assign %s to %s", rt, lt)
			}
		} else {
			// Compound assignments: bitwise/shift/mod require int on both sides.
			switch st.Op {
			case PercentEq, AmpEq, PipeEq, CaretEq, ShlEq, ShrEq:
				if lt != TypeInt || rt != TypeInt {
					c.errorf(st.Pos, "operator %v requires int operands", st.Op)
				}
			default:
				if !assignable(lt, rt) {
					c.errorf(st.Pos, "cannot apply %v with %s to %s", st.Op, rt, lt)
				}
			}
		}
	case *IfStmt:
		if t := c.exprType(st.Cond); t == TypeVoid {
			c.errorf(st.Pos, "if condition has no value")
		}
		c.checkBlock(st.Then)
		if st.Else != nil {
			c.checkBlock(st.Else)
		}
	case *ForStmt:
		c.push()
		if st.Init != nil {
			c.checkStmt(st.Init)
		}
		if st.Cond != nil {
			if t := c.exprType(st.Cond); t == TypeVoid {
				c.errorf(st.Pos, "for condition has no value")
			}
		}
		c.loops++
		c.checkBlock(st.Body)
		c.loops--
		if st.Post != nil {
			c.checkStmt(st.Post)
		}
		c.pop()
	case *WhileStmt:
		if t := c.exprType(st.Cond); t == TypeVoid {
			c.errorf(st.Pos, "while condition has no value")
		}
		c.loops++
		c.checkBlock(st.Body)
		c.loops--
	case *BreakStmt:
		if c.loops == 0 {
			c.errorf(st.Pos, "break outside loop")
		}
	case *ContinueStmt:
		if c.loops == 0 {
			c.errorf(st.Pos, "continue outside loop")
		}
	case *ReturnStmt:
		fn := c.out.Decl
		if st.X == nil {
			if fn.Ret != TypeVoid {
				c.errorf(st.Pos, "missing return value in %s", fn.Name)
			}
			return
		}
		got := c.exprType(st.X)
		if fn.Ret == TypeVoid {
			c.errorf(st.Pos, "void function %s returns a value", fn.Name)
		} else if !assignable(fn.Ret, got) {
			c.errorf(st.Pos, "function %s returns %s, got %s", fn.Name, fn.Ret, got)
		}
	case *PrintStmt:
		for _, a := range st.Args {
			if t := c.exprType(a); t == TypeVoid {
				c.errorf(st.Pos, "cannot print void value")
			}
		}
	case *ExprStmt:
		c.exprType(st.X)
	default:
		panic(fmt.Sprintf("hlc: unknown statement %T", s))
	}
}

func (c *checker) exprType(e Expr) Type {
	switch x := e.(type) {
	case *IntLit:
		return TypeInt
	case *FloatLit:
		return TypeFloat
	case *VarRef:
		sym := c.lookup(x.Name)
		if sym == nil {
			c.errorf(x.Pos, "undefined variable %s", x.Name)
			return TypeInt
		}
		if sym.Array {
			c.errorf(x.Pos, "array %s used without index", x.Name)
		}
		c.out.Resolved[x] = sym
		return sym.Type
	case *IndexExpr:
		sym := c.lookup(x.Name)
		if sym == nil {
			c.errorf(x.Pos, "undefined array %s", x.Name)
			return TypeInt
		}
		if !sym.Array {
			c.errorf(x.Pos, "%s is not an array", x.Name)
		}
		if t := c.exprType(x.Idx); t != TypeInt {
			c.errorf(x.Pos, "array index must be int, got %s", t)
		}
		c.out.Resolved[x] = sym
		return sym.Type
	case *UnaryExpr:
		t := c.exprType(x.X)
		switch x.Op {
		case Minus:
			return t
		case Not:
			if t == TypeVoid {
				c.errorf(x.Pos, "! requires a value")
			}
			return TypeInt
		case Tilde:
			if t != TypeInt {
				c.errorf(x.Pos, "~ requires int operand")
			}
			return TypeInt
		}
		c.errorf(x.Pos, "bad unary operator %v", x.Op)
		return TypeInt
	case *BinaryExpr:
		xt := c.exprType(x.X)
		yt := c.exprType(x.Y)
		switch x.Op {
		case Plus, Minus, Star, Slash:
			if xt == TypeFloat || yt == TypeFloat {
				return TypeFloat
			}
			return TypeInt
		case Percent, Amp, Pipe, Caret, Shl, Shr:
			if xt != TypeInt || yt != TypeInt {
				c.errorf(x.Pos, "operator %v requires int operands", x.Op)
			}
			return TypeInt
		case Eq, Neq, Lt, Le, Gt, Ge:
			if (xt == TypeVoid) || (yt == TypeVoid) {
				c.errorf(x.Pos, "comparison of void value")
			}
			return TypeInt
		case LAnd, LOr:
			if xt == TypeVoid || yt == TypeVoid {
				c.errorf(x.Pos, "logical operator on void value")
			}
			return TypeInt
		}
		c.errorf(x.Pos, "bad binary operator %v", x.Op)
		return TypeInt
	case *CallExpr:
		if b, ok := Builtins[x.Name]; ok {
			if len(x.Args) != b.Arity {
				c.errorf(x.Pos, "%s expects %d argument(s), got %d", x.Name, b.Arity, len(x.Args))
			}
			for _, a := range x.Args {
				if at := c.exprType(a); !assignable(b.ArgTyp, at) {
					c.errorf(x.Pos, "%s argument has type %s, want %s", x.Name, at, b.ArgTyp)
				}
			}
			return b.Ret
		}
		fn := c.funcs[x.Name]
		if fn == nil {
			c.errorf(x.Pos, "undefined function %s", x.Name)
			return TypeInt
		}
		if len(x.Args) != len(fn.Params) {
			c.errorf(x.Pos, "%s expects %d argument(s), got %d", x.Name, len(fn.Params), len(x.Args))
		}
		for i, a := range x.Args {
			at := c.exprType(a)
			if i < len(fn.Params) && !assignable(fn.Params[i].Type, at) {
				c.errorf(x.Pos, "argument %d of %s has type %s, want %s", i+1, x.Name, at, fn.Params[i].Type)
			}
		}
		return fn.Ret
	}
	panic(fmt.Sprintf("hlc: unknown expression %T", e))
}
