package hlc

import (
	"encoding/binary"
	"math"
)

// FuncKeys encodes the functions of one program as structural keys. A
// function's key is an exact, prefix-free encoding of its declaration
// (source positions aside) followed, at every name the body uses, by what
// checking and compiling that use read from the rest of the program: the
// type and array-ness of a global of that name, and the signature of a
// called function. Two functions with equal keys therefore check and
// compile alike, up to the indices their program gives the globals and
// functions they name. Keys are built by appending bytes, not by printing
// or hashing, so they are cheap and cannot collide.
type FuncKeys struct {
	globals map[string]*VarDecl  // the first declaration of each name
	funcs   map[string]*FuncDecl // likewise
}

// NewFuncKeys returns the key encoder of prog's functions.
func NewFuncKeys(prog *Program) *FuncKeys {
	k := &FuncKeys{
		globals: make(map[string]*VarDecl, len(prog.Globals)),
		funcs:   make(map[string]*FuncDecl, len(prog.Funcs)),
	}
	for _, g := range prog.Globals {
		if _, dup := k.globals[g.Name]; !dup {
			k.globals[g.Name] = g
		}
	}
	for _, fn := range prog.Funcs {
		if _, dup := k.funcs[fn.Name]; !dup {
			k.funcs[fn.Name] = fn
		}
	}
	return k
}

// Append appends the key of fn, a function of the encoder's program, to
// dst.
func (k *FuncKeys) Append(dst []byte, fn *FuncDecl) []byte {
	e := keyEncoder{b: dst, k: k}
	e.signature(fn)
	e.params(fn)
	e.block(fn.Body)
	return e.b
}

// AppendGlobalsKey appends an exact encoding of a global table (names,
// types, array lengths and initializers) to dst.
func AppendGlobalsKey(dst []byte, globals []*VarDecl) []byte {
	e := keyEncoder{b: dst, k: &FuncKeys{}} // initializers name nothing
	e.uint(uint64(len(globals)))
	for _, g := range globals {
		e.varDecl(g)
	}
	return e.b
}

type keyEncoder struct {
	b []byte
	k *FuncKeys
}

// Node tags. Every node starts with its tag and optional parts with a
// presence tag, so the encoding parses back unambiguously.
const (
	keyNil byte = iota
	keyBlock
	keyDecl
	keyAssign
	keyIf
	keyFor
	keyWhile
	keyBreak
	keyContinue
	keyReturn
	keyPrint
	keyExprStmt
	keyInt
	keyFloat
	keyVar
	keyIndex
	keyBinary
	keyUnary
	keyCall
	keyGlobal  // a global of the name follows
	keyFunc    // a function's signature follows
	keyBuiltin // the name is a builtin
)

func (e *keyEncoder) tag(t byte)    { e.b = append(e.b, t) }
func (e *keyEncoder) uint(v uint64) { e.b = binary.AppendUvarint(e.b, v) }
func (e *keyEncoder) int(v int64)   { e.b = binary.AppendVarint(e.b, v) }
func (e *keyEncoder) typ(t Type)    { e.b = append(e.b, byte(t)) }
func (e *keyEncoder) token(t Token) { e.uint(uint64(t)) }
func (e *keyEncoder) str(s string)  { e.uint(uint64(len(s))); e.b = append(e.b, s...) }
func (e *keyEncoder) float(v float64) {
	e.b = binary.LittleEndian.AppendUint64(e.b, math.Float64bits(v))
}

func (e *keyEncoder) signature(fn *FuncDecl) {
	e.str(fn.Name)
	e.typ(fn.Ret)
	e.uint(uint64(len(fn.Params)))
	for _, p := range fn.Params {
		e.typ(p.Type)
	}
}

func (e *keyEncoder) params(fn *FuncDecl) {
	for _, p := range fn.Params {
		e.str(p.Name)
	}
}

func (e *keyEncoder) varDecl(d *VarDecl) {
	e.str(d.Name)
	e.typ(d.Type)
	e.uint(uint64(d.ArrayLen))
	e.optExpr(d.Init)
}

func (e *keyEncoder) block(b *Block) {
	e.tag(keyBlock)
	e.uint(uint64(len(b.Stmts)))
	for _, s := range b.Stmts {
		e.stmt(s)
	}
}

func (e *keyEncoder) optBlock(b *Block) {
	if b == nil {
		e.tag(keyNil)
		return
	}
	e.block(b)
}

func (e *keyEncoder) optStmt(s Stmt) {
	if s == nil {
		e.tag(keyNil)
		return
	}
	e.stmt(s)
}

func (e *keyEncoder) optExpr(x Expr) {
	if x == nil {
		e.tag(keyNil)
		return
	}
	e.expr(x)
}

func (e *keyEncoder) stmt(s Stmt) {
	switch st := s.(type) {
	case *Block:
		e.block(st)
	case *DeclStmt:
		e.tag(keyDecl)
		e.varDecl(st.Decl)
	case *AssignStmt:
		e.tag(keyAssign)
		e.expr(st.LHS)
		e.token(st.Op)
		e.expr(st.RHS)
	case *IfStmt:
		e.tag(keyIf)
		e.expr(st.Cond)
		e.block(st.Then)
		e.optBlock(st.Else)
	case *ForStmt:
		e.tag(keyFor)
		e.optStmt(st.Init)
		e.optExpr(st.Cond)
		e.optStmt(st.Post)
		e.block(st.Body)
	case *WhileStmt:
		e.tag(keyWhile)
		e.expr(st.Cond)
		e.block(st.Body)
	case *BreakStmt:
		e.tag(keyBreak)
	case *ContinueStmt:
		e.tag(keyContinue)
	case *ReturnStmt:
		e.tag(keyReturn)
		e.optExpr(st.X)
	case *PrintStmt:
		e.tag(keyPrint)
		e.exprs(st.Args)
	case *ExprStmt:
		e.tag(keyExprStmt)
		e.expr(st.X)
	default:
		panic("hlc: key: unknown statement")
	}
}

func (e *keyEncoder) exprs(xs []Expr) {
	e.uint(uint64(len(xs)))
	for _, x := range xs {
		e.expr(x)
	}
}

func (e *keyEncoder) expr(x Expr) {
	switch x := x.(type) {
	case *IntLit:
		e.tag(keyInt)
		e.int(x.Value)
	case *FloatLit:
		e.tag(keyFloat)
		e.float(x.Value)
	case *VarRef:
		e.tag(keyVar)
		e.name(x.Name)
	case *IndexExpr:
		e.tag(keyIndex)
		e.name(x.Name)
		e.expr(x.Idx)
	case *BinaryExpr:
		e.tag(keyBinary)
		e.token(x.Op)
		e.expr(x.X)
		e.expr(x.Y)
	case *UnaryExpr:
		e.tag(keyUnary)
		e.token(x.Op)
		e.expr(x.X)
	case *CallExpr:
		e.tag(keyCall)
		e.str(x.Name)
		if _, ok := Builtins[x.Name]; ok {
			e.tag(keyBuiltin)
		} else if fn := e.k.funcs[x.Name]; fn != nil {
			e.tag(keyFunc)
			e.signature(fn)
		} else {
			e.tag(keyNil)
		}
		e.exprs(x.Args)
	default:
		panic("hlc: key: unknown expression")
	}
}

// name encodes a variable name and the global it would resolve to were no
// local of that name in scope.
func (e *keyEncoder) name(n string) {
	e.str(n)
	g := e.k.globals[n]
	if g == nil {
		e.tag(keyNil)
		return
	}
	e.tag(keyGlobal)
	e.typ(g.Type)
	if g.ArrayLen > 0 {
		e.tag(1)
	} else {
		e.tag(0)
	}
}
