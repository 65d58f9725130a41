package hlc

// Type is an HLC value type. Arrays are not first-class: a declaration may
// carry an array length, but expressions always have scalar type.
type Type int

// HLC types.
const (
	TypeVoid Type = iota
	TypeInt
	TypeFloat
)

// String returns the HLC spelling of the type.
func (t Type) String() string {
	switch t {
	case TypeInt:
		return "int"
	case TypeFloat:
		return "float"
	default:
		return "void"
	}
}

// Program is a complete HLC translation unit.
type Program struct {
	Globals []*VarDecl
	Funcs   []*FuncDecl
}

// Func returns the declared function with the given name, or nil.
func (p *Program) Func(name string) *FuncDecl {
	for _, f := range p.Funcs {
		if f.Name == name {
			return f
		}
	}
	return nil
}

// Global returns the global declaration with the given name, or nil.
func (p *Program) Global(name string) *VarDecl {
	for _, g := range p.Globals {
		if g.Name == name {
			return g
		}
	}
	return nil
}

// VarDecl declares a scalar or array variable. ArrayLen == 0 means scalar.
// Init, if non-nil, is the scalar initializer; a global's must be a
// literal.
type VarDecl struct {
	Name     string
	Type     Type
	ArrayLen int
	Init     Expr
	Pos      Pos
}

// Param is a function parameter (always scalar).
type Param struct {
	Name string
	Type Type
}

// FuncDecl declares a function.
type FuncDecl struct {
	Name   string
	Ret    Type
	Params []Param
	Body   *Block
	Pos    Pos
}

// Stmt is implemented by all statement nodes.
type Stmt interface{ stmt() }

// Block is a brace-delimited statement list.
type Block struct{ Stmts []Stmt }

// DeclStmt is a local variable declaration (scalars only).
type DeclStmt struct{ Decl *VarDecl }

// AssignStmt assigns RHS to LHS with operator Op (Assign or a compound
// assignment token such as PlusEq). Inc/Dec are desugared by the parser into
// PlusEq/MinusEq with RHS == IntLit(1).
type AssignStmt struct {
	LHS LValue
	Op  Token
	RHS Expr
	Pos Pos
}

// IfStmt is a conditional with optional else branch.
type IfStmt struct {
	Cond Expr
	Then *Block
	Else *Block // nil when absent
	Pos  Pos
}

// ForStmt is a C-style counted loop. Init and Post may be nil; Cond may be
// nil (infinite loop, must exit via break/return).
type ForStmt struct {
	Init Stmt // DeclStmt or AssignStmt
	Cond Expr
	Post Stmt // AssignStmt
	Body *Block
	Pos  Pos
}

// WhileStmt is a while loop.
type WhileStmt struct {
	Cond Expr
	Body *Block
	Pos  Pos
}

// BreakStmt exits the innermost loop.
type BreakStmt struct{ Pos Pos }

// ContinueStmt continues the innermost loop.
type ContinueStmt struct{ Pos Pos }

// ReturnStmt returns from the enclosing function; X is nil for void returns.
type ReturnStmt struct {
	X   Expr
	Pos Pos
}

// PrintStmt evaluates and prints its arguments. It is the observable side
// effect of HLC programs: like printf in the paper, it anchors computation
// so optimizing compilers cannot delete it.
type PrintStmt struct {
	Args []Expr
	Pos  Pos
}

// ExprStmt evaluates an expression (a call) for its side effects.
type ExprStmt struct {
	X   Expr
	Pos Pos
}

func (*Block) stmt()        {}
func (*DeclStmt) stmt()     {}
func (*AssignStmt) stmt()   {}
func (*IfStmt) stmt()       {}
func (*ForStmt) stmt()      {}
func (*WhileStmt) stmt()    {}
func (*BreakStmt) stmt()    {}
func (*ContinueStmt) stmt() {}
func (*ReturnStmt) stmt()   {}
func (*PrintStmt) stmt()    {}
func (*ExprStmt) stmt()     {}

// Expr is implemented by all expression nodes.
type Expr interface{ expr() }

// LValue is an assignable expression: a variable reference or array index.
type LValue interface {
	Expr
	lvalue()
}

// IntLit is an integer literal.
type IntLit struct {
	Value int64
	Pos   Pos
}

// FloatLit is a floating-point literal.
type FloatLit struct {
	Value float64
	Pos   Pos
}

// VarRef names a scalar variable (local, parameter, or global).
type VarRef struct {
	Name string
	Pos  Pos
}

// IndexExpr is an array element access: Name[Idx].
type IndexExpr struct {
	Name string
	Idx  Expr
	Pos  Pos
}

// BinaryExpr applies a binary operator.
type BinaryExpr struct {
	Op   Token
	X, Y Expr
	Pos  Pos
}

// UnaryExpr applies a unary operator (Minus, Not, Tilde).
type UnaryExpr struct {
	Op  Token
	X   Expr
	Pos Pos
}

// CallExpr calls a user function or a builtin by name.
type CallExpr struct {
	Name string
	Args []Expr
	Pos  Pos
}

func (*IntLit) expr()     {}
func (*FloatLit) expr()   {}
func (*VarRef) expr()     {}
func (*IndexExpr) expr()  {}
func (*BinaryExpr) expr() {}
func (*UnaryExpr) expr()  {}
func (*CallExpr) expr()   {}

func (*VarRef) lvalue()    {}
func (*IndexExpr) lvalue() {}

// Builtin describes one of the intrinsic math functions. The compiler lowers
// these to single FPU instructions (the long-latency units that make fft the
// highest-CPI benchmark, as in Fig. 10 of the paper).
type Builtin struct {
	Name   string
	Arity  int
	Ret    Type
	ArgTyp Type
}

// Builtins is the table of intrinsic functions available to HLC programs.
var Builtins = map[string]Builtin{
	"sin":  {Name: "sin", Arity: 1, Ret: TypeFloat, ArgTyp: TypeFloat},
	"cos":  {Name: "cos", Arity: 1, Ret: TypeFloat, ArgTyp: TypeFloat},
	"sqrt": {Name: "sqrt", Arity: 1, Ret: TypeFloat, ArgTyp: TypeFloat},
	"fabs": {Name: "fabs", Arity: 1, Ret: TypeFloat, ArgTyp: TypeFloat},
	"itof": {Name: "itof", Arity: 1, Ret: TypeFloat, ArgTyp: TypeInt},
	"ftoi": {Name: "ftoi", Arity: 1, Ret: TypeInt, ArgTyp: TypeFloat},
}
