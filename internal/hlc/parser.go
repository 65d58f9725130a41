package hlc

import (
	"fmt"
	"strconv"
)

// Parser is a recursive-descent parser for HLC.
type Parser struct {
	toks []Lexeme
	pos  int
}

// Parse parses a complete HLC program from source text. The result is
// syntactically valid but not yet type checked; call Check to validate it.
func Parse(src string) (*Program, error) {
	toks, err := Tokenize(src)
	if err != nil {
		return nil, err
	}
	p := &Parser{toks: toks}
	return p.program()
}

func (p *Parser) cur() Lexeme  { return p.toks[p.pos] }
func (p *Parser) tok() Token   { return p.toks[p.pos].Tok }
func (p *Parser) next() Lexeme { l := p.toks[p.pos]; p.pos++; return l }

func (p *Parser) peekTok(n int) Token {
	if p.pos+n >= len(p.toks) {
		return EOF
	}
	return p.toks[p.pos+n].Tok
}

func (p *Parser) expect(t Token) (Lexeme, error) {
	if p.tok() != t {
		return Lexeme{}, fmt.Errorf("hlc: %v: expected %v, found %v", p.cur().Pos, t, p.tok())
	}
	return p.next(), nil
}

func (p *Parser) errf(format string, args ...any) error {
	return fmt.Errorf("hlc: %v: %s", p.cur().Pos, fmt.Sprintf(format, args...))
}

func (p *Parser) program() (*Program, error) {
	prog := &Program{}
	for p.tok() != EOF {
		typ, err := p.typeName()
		if err != nil {
			return nil, err
		}
		name, err := p.expect(IDENT)
		if err != nil {
			return nil, err
		}
		if p.tok() == LParen {
			fn, err := p.funcDecl(typ, name)
			if err != nil {
				return nil, err
			}
			prog.Funcs = append(prog.Funcs, fn)
			continue
		}
		if typ == TypeVoid {
			return nil, p.errf("variable %s cannot have type void", name.Text)
		}
		g, err := p.varDeclRest(typ, name, true)
		if err != nil {
			return nil, err
		}
		prog.Globals = append(prog.Globals, g)
	}
	return prog, nil
}

func (p *Parser) typeName() (Type, error) {
	switch p.tok() {
	case KwInt:
		p.next()
		return TypeInt, nil
	case KwFloat:
		p.next()
		return TypeFloat, nil
	case KwVoid:
		p.next()
		return TypeVoid, nil
	}
	return TypeVoid, p.errf("expected type name, found %v", p.tok())
}

// varDeclRest parses the remainder of a variable declaration after the type
// and name have been consumed. Arrays are permitted only at global scope.
func (p *Parser) varDeclRest(typ Type, name Lexeme, allowArray bool) (*VarDecl, error) {
	d := &VarDecl{Name: name.Text, Type: typ, Pos: name.Pos}
	if p.tok() == LBracket {
		if !allowArray {
			return nil, p.errf("arrays are only permitted at global scope")
		}
		p.next()
		lenTok, err := p.expect(INTLIT)
		if err != nil {
			return nil, err
		}
		n, err := parseIntLit(lenTok.Text)
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("hlc: %v: bad array length %q", lenTok.Pos, lenTok.Text)
		}
		d.ArrayLen = int(n)
		if _, err := p.expect(RBracket); err != nil {
			return nil, err
		}
	} else if p.tok() == Assign {
		p.next()
		init, err := p.expr()
		if err != nil {
			return nil, err
		}
		d.Init = init
	}
	if _, err := p.expect(Semicolon); err != nil {
		return nil, err
	}
	return d, nil
}

func (p *Parser) funcDecl(ret Type, name Lexeme) (*FuncDecl, error) {
	fn := &FuncDecl{Name: name.Text, Ret: ret, Pos: name.Pos}
	if _, err := p.expect(LParen); err != nil {
		return nil, err
	}
	if p.tok() != RParen {
		for {
			typ, err := p.typeName()
			if err != nil {
				return nil, err
			}
			if typ == TypeVoid {
				return nil, p.errf("parameter cannot have type void")
			}
			pname, err := p.expect(IDENT)
			if err != nil {
				return nil, err
			}
			fn.Params = append(fn.Params, Param{Name: pname.Text, Type: typ})
			if p.tok() != Comma {
				break
			}
			p.next()
		}
	}
	if _, err := p.expect(RParen); err != nil {
		return nil, err
	}
	body, err := p.block()
	if err != nil {
		return nil, err
	}
	fn.Body = body
	return fn, nil
}

func (p *Parser) block() (*Block, error) {
	if _, err := p.expect(LBrace); err != nil {
		return nil, err
	}
	b := &Block{}
	for p.tok() != RBrace {
		if p.tok() == EOF {
			return nil, p.errf("unexpected EOF in block")
		}
		s, err := p.stmt()
		if err != nil {
			return nil, err
		}
		b.Stmts = append(b.Stmts, s)
	}
	p.next() // consume }
	return b, nil
}

// blockOrStmt parses either a braced block or a single statement, always
// returning a Block (normalizing `if (c) x = 1;` to `if (c) { x = 1; }`).
func (p *Parser) blockOrStmt() (*Block, error) {
	if p.tok() == LBrace {
		return p.block()
	}
	s, err := p.stmt()
	if err != nil {
		return nil, err
	}
	return &Block{Stmts: []Stmt{s}}, nil
}

func (p *Parser) stmt() (Stmt, error) {
	switch p.tok() {
	case KwInt, KwFloat:
		typ, _ := p.typeName()
		name, err := p.expect(IDENT)
		if err != nil {
			return nil, err
		}
		d, err := p.varDeclRest(typ, name, false)
		if err != nil {
			return nil, err
		}
		return &DeclStmt{Decl: d}, nil
	case KwIf:
		return p.ifStmt()
	case KwFor:
		return p.forStmt()
	case KwWhile:
		return p.whileStmt()
	case KwBreak:
		pos := p.next().Pos
		if _, err := p.expect(Semicolon); err != nil {
			return nil, err
		}
		return &BreakStmt{Pos: pos}, nil
	case KwContinue:
		pos := p.next().Pos
		if _, err := p.expect(Semicolon); err != nil {
			return nil, err
		}
		return &ContinueStmt{Pos: pos}, nil
	case KwReturn:
		pos := p.next().Pos
		var x Expr
		if p.tok() != Semicolon {
			var err error
			x, err = p.expr()
			if err != nil {
				return nil, err
			}
		}
		if _, err := p.expect(Semicolon); err != nil {
			return nil, err
		}
		return &ReturnStmt{X: x, Pos: pos}, nil
	case KwPrint:
		return p.printStmt()
	case LBrace:
		return p.block()
	}
	s, err := p.simpleStmt()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(Semicolon); err != nil {
		return nil, err
	}
	return s, nil
}

// simpleStmt parses an assignment, increment/decrement, or call statement
// without the trailing semicolon (shared by stmt and for-headers).
func (p *Parser) simpleStmt() (Stmt, error) {
	if p.tok() == IDENT && p.peekTok(1) == LParen {
		call, err := p.primary()
		if err != nil {
			return nil, err
		}
		c := call.(*CallExpr)
		return &ExprStmt{X: c, Pos: c.Pos}, nil
	}
	lv, err := p.lvalue()
	if err != nil {
		return nil, err
	}
	pos := p.cur().Pos
	switch p.tok() {
	case Inc:
		p.next()
		return &AssignStmt{LHS: lv, Op: PlusEq, RHS: &IntLit{Value: 1, Pos: pos}, Pos: pos}, nil
	case Dec:
		p.next()
		return &AssignStmt{LHS: lv, Op: MinusEq, RHS: &IntLit{Value: 1, Pos: pos}, Pos: pos}, nil
	case Assign, PlusEq, MinusEq, StarEq, SlashEq, PercentEq, AmpEq, PipeEq, CaretEq, ShlEq, ShrEq:
		op := p.next().Tok
		rhs, err := p.expr()
		if err != nil {
			return nil, err
		}
		return &AssignStmt{LHS: lv, Op: op, RHS: rhs, Pos: pos}, nil
	}
	return nil, p.errf("expected assignment operator, found %v", p.tok())
}

func (p *Parser) lvalue() (LValue, error) {
	name, err := p.expect(IDENT)
	if err != nil {
		return nil, err
	}
	if p.tok() == LBracket {
		p.next()
		idx, err := p.expr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(RBracket); err != nil {
			return nil, err
		}
		return &IndexExpr{Name: name.Text, Idx: idx, Pos: name.Pos}, nil
	}
	return &VarRef{Name: name.Text, Pos: name.Pos}, nil
}

func (p *Parser) ifStmt() (Stmt, error) {
	pos := p.next().Pos // if
	if _, err := p.expect(LParen); err != nil {
		return nil, err
	}
	cond, err := p.expr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(RParen); err != nil {
		return nil, err
	}
	then, err := p.blockOrStmt()
	if err != nil {
		return nil, err
	}
	st := &IfStmt{Cond: cond, Then: then, Pos: pos}
	if p.tok() == KwElse {
		p.next()
		els, err := p.blockOrStmt()
		if err != nil {
			return nil, err
		}
		st.Else = els
	}
	return st, nil
}

func (p *Parser) forStmt() (Stmt, error) {
	pos := p.next().Pos // for
	if _, err := p.expect(LParen); err != nil {
		return nil, err
	}
	st := &ForStmt{Pos: pos}
	if p.tok() != Semicolon {
		if p.tok() == KwInt || p.tok() == KwFloat {
			typ, _ := p.typeName()
			name, err := p.expect(IDENT)
			if err != nil {
				return nil, err
			}
			d := &VarDecl{Name: name.Text, Type: typ, Pos: name.Pos}
			if p.tok() == Assign {
				p.next()
				init, err := p.expr()
				if err != nil {
					return nil, err
				}
				d.Init = init
			}
			st.Init = &DeclStmt{Decl: d}
		} else {
			s, err := p.simpleStmt()
			if err != nil {
				return nil, err
			}
			st.Init = s
		}
	}
	if _, err := p.expect(Semicolon); err != nil {
		return nil, err
	}
	if p.tok() != Semicolon {
		cond, err := p.expr()
		if err != nil {
			return nil, err
		}
		st.Cond = cond
	}
	if _, err := p.expect(Semicolon); err != nil {
		return nil, err
	}
	if p.tok() != RParen {
		post, err := p.simpleStmt()
		if err != nil {
			return nil, err
		}
		st.Post = post
	}
	if _, err := p.expect(RParen); err != nil {
		return nil, err
	}
	body, err := p.blockOrStmt()
	if err != nil {
		return nil, err
	}
	st.Body = body
	return st, nil
}

func (p *Parser) whileStmt() (Stmt, error) {
	pos := p.next().Pos // while
	if _, err := p.expect(LParen); err != nil {
		return nil, err
	}
	cond, err := p.expr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(RParen); err != nil {
		return nil, err
	}
	body, err := p.blockOrStmt()
	if err != nil {
		return nil, err
	}
	return &WhileStmt{Cond: cond, Body: body, Pos: pos}, nil
}

func (p *Parser) printStmt() (Stmt, error) {
	pos := p.next().Pos // print
	if _, err := p.expect(LParen); err != nil {
		return nil, err
	}
	st := &PrintStmt{Pos: pos}
	if p.tok() != RParen {
		for {
			a, err := p.expr()
			if err != nil {
				return nil, err
			}
			st.Args = append(st.Args, a)
			if p.tok() != Comma {
				break
			}
			p.next()
		}
	}
	if _, err := p.expect(RParen); err != nil {
		return nil, err
	}
	if _, err := p.expect(Semicolon); err != nil {
		return nil, err
	}
	return st, nil
}

// Expression parsing: precedence climbing with C's precedence levels.

var binPrec = map[Token]int{
	LOr:  1,
	LAnd: 2,
	Pipe: 3, Caret: 4, Amp: 5,
	Eq: 6, Neq: 6,
	Lt: 7, Le: 7, Gt: 7, Ge: 7,
	Shl: 8, Shr: 8,
	Plus: 9, Minus: 9,
	Star: 10, Slash: 10, Percent: 10,
}

func (p *Parser) expr() (Expr, error) { return p.binExpr(1) }

func (p *Parser) binExpr(minPrec int) (Expr, error) {
	lhs, err := p.unary()
	if err != nil {
		return nil, err
	}
	for {
		prec, ok := binPrec[p.tok()]
		if !ok || prec < minPrec {
			return lhs, nil
		}
		op := p.next()
		rhs, err := p.binExpr(prec + 1)
		if err != nil {
			return nil, err
		}
		lhs = &BinaryExpr{Op: op.Tok, X: lhs, Y: rhs, Pos: op.Pos}
	}
}

func (p *Parser) unary() (Expr, error) {
	switch p.tok() {
	case Minus, Not, Tilde:
		op := p.next()
		x, err := p.unary()
		if err != nil {
			return nil, err
		}
		return &UnaryExpr{Op: op.Tok, X: x, Pos: op.Pos}, nil
	case Plus:
		p.next()
		return p.unary()
	}
	return p.primary()
}

func (p *Parser) primary() (Expr, error) {
	switch p.tok() {
	case INTLIT:
		l := p.next()
		v, err := parseIntLit(l.Text)
		if err != nil {
			return nil, fmt.Errorf("hlc: %v: bad integer literal %q", l.Pos, l.Text)
		}
		return &IntLit{Value: v, Pos: l.Pos}, nil
	case FLOATLIT:
		l := p.next()
		v, err := strconv.ParseFloat(l.Text, 64)
		if err != nil {
			return nil, fmt.Errorf("hlc: %v: bad float literal %q", l.Pos, l.Text)
		}
		return &FloatLit{Value: v, Pos: l.Pos}, nil
	case LParen:
		p.next()
		x, err := p.expr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(RParen); err != nil {
			return nil, err
		}
		return x, nil
	case IDENT:
		name := p.next()
		switch p.tok() {
		case LParen:
			p.next()
			call := &CallExpr{Name: name.Text, Pos: name.Pos}
			if p.tok() != RParen {
				for {
					a, err := p.expr()
					if err != nil {
						return nil, err
					}
					call.Args = append(call.Args, a)
					if p.tok() != Comma {
						break
					}
					p.next()
				}
			}
			if _, err := p.expect(RParen); err != nil {
				return nil, err
			}
			return call, nil
		case LBracket:
			p.next()
			idx, err := p.expr()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(RBracket); err != nil {
				return nil, err
			}
			return &IndexExpr{Name: name.Text, Idx: idx, Pos: name.Pos}, nil
		}
		return &VarRef{Name: name.Text, Pos: name.Pos}, nil
	}
	return nil, p.errf("expected expression, found %v", p.tok())
}

func parseIntLit(text string) (int64, error) {
	if len(text) > 2 && (text[0:2] == "0x" || text[0:2] == "0X") {
		u, err := strconv.ParseUint(text[2:], 16, 64)
		return int64(u), err
	}
	return strconv.ParseInt(text, 10, 64)
}
