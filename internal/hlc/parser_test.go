package hlc

import (
	"strings"
	"testing"
)

const sampleProgram = `
int data[64];
int n = 10;
float scale = 2.5;

int add(int a, int b) {
  return a + b;
}

void main() {
  int sum = 0;
  for (int i = 0; i < n; i++) {
    sum = sum + data[i];
    if (sum > 100 && i != 3) {
      sum -= 1;
    } else {
      sum |= 2;
    }
  }
  while (sum > 0) {
    sum = sum - add(1, 2);
    if (sum == 7) { break; }
    if (sum == 9) { continue; }
  }
  print(sum);
}
`

func TestParseSample(t *testing.T) {
	prog, err := Parse(sampleProgram)
	if err != nil {
		t.Fatal(err)
	}
	if len(prog.Globals) != 3 {
		t.Errorf("globals = %d, want 3", len(prog.Globals))
	}
	if len(prog.Funcs) != 2 {
		t.Errorf("funcs = %d, want 2", len(prog.Funcs))
	}
	if prog.Global("data").ArrayLen != 64 {
		t.Errorf("data array length = %d, want 64", prog.Global("data").ArrayLen)
	}
	main := prog.Func("main")
	if main == nil || main.Ret != TypeVoid {
		t.Fatalf("main not found or wrong return type")
	}
}

func TestParsePrecedence(t *testing.T) {
	prog, err := Parse("void main() { int x; x = 1 + 2 * 3; }")
	if err != nil {
		t.Fatal(err)
	}
	body := prog.Funcs[0].Body.Stmts
	asn := body[1].(*AssignStmt)
	bin := asn.RHS.(*BinaryExpr)
	if bin.Op != Plus {
		t.Fatalf("top operator = %v, want +", bin.Op)
	}
	inner := bin.Y.(*BinaryExpr)
	if inner.Op != Star {
		t.Fatalf("inner operator = %v, want *", inner.Op)
	}
}

func TestParseShiftVsComparison(t *testing.T) {
	prog, err := Parse("void main() { int x; x = 1 << 2 < 3; }")
	if err != nil {
		t.Fatal(err)
	}
	asn := prog.Funcs[0].Body.Stmts[1].(*AssignStmt)
	top := asn.RHS.(*BinaryExpr)
	if top.Op != Lt {
		t.Fatalf("top operator = %v, want < (shift binds tighter)", top.Op)
	}
}

func TestParseIncDecDesugar(t *testing.T) {
	prog, err := Parse("void main() { int i = 0; i++; i--; }")
	if err != nil {
		t.Fatal(err)
	}
	body := prog.Funcs[0].Body.Stmts
	inc := body[1].(*AssignStmt)
	if inc.Op != PlusEq {
		t.Errorf("i++ desugar op = %v, want +=", inc.Op)
	}
	dec := body[2].(*AssignStmt)
	if dec.Op != MinusEq {
		t.Errorf("i-- desugar op = %v, want -=", dec.Op)
	}
}

func TestParseUnbracedBodies(t *testing.T) {
	prog, err := Parse(`
void main() {
  int s = 0;
  for (int i = 0; i < 4; i++) s += i;
  if (s > 0) s = 1; else s = 2;
  while (s > 0) s--;
  print(s);
}`)
	if err != nil {
		t.Fatal(err)
	}
	body := prog.Funcs[0].Body.Stmts
	if _, ok := body[1].(*ForStmt); !ok {
		t.Errorf("statement 1 is %T, want *ForStmt", body[1])
	}
	ifs := body[2].(*IfStmt)
	if ifs.Else == nil || len(ifs.Else.Stmts) != 1 {
		t.Errorf("else branch not normalized to block")
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"void main() { int x = ; }",
		"void main() { x ++ 3; }",
		"int main(void v) { }",
		"void main() { if x > 1 {} }",
		"void main() { int a[4]; }", // local arrays rejected
		"void v; ",
		"void main() { break }",
		"int g[0];",
	}
	for _, src := range cases {
		if _, err := Parse(src); err == nil {
			t.Errorf("expected parse error for %q", src)
		}
	}
}

func TestParseForHeaderVariants(t *testing.T) {
	srcs := []string{
		"void main() { for (;;) { break; } }",
		"void main() { int i; for (i = 0; i < 3; i++) { } }",
		"void main() { int i = 9; for (; i > 0; i--) { } }",
		"void main() { for (int i = 0; i < 3;) { i++; } }",
	}
	for _, src := range srcs {
		if _, err := Parse(src); err != nil {
			t.Errorf("%q: %v", src, err)
		}
	}
}

func TestPrintParseRoundTrip(t *testing.T) {
	prog, err := Parse(sampleProgram)
	if err != nil {
		t.Fatal(err)
	}
	printed := Print(prog)
	reparsed, err := Parse(printed)
	if err != nil {
		t.Fatalf("reparse failed: %v\nsource:\n%s", err, printed)
	}
	printed2 := Print(reparsed)
	if printed != printed2 {
		t.Fatalf("print/parse round trip not stable:\n--- first ---\n%s\n--- second ---\n%s", printed, printed2)
	}
}

func TestPrintPreservesPrecedence(t *testing.T) {
	// (1 + 2) * 3 must keep its parentheses through a round trip.
	src := "void main() { int x; x = (1 + 2) * 3; }"
	prog := mustParse(t, src)
	out := Print(prog)
	if !strings.Contains(out, "(1 + 2) * 3") {
		t.Fatalf("printer lost required parentheses:\n%s", out)
	}
}

func TestCheckSample(t *testing.T) {
	prog := mustParse(t, sampleProgram)
	cp, err := Check(prog)
	if err != nil {
		t.Fatal(err)
	}
	// main declares sum and the loop variable i.
	if got := len(checkedFunc(cp, "main").Locals); got != 2 {
		t.Errorf("main locals = %d, want 2", got)
	}
	if got := len(checkedFunc(cp, "add").Locals); got != 2 {
		t.Errorf("add locals (params) = %d, want 2", got)
	}
}

func TestCheckErrors(t *testing.T) {
	cases := []struct {
		name string
		src  string
		want string
	}{
		{"undefined var", "void main() { x = 1; }", "undefined variable"},
		{"undefined fn", "void main() { int x; x = f(); }", "undefined function"},
		{"no main", "int f() { return 1; }", "no main"},
		{"void assign", "void f() { } void main() { int x; x = f(); }", "cannot assign"},
		{"array no index", "int a[4]; void main() { int x; x = a; }", "without index"},
		{"index scalar", "int s; void main() { int x; x = s[0]; }", "not an array"},
		{"float mod", "void main() { float f; f = 1.5; int x; x = x % 1; x = x; f = f; } void g() { }", ""},
		{"bad mod", "void main() { float f = 1.0; int x; x = x; f %= 2; }", "requires int"},
		{"break outside", "void main() { break; }", "outside loop"},
		{"return type", "int f() { return 1.5; } void main() { }", "returns int, got float"},
		{"void return value", "void main() { return 3; }", "returns a value"},
		{"dup global", "int g; int g; void main() { }", "duplicate global"},
		{"global init not literal", "int g = 1 + 2; void main() { print(g); }", "must be a literal"},
		{"global init negated variable", "int h; int g = -h; void main() { print(g); }", "must be a literal"},
		{"global init negative float into int", "int g = -0.5; void main() { print(g); }", "cannot initialize int g with float"},
		{"global init negative literals", "int g = -1; float f = -0.5; float w = -2; void main() { print(g); }", ""},
		{"dup param", "void f(int a, int a) { } void main() { }", "duplicate parameter"},
		{"builtin arity", "void main() { float f; f = sqrt(1.0, 2.0); }", "expects 1"},
		{"call arity", "int f(int a) { return a; } void main() { int x; x = f(); }", "expects 1"},
		{"float shift", "void main() { int x; x = 1 << 2; float f; f = 1.0; x = x << f; }", "requires int operands"},
		{"print void", "void f() { } void main() { print(f()); }", "cannot print void"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			prog, err := Parse(tc.src)
			if err != nil {
				t.Fatalf("parse: %v", err)
			}
			_, err = Check(prog)
			if tc.want == "" {
				if err != nil {
					t.Fatalf("unexpected check error: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("got error %v, want substring %q", err, tc.want)
			}
		})
	}
}

func TestCheckIntToFloatWidening(t *testing.T) {
	src := `
float acc;
void main() {
  acc = 1;            // int -> float assign
  float f = 3;        // int -> float init
  f = f + 2;          // mixed arithmetic is float
  acc = f * 2 + 1;
  print(acc);
}`
	mustCheck(t, src)
	// Widening is one-way: mixed arithmetic is float, so it cannot
	// initialize an int.
	narrow := `
void main() {
  float f = 3;
  int i = f + 2;
  print(i);
}`
	prog, err := Parse(narrow)
	if err != nil {
		t.Fatal(err)
	}
	_, err = Check(prog)
	if err == nil || !strings.Contains(err.Error(), "cannot initialize int i with float") {
		t.Errorf("int i = f + 2: got error %v, want \"cannot initialize int i with float\"", err)
	}
}

func TestCheckShadowing(t *testing.T) {
	src := `
int x;
void main() {
  int x = 1;
  for (int x = 0; x < 3; x++) { print(x); }
  print(x);
}`
	cp := mustCheck(t, src)
	if cp == nil {
		t.Fatal("check failed")
	}
	if got := len(checkedFunc(cp, "main").Locals); got != 2 {
		t.Errorf("main locals = %d, want 2 (shadowing x's)", got)
	}
}

// checkedFunc returns the checked function of the given name.
func checkedFunc(cp *CheckedProgram, name string) *CheckedFunc {
	for _, cf := range cp.Funcs {
		if cf.Decl.Name == name {
			return cf
		}
	}
	return nil
}

// mustParse parses src, failing the test on error.
func mustParse(t *testing.T, src string) *Program {
	t.Helper()
	prog, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// mustCheck parses and checks src, failing the test on any error.
func mustCheck(t *testing.T, src string) *CheckedProgram {
	t.Helper()
	cp, err := Check(mustParse(t, src))
	if err != nil {
		t.Fatal(err)
	}
	return cp
}
