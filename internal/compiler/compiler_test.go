package compiler

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/hlc"
	"repro/internal/isa"
	"repro/internal/vm"
)

// run compiles src for the given ISA/level, applies scalar-global
// initializers, runs it, and returns the result.
func run(t *testing.T, src string, target *isa.Desc, level OptLevel) vm.Result {
	t.Helper()
	cp := hlc.MustCheck(src)
	prog, err := Compile(cp, target, level)
	if err != nil {
		t.Fatalf("compile %s %v: %v", target.Name, level, err)
	}
	m := vm.New(prog)
	ints, floats, err := GlobalInits(cp)
	if err != nil {
		t.Fatal(err)
	}
	for name, v := range ints {
		if err := m.SetInt(name, v); err != nil {
			t.Fatal(err)
		}
	}
	for name, v := range floats {
		if err := m.SetFloat(name, v); err != nil {
			t.Fatal(err)
		}
	}
	res, err := m.Run(vm.Config{MaxInstrs: 50_000_000})
	if err != nil {
		t.Fatalf("run %s %v: %v", target.Name, level, err)
	}
	return res
}

// allTargets runs src at every ISA × level combination and asserts all
// executions print the same output as the reference (x86v at O0).
func allTargets(t *testing.T, src string, wantOutput []string) map[string]vm.Result {
	t.Helper()
	results := make(map[string]vm.Result)
	var ref vm.Result
	first := true
	for _, target := range []*isa.Desc{isa.X86, isa.AMD64, isa.IA64} {
		for _, level := range Levels {
			key := fmt.Sprintf("%s%v", target.Name, level)
			res := run(t, src, target, level)
			results[key] = res
			if first {
				ref = res
				first = false
				if wantOutput != nil {
					if len(res.Output) != len(wantOutput) {
						t.Fatalf("%s: output %v, want %v", key, res.Output, wantOutput)
					}
					for i := range wantOutput {
						if res.Output[i] != wantOutput[i] {
							t.Fatalf("%s: output[%d] = %q, want %q", key, i, res.Output[i], wantOutput[i])
						}
					}
				}
				continue
			}
			if res.OutputHash != ref.OutputHash || res.Prints != ref.Prints {
				t.Errorf("%s: output diverges from reference\n got: %v\nwant: %v",
					key, res.Output, ref.Output)
			}
		}
	}
	return results
}

func TestCompileArithmetic(t *testing.T) {
	allTargets(t, `
void main() {
  int a = 6;
  int b = 7;
  print(a * b);
  print(a + b * 2);
  print((a + b) * 2);
  print(b / a);
  print(b % a);
  print(a - b);
  print(-a);
  print(~a);
  print(a << 2);
  print(100 >> 2);
  print(a & b);
  print(a | b);
  print(a ^ b);
}`, []string{"42", "20", "26", "1", "1", "-1", "-6", "-7", "24", "25", "6", "7", "1"})
}

func TestCompileComparisonsAndLogic(t *testing.T) {
	allTargets(t, `
void main() {
  int a = 3;
  int b = 5;
  print(a < b);
  print(a > b);
  print(a <= 3);
  print(a >= 4);
  print(a == 3);
  print(a != 3);
  print(a < b && b < 10);
  print(a > b || b == 5);
  print(!(a == 3));
  print(a < b && b > 100);
}`, []string{"1", "0", "1", "0", "1", "0", "1", "1", "0", "0"})
}

func TestCompileShortCircuitSideEffects(t *testing.T) {
	// The right operand must not be evaluated when short-circuited.
	allTargets(t, `
int calls;
int bump() {
  calls = calls + 1;
  return 1;
}
void main() {
  int x = 0;
  if (x == 1 && bump() == 1) { print(999); }
  print(calls);
  if (x == 0 || bump() == 1) { print(7); }
  print(calls);
}`, []string{"0", "7", "0"})
}

func TestCompileFloat(t *testing.T) {
	allTargets(t, `
void main() {
  float a = 1.5;
  float b = 2.5;
  print(a + b);
  print(a * b);
  print(b / a);
  print(a - b);
  print(-a);
  print(a < b);
  print(sqrt(16.0));
  print(fabs(-3.25));
  print(itof(3) + 0.5);
  print(ftoi(2.75));
  int i = 10;
  float mixed = a + i;
  print(mixed);
}`, []string{"4", "3.75", "1.66666666667", "-1", "-1.5", "1", "4", "3.25", "3.5", "2", "11.5"})
}

func TestCompileLoops(t *testing.T) {
	allTargets(t, `
void main() {
  int sum = 0;
  for (int i = 0; i < 10; i++) { sum += i; }
  print(sum);
  int j = 0;
  while (j < 5) { j++; }
  print(j);
  int k = 0;
  for (int i = 0; i < 100; i++) {
    if (i == 5) { continue; }
    if (i == 8) { break; }
    k += i;
  }
  print(k);
  int n = 0;
  for (;;) { n++; if (n == 3) { break; } }
  print(n);
}`, []string{"45", "5", "23", "3"})
}

func TestCompileNestedLoops(t *testing.T) {
	allTargets(t, `
void main() {
  int total = 0;
  for (int i = 0; i < 8; i++) {
    for (int j = 0; j < 8; j++) {
      if (j > i) { break; }
      total += 1;
    }
  }
  print(total);
}`, []string{"36"})
}

func TestCompileArrays(t *testing.T) {
	allTargets(t, `
int a[16];
float f[4];
void main() {
  for (int i = 0; i < 16; i++) { a[i] = i * i; }
  int sum = 0;
  for (int i = 0; i < 16; i++) { sum += a[i]; }
  print(sum);
  a[3] += 10;
  print(a[3]);
  f[0] = 1.25;
  f[1] = f[0] * 2.0;
  print(f[1]);
  print(a[a[2]]);
}`, []string{"1240", "19", "2.5", "16"})
}

func TestCompileCallsAndRecursion(t *testing.T) {
	allTargets(t, `
int fact(int n) {
  if (n <= 1) { return 1; }
  return n * fact(n - 1);
}
int add3(int a, int b, int c) { return a + b + c; }
void tell(int x) { print(x); }
void main() {
  print(fact(10));
  print(add3(1, 2, 3));
  print(add3(fact(3), fact(4), 5));
  tell(77);
}`, []string{"3628800", "6", "35", "77"})
}

func TestCompileGlobalScalars(t *testing.T) {
	allTargets(t, `
int counter = 5;
float ratio = 0.5;
int acc;
void step() { counter = counter + 1; acc += counter; }
void main() {
  step();
  step();
  print(counter);
  print(acc);
  print(ratio * 4.0);
}`, []string{"7", "13", "2"})
}

func TestCompileFibonacciExample(t *testing.T) {
	// The paper's running example (Fig. 3).
	allTargets(t, `
int fib(int n) {
  int a = 0;
  int b = 1;
  int sum = 0;
  for (int i = 0; i < n; i++) {
    sum = a + b;
    if (sum < 0) { print(0); break; }
    a = b;
    b = sum;
  }
  return sum;
}
void main() { print(fib(20)); }`, []string{"10946"})
}

func TestCompileMasked32BitOps(t *testing.T) {
	// CRC-style unsigned 32-bit arithmetic emulated with masks.
	allTargets(t, `
void main() {
  int crc = 0xFFFFFFFF;
  int x = 0xEDB88320;
  crc = (crc >> 1) ^ x;
  crc = crc & 0xFFFFFFFF;
  print(crc);
  int v = 0x80000000;
  print(v >> 4);
}`, []string{"2454158559", "134217728"})
}

func TestOptimizationReducesDynCount(t *testing.T) {
	src := `
int data[256];
void main() {
  for (int i = 0; i < 256; i++) { data[i] = i; }
  int sum = 0;
  for (int r = 0; r < 50; r++) {
    for (int i = 0; i < 256; i++) {
      sum += data[i] * 2 + 1;
    }
  }
  print(sum);
}`
	counts := make(map[OptLevel]uint64)
	for _, level := range Levels {
		res := run(t, src, isa.AMD64, level)
		counts[level] = res.DynInstrs
	}
	if counts[O1] >= counts[O0] {
		t.Errorf("O1 (%d) should execute fewer instructions than O0 (%d)", counts[O1], counts[O0])
	}
	if counts[O2] > counts[O1] {
		t.Errorf("O2 (%d) should not exceed O1 (%d)", counts[O2], counts[O1])
	}
	if float64(counts[O1]) > 0.8*float64(counts[O0]) {
		t.Errorf("O1 should cut dynamic instructions substantially: O0=%d O1=%d", counts[O0], counts[O1])
	}
}

func TestRegisterPressureSpills(t *testing.T) {
	// Many simultaneously-live variables force spills on x86v (6 regs)
	// but not on ia64v (48): x86v must execute more loads/stores at O2.
	src := `
void main() {
  int a = 1; int b = 2; int c = 3; int d = 4; int e = 5;
  int f = 6; int g = 7; int h = 8; int i = 9; int j = 10;
  int sum = 0;
  for (int r = 0; r < 100; r++) {
    sum += a + b + c + d + e + f + g + h + i + j;
    a += 1; b += 2; c += 3; d += 4; e += 5;
    f += 6; g += 7; h += 8; i += 9; j += 10;
  }
  print(sum);
}`
	resX86 := run(t, src, isa.X86, O2)
	resIA := run(t, src, isa.IA64, O2)
	if resX86.OutputHash != resIA.OutputHash {
		t.Fatalf("spilled and unspilled runs disagree: %v vs %v", resX86.Output, resIA.Output)
	}
	if resX86.DynInstrs <= resIA.DynInstrs {
		t.Errorf("x86v (%d instrs) should spill and execute more than ia64v (%d)",
			resX86.DynInstrs, resIA.DynInstrs)
	}
}

func TestEPICBundles(t *testing.T) {
	src := `
int out[64];
void main() {
  int a = 1; int b = 2; int c = 3;
  for (int i = 0; i < 64; i++) {
    out[i] = a * 3 + b * 5 + c * 7 + i;
  }
  print(out[63]);
}`
	cp := hlc.MustCheck(src)
	progO2, err := Compile(cp, isa.IA64, O2)
	if err != nil {
		t.Fatal(err)
	}
	progO0, err := Compile(cp, isa.IA64, O0)
	if err != nil {
		t.Fatal(err)
	}
	// O2 EPIC code must carry bundle annotations with some ILP (at least
	// one bundle holding more than one instruction).
	foundWide := false
	for _, f := range progO2.Funcs {
		for _, b := range f.Blocks {
			if b.Bundle == nil {
				if len(b.Instrs) > 0 {
					t.Fatalf("O2 EPIC block missing bundles")
				}
				continue
			}
			counts := map[int]int{}
			for _, bu := range b.Bundle {
				counts[bu]++
				if counts[bu] > 1 {
					foundWide = true
				}
				if counts[bu] > 3 {
					t.Fatalf("bundle wider than 3")
				}
			}
		}
	}
	if !foundWide {
		t.Error("O2 EPIC schedule has no multi-instruction bundles")
	}
	for _, f := range progO0.Funcs {
		for _, b := range f.Blocks {
			if b.Bundle != nil {
				t.Fatal("O0 code should not be scheduled")
			}
		}
	}
}

func TestInliningAtO3(t *testing.T) {
	src := `
int sq(int x) { return x * x; }
void main() {
  int sum = 0;
  for (int i = 0; i < 100; i++) { sum += sq(i); }
  print(sum);
}`
	cp := hlc.MustCheck(src)
	progO3, err := Compile(cp, isa.AMD64, O3)
	if err != nil {
		t.Fatal(err)
	}
	calls := 0
	for _, b := range progO3.Funcs[progO3.Entry].Blocks {
		for i := range b.Instrs {
			if b.Instrs[i].Op == isa.CALL {
				calls++
			}
		}
	}
	if calls != 0 {
		t.Errorf("O3 should inline sq; %d calls remain in main", calls)
	}
	resO3 := run(t, src, isa.AMD64, O3)
	resO0 := run(t, src, isa.AMD64, O0)
	if resO3.OutputHash != resO0.OutputHash {
		t.Fatalf("inlined output diverges: %v vs %v", resO3.Output, resO0.Output)
	}
}

func TestInstructionMixShiftsWithOptimization(t *testing.T) {
	// The Fig. 6 effect: the load fraction decreases from O0 to O2.
	src := `
int data[128];
void main() {
  for (int i = 0; i < 128; i++) { data[i] = i; }
  int sum = 0;
  for (int r = 0; r < 20; r++) {
    for (int i = 0; i < 128; i++) { sum += data[i]; }
  }
  print(sum);
}`
	loadFrac := func(level OptLevel) float64 {
		cp := hlc.MustCheck(src)
		prog, err := Compile(cp, isa.X86, level)
		if err != nil {
			t.Fatal(err)
		}
		lay := vm.LayoutOf(prog)
		m := vm.New(prog)
		var loads, total uint64
		_, err = m.Run(vm.Config{Hook: func(ev *vm.Event) {
			total++
			if lay.Instr(ev.Site).Class() == isa.ClassLoad {
				loads++
			}
		}})
		if err != nil {
			t.Fatal(err)
		}
		return float64(loads) / float64(total)
	}
	f0 := loadFrac(O0)
	f2 := loadFrac(O2)
	if f2 >= f0 {
		t.Errorf("load fraction should drop with optimization: O0=%.3f O2=%.3f", f0, f2)
	}
}

func TestCompileErrors(t *testing.T) {
	cp := hlc.MustCheck("void main() { print(1); }")
	if _, err := Compile(cp, nil, O0); err == nil {
		t.Error("expected error for nil ISA")
	}
	if _, err := Compile(cp, &isa.Desc{Name: "tiny", IntRegs: 2}, O0); err == nil {
		t.Error("expected error for too-few registers")
	}
}

func TestGlobalInitsRejectNonLiteral(t *testing.T) {
	prog := hlc.MustParse("int g = 1 + 2; void main() { print(g); }")
	cp, err := hlc.Check(prog)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := GlobalInits(cp); err == nil ||
		!strings.Contains(err.Error(), "literal") {
		t.Errorf("expected literal-initializer error, got %v", err)
	}
}

func TestDeterminism(t *testing.T) {
	src := `
int data[64];
void main() {
  for (int i = 0; i < 64; i++) { data[i] = i * 17 % 23; }
  int sum = 0;
  for (int i = 0; i < 64; i++) { sum += data[i]; }
  print(sum);
}`
	for _, target := range []*isa.Desc{isa.X86, isa.AMD64, isa.IA64} {
		a := run(t, src, target, O2)
		b := run(t, src, target, O2)
		if a.OutputHash != b.OutputHash || a.DynInstrs != b.DynInstrs {
			t.Errorf("%s: nondeterministic execution", target.Name)
		}
	}
}
