package cpu

import (
	"testing"

	"repro/internal/compiler"
	"repro/internal/hlc/hlctest"
	"repro/internal/isa"
	"repro/internal/vm"
)

func compileFor(t *testing.T, src string, target *isa.Desc, level compiler.OptLevel) *isa.Program {
	t.Helper()
	cp := hlctest.MustCheck(src)
	prog, err := compiler.Compile(cp, target, level)
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

const loopSrc = `
int data[2048];
void main() {
  for (int i = 0; i < 2048; i++) { data[i] = i; }
  int sum = 0;
  for (int r = 0; r < 30; r++) {
    for (int i = 0; i < 2048; i++) { sum += data[i]; }
  }
  print(sum);
}`

func TestSimulateBasics(t *testing.T) {
	prog := compileFor(t, loopSrc, isa.AMD64, compiler.O2)
	res, err := Simulate(prog, nil, Simulated2Wide(16), 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Instrs == 0 || res.Cycles == 0 {
		t.Fatal("empty simulation result")
	}
	if res.CPI() < 0.3 || res.CPI() > 30 {
		t.Errorf("implausible CPI %.2f", res.CPI())
	}
	if res.BranchAcc() < 0.8 {
		t.Errorf("loop branches should predict well, got %.3f", res.BranchAcc())
	}
	run, err := vm.New(prog).Run(vm.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if run.DynInstrs != res.Instrs {
		t.Errorf("timed %d instructions, the program executes %d", res.Instrs, run.DynInstrs)
	}
	if run.Output[0] != "62883840" { // 30 * 2047*2048/2
		t.Errorf("wrong program output: %v", run.Output)
	}
}

func TestWiderMachineIsFaster(t *testing.T) {
	prog := compileFor(t, loopSrc, isa.AMD64, compiler.O2)
	narrow := Simulated2Wide(16)
	narrow.Width = 1
	wide := Simulated2Wide(16)
	wide.Width = 4
	rn, err := Simulate(prog, nil, narrow, 0)
	if err != nil {
		t.Fatal(err)
	}
	rw, err := Simulate(prog, nil, wide, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rw.Cycles >= rn.Cycles {
		t.Errorf("4-wide (%d cycles) should beat 1-wide (%d cycles)", rw.Cycles, rn.Cycles)
	}
}

func TestCacheSizeMattersForLargeWorkingSet(t *testing.T) {
	// Dependent (index-chasing) loads over a 16KB working set: with a 4KB
	// L1 every chased load pays L2 latency on the critical path, so the
	// small-cache machine must burn more cycles — the Fig. 10 effect.
	src := `
int next[4096];
void main() {
  for (int i = 0; i < 4096; i++) { next[i] = (i * 1677 + 811) % 4096; }
  int p = 0;
  for (int r = 0; r < 200000; r++) { p = next[p]; }
  print(p);
}`
	prog := compileFor(t, src, isa.AMD64, compiler.O2)
	small, err := Simulate(prog, nil, Simulated2Wide(4), 0)
	if err != nil {
		t.Fatal(err)
	}
	big, err := Simulate(prog, nil, Simulated2Wide(32), 0)
	if err != nil {
		t.Fatal(err)
	}
	if small.L1.MissRate() <= big.L1.MissRate() {
		t.Errorf("4KB L1 miss rate (%.4f) should exceed 32KB (%.4f)",
			small.L1.MissRate(), big.L1.MissRate())
	}
	if small.Cycles <= big.Cycles {
		t.Errorf("4KB L1 (%d cycles) should be slower than 32KB (%d cycles)",
			small.Cycles, big.Cycles)
	}
}

func TestDependentChainSlowerThanIndependent(t *testing.T) {
	dep := `
void main() {
  int x = 1;
  for (int i = 0; i < 100000; i++) { x = x * 3 + 1; }
  print(x);
}`
	indep := `
void main() {
  int a = 1; int b = 1; int c = 1; int d = 1;
  for (int i = 0; i < 25000; i++) {
    a = a * 3 + 1; b = b * 3 + 1; c = c * 3 + 1; d = d * 3 + 1;
  }
  print(a + b + c + d);
}`
	cfg := Simulated2Wide(16)
	cfg.Width = 4
	rd, err := Simulate(compileFor(t, dep, isa.AMD64, compiler.O2), nil, cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	ri, err := Simulate(compileFor(t, indep, isa.AMD64, compiler.O2), nil, cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Equal work; the independent version should achieve lower CPI.
	if ri.CPI() >= rd.CPI() {
		t.Errorf("independent chains CPI %.2f should beat dependent chain CPI %.2f", ri.CPI(), rd.CPI())
	}
}

func TestEPICBenefitsFromScheduling(t *testing.T) {
	src := `
int out[256];
void main() {
  int a = 3; int b = 5; int c = 7; int d = 11;
  for (int r = 0; r < 200; r++) {
    for (int i = 0; i < 256; i++) {
      out[i] = a * i + b * i + c * i + d * i;
    }
  }
  print(out[255]);
}`
	o1 := compileFor(t, src, isa.IA64, compiler.O1)
	o2 := compileFor(t, src, isa.IA64, compiler.O2)
	r1, err := Simulate(o1, nil, Itanium2, 0)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Simulate(o2, nil, Itanium2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Cycles >= r1.Cycles {
		t.Errorf("EPIC O2 (%d cycles) should beat O1 (%d cycles) via bundling", r2.Cycles, r1.Cycles)
	}
	// The paper's Fig. 11 shows a substantial (~25%) O2-over-O1 gain on
	// Itanium; require at least a 10% improvement here.
	if float64(r2.Cycles) > 0.9*float64(r1.Cycles) {
		t.Errorf("EPIC scheduling gain too small: O1=%d O2=%d", r1.Cycles, r2.Cycles)
	}
}

func TestMispredictPenaltyCosts(t *testing.T) {
	// Data-dependent unpredictable branches (fresh pseudorandom bit each
	// iteration, taken from a high LCG bit so the sequence never repeats
	// within the run): higher penalty => more cycles.
	src := `
void main() {
  int seed = 12345;
  int sum = 0;
  for (int i = 0; i < 120000; i++) {
    seed = (seed * 1103515245 + 12345) & 0x7FFFFFFF;
    if (((seed >> 16) & 1) == 1) { sum += 3; } else { sum -= 1; }
  }
  print(sum);
}`
	prog := compileFor(t, src, isa.AMD64, compiler.O2)
	cheap := Simulated2Wide(16)
	cheap.MispredictPenalty = 2
	dear := Simulated2Wide(16)
	dear.MispredictPenalty = 30
	rc, err := Simulate(prog, nil, cheap, 0)
	if err != nil {
		t.Fatal(err)
	}
	rd, err := Simulate(prog, nil, dear, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rd.BranchAcc() > 0.95 {
		t.Errorf("random branches predicted too well: %.3f", rd.BranchAcc())
	}
	if rd.Cycles <= rc.Cycles {
		t.Errorf("penalty 30 (%d cycles) should cost more than penalty 2 (%d)", rd.Cycles, rc.Cycles)
	}
}

func TestMachineISAMismatchRejected(t *testing.T) {
	prog := compileFor(t, "void main() { print(1); }", isa.X86, compiler.O0)
	if _, err := Simulate(prog, nil, Core2, 0); err == nil {
		t.Error("expected ISA mismatch error")
	}
}

func TestTableIIIMachineList(t *testing.T) {
	if len(Machines) != 5 {
		t.Fatalf("Table III lists 5 machines, got %d", len(Machines))
	}
	names := map[string]bool{}
	for _, m := range Machines {
		names[m.Name] = true
		if m.FreqGHz <= 0 || m.L1KB <= 0 || m.L2KB <= 0 {
			t.Errorf("machine %s has incomplete configuration", m.Name)
		}
	}
	if !names["Itanium 2"] || !names["Core i7"] {
		t.Error("missing Table III machines")
	}
	if !Itanium2.ISA.EPIC || Itanium2.ISA != isa.IA64 {
		t.Error("Itanium 2 must be the EPIC/IA64 machine")
	}
}

func TestFrequencyScalesTime(t *testing.T) {
	prog := compileFor(t, loopSrc, isa.X86, compiler.O2)
	r30, err := Simulate(prog, nil, Pentium4_3000, 0)
	if err != nil {
		t.Fatal(err)
	}
	prog2 := compileFor(t, loopSrc, isa.X86, compiler.O2)
	r28, err := Simulate(prog2, nil, Pentium4_2800, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Nearly identical microarchitecture: the 3GHz part should win on
	// wall-clock time.
	if r30.TimeSec >= r28.TimeSec {
		t.Errorf("3GHz P4 (%.6fs) should beat 2.8GHz P4 (%.6fs)", r30.TimeSec, r28.TimeSec)
	}
}
