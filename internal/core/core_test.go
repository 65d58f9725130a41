package core

import (
	"strings"
	"testing"

	"repro/internal/compiler"
	"repro/internal/hlc"
	"repro/internal/isa"
	"repro/internal/profile"
	"repro/internal/vm"
)

// profileSrc compiles src at O0 (as the paper prescribes) and profiles it.
func profileSrc(t *testing.T, name, src string) *profile.Profile {
	t.Helper()
	cp := hlc.MustCheck(src)
	prog, err := compiler.Compile(cp, isa.AMD64, compiler.O0)
	if err != nil {
		t.Fatal(err)
	}
	p, err := profile.Collect(prog, nil, name, profile.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// runClone compiles and executes a synthesized clone, returning the VM
// result and the dynamic mix.
func runClone(t *testing.T, clone *hlc.CheckedProgram, target *isa.Desc, level compiler.OptLevel) (vm.Result, [isa.NumClasses]uint64) {
	t.Helper()
	prog, err := compiler.Compile(clone, target, level)
	if err != nil {
		t.Fatalf("clone does not compile: %v", err)
	}
	var mix [isa.NumClasses]uint64
	lay := vm.LayoutOf(prog)
	m := vm.New(prog)
	res, err := m.Run(vm.Config{MaxInstrs: 100_000_000, Hook: func(ev *vm.Event) {
		mix[lay.Instr(ev.Site).Class()]++
	}})
	if err != nil {
		t.Fatalf("clone traps: %v", err)
	}
	return res, mix
}

const loopyWorkload = `
int table[4096];
int acc;
int mixv(int x) { return (x * 31 + 7) & 4095; }
void main() {
  int seed = 1;
  for (int i = 0; i < 4096; i++) {
    seed = mixv(seed + i);
    table[i] = seed;
  }
  for (int r = 0; r < 40; r++) {
    for (int i = 0; i < 4096; i++) {
      if (table[i] > 2048) { acc += table[i] >> 3; } else { acc -= 1; }
    }
  }
  print(acc);
}`

func TestSynthesizeRoundTrip(t *testing.T) {
	p := profileSrc(t, "loopy", loopyWorkload)
	clone, rep, err := Synthesize(p, Config{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Reduction < 2 {
		t.Errorf("expected a substantial reduction factor, got %d", rep.Reduction)
	}
	res, _ := runClone(t, clone, isa.AMD64, compiler.O0)
	if res.DynInstrs == 0 {
		t.Fatal("clone executed nothing")
	}
	// The clone must be much shorter-running than the original...
	if res.DynInstrs*2 > p.TotalDyn {
		t.Errorf("clone too long: %d vs original %d", res.DynInstrs, p.TotalDyn)
	}
	// ...but within a factor ~4 of the configured target.
	if res.DynInstrs < DefaultTargetDyn/4 || res.DynInstrs > DefaultTargetDyn*4 {
		t.Errorf("clone dynamic count %d far from target %d", res.DynInstrs, DefaultTargetDyn)
	}
}

func TestSynthesizeCoverage(t *testing.T) {
	// Table II's claim: patterns cover >95% of instructions. Our
	// threshold is slightly softer (>85%) since coverage depends on the
	// compiler's exact instruction selection.
	p := profileSrc(t, "loopy", loopyWorkload)
	_, rep, err := Synthesize(p, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Coverage < 0.85 {
		t.Errorf("pattern coverage %.3f below 0.85", rep.Coverage)
	}
	if rep.Coverage > 1.0001 {
		t.Errorf("coverage > 1: %f", rep.Coverage)
	}
}

func TestSynthesizeDeterministicBySeed(t *testing.T) {
	p := profileSrc(t, "loopy", loopyWorkload)
	a, _, err := Synthesize(p, Config{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := Synthesize(p, Config{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	c, _, err := Synthesize(p, Config{Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	if hlc.Print(a.Prog) != hlc.Print(b.Prog) {
		t.Error("same seed should reproduce the clone exactly")
	}
	if hlc.Print(a.Prog) == hlc.Print(c.Prog) {
		t.Error("different seeds should vary the clone")
	}
}

func TestCloneRunsAtAllLevelsAndISAs(t *testing.T) {
	p := profileSrc(t, "loopy", loopyWorkload)
	clone, _, err := Synthesize(p, Config{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, target := range []*isa.Desc{isa.X86, isa.AMD64, isa.IA64} {
		var ref vm.Result
		for i, level := range compiler.Levels {
			res, _ := runClone(t, clone, target, level)
			if i == 0 {
				ref = res
				continue
			}
			if res.OutputHash != ref.OutputHash {
				t.Errorf("%s %v: clone output diverges across levels", target.Name, level)
			}
		}
	}
}

func TestCloneMixResemblesOriginal(t *testing.T) {
	p := profileSrc(t, "loopy", loopyWorkload)
	clone, _, err := Synthesize(p, Config{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	_, mix := runClone(t, clone, isa.AMD64, compiler.O0)
	var cloneTotal uint64
	for _, c := range mix {
		cloneTotal += c
	}
	origLoads := float64(p.Mix[isa.ClassLoad]) / float64(p.TotalDyn)
	cloneLoads := float64(mix[isa.ClassLoad]) / float64(cloneTotal)
	origBranches := float64(p.Mix[isa.ClassBranch]) / float64(p.TotalDyn)
	cloneBranches := float64(mix[isa.ClassBranch]) / float64(cloneTotal)
	// Fig. 6-style agreement: same ballpark, not exact.
	if diff := cloneLoads - origLoads; diff < -0.15 || diff > 0.15 {
		t.Errorf("load fraction: original %.3f, clone %.3f", origLoads, cloneLoads)
	}
	if diff := cloneBranches - origBranches; diff < -0.10 || diff > 0.10 {
		t.Errorf("branch fraction: original %.3f, clone %.3f", origBranches, cloneBranches)
	}
}

func TestCloneContainsLoopsAndFunctions(t *testing.T) {
	p := profileSrc(t, "loopy", loopyWorkload)
	clone, rep, err := Synthesize(p, Config{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	src := hlc.Print(clone.Prog)
	if !strings.Contains(src, "for (") {
		t.Error("clone should contain for loops (SFGL loop annotation)")
	}
	if rep.Functions < 1 {
		t.Error("clone should have work functions")
	}
	if clone.Prog.Func("main") == nil {
		t.Fatal("clone has no main")
	}
	// The obfuscation property at the source level: no identifier of the
	// original survives (Section V.E precondition).
	for _, ident := range []string{"table", "acc", "mixv", "seed"} {
		if strings.Contains(src, ident) {
			t.Errorf("clone leaks original identifier %q", ident)
		}
	}
}

func TestSynthesizeFixedReduction(t *testing.T) {
	p := profileSrc(t, "loopy", loopyWorkload)
	cloneBig, repBig, err := Synthesize(p, Config{Reduction: 10, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	cloneSmall, repSmall, err := Synthesize(p, Config{Reduction: 100, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if repBig.Reduction != 10 || repSmall.Reduction != 100 {
		t.Fatalf("explicit reduction not honored: %d/%d", repBig.Reduction, repSmall.Reduction)
	}
	resBig, _ := runClone(t, cloneBig, isa.AMD64, compiler.O0)
	resSmall, _ := runClone(t, cloneSmall, isa.AMD64, compiler.O0)
	if resSmall.DynInstrs >= resBig.DynInstrs {
		t.Errorf("R=100 clone (%d instrs) should run shorter than R=10 (%d)",
			resSmall.DynInstrs, resBig.DynInstrs)
	}
}

func TestSynthesizeFloatWorkload(t *testing.T) {
	src := `
float sig[1024];
float outp[1024];
void main() {
  for (int i = 0; i < 1024; i++) { sig[i] = itof(i) * 0.01; }
  for (int r = 0; r < 30; r++) {
    for (int i = 0; i < 1024; i++) {
      outp[i] = sin(sig[i]) * 0.5 + sqrt(fabs(sig[i]));
    }
  }
  print(outp[10]);
}`
	p := profileSrc(t, "fft-ish", src)
	clone, _, err := Synthesize(p, Config{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	_, mix := runClone(t, clone, isa.AMD64, compiler.O0)
	var total uint64
	for _, c := range mix {
		total += c
	}
	origFP := float64(p.Mix[isa.ClassFPAdd]+p.Mix[isa.ClassFPMul]+p.Mix[isa.ClassFPDiv]) / float64(p.TotalDyn)
	cloneFP := float64(mix[isa.ClassFPAdd]+mix[isa.ClassFPMul]+mix[isa.ClassFPDiv]) / float64(total)
	if origFP < 0.05 {
		t.Fatalf("test workload should be FP-heavy, got %.3f", origFP)
	}
	if cloneFP < origFP/3 {
		t.Errorf("clone FP fraction %.3f too far below original %.3f", cloneFP, origFP)
	}
}

func TestConsolidate(t *testing.T) {
	p1 := profileSrc(t, "w1", loopyWorkload)
	p2 := profileSrc(t, "w2", `
int buf[256];
void main() {
  for (int r = 0; r < 500; r++) {
    for (int i = 0; i < 256; i++) { buf[i] = buf[i] ^ (i * 3); }
  }
  print(buf[0]);
}`)
	merged, err := Consolidate("both", p1, p2)
	if err != nil {
		t.Fatal(err)
	}
	if merged.TotalDyn != p1.TotalDyn+p2.TotalDyn {
		t.Error("consolidated totals should add")
	}
	if len(merged.Graph.Nodes) != len(p1.Graph.Nodes)+len(p2.Graph.Nodes) {
		t.Error("consolidated nodes should concatenate")
	}
	// IDs must stay unique.
	seen := map[int]bool{}
	for _, n := range merged.Graph.Nodes {
		if seen[n.ID] {
			t.Fatalf("duplicate node ID %d after consolidation", n.ID)
		}
		seen[n.ID] = true
	}
	clone, _, err := Synthesize(merged, Config{Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	res, _ := runClone(t, clone, isa.AMD64, compiler.O0)
	if res.DynInstrs == 0 {
		t.Fatal("consolidated clone executed nothing")
	}
	if _, err := Consolidate("empty"); err == nil {
		t.Error("expected error for empty consolidation")
	}
}

func TestSynthesizeErrors(t *testing.T) {
	if _, _, err := Synthesize(nil, Config{}); err == nil {
		t.Error("expected error for nil profile")
	}
}

func TestModuloFor(t *testing.T) {
	cases := []struct {
		taken, trans float64
	}{
		{0.5, 0.5}, {0.3, 0.3}, {0.9, 0.1}, {0.1, 0.9}, {0.0, 0.0}, {1.0, 1.0},
	}
	for _, tc := range cases {
		m, k := moduloFor(tc.taken, tc.trans)
		if m < 2 || m > 64 {
			t.Errorf("moduloFor(%v,%v): m=%d out of range", tc.taken, tc.trans, m)
		}
		if k < 1 || k > m-1 {
			t.Errorf("moduloFor(%v,%v): k=%d out of range for m=%d", tc.taken, tc.trans, k, m)
		}
	}
	// A 50% taken rate should split the period roughly in half.
	m, k := moduloFor(0.5, 0.5)
	frac := float64(k) / float64(m)
	if frac < 0.3 || frac > 0.7 {
		t.Errorf("moduloFor(0.5): k/m = %.2f, want ≈0.5", frac)
	}
}
