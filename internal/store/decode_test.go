package store_test

import (
	"reflect"
	"testing"

	"repro/internal/compiler"
	"repro/internal/experiments"
	"repro/internal/hlc"
	"repro/internal/isa"
	"repro/internal/store"
	"repro/internal/vm"
)

// quickPrograms compiles every quick-suite workload for each target and
// level.
func quickPrograms(t testing.TB, targets []*isa.Desc, levels []compiler.OptLevel) []*isa.Program {
	t.Helper()
	var progs []*isa.Program
	for _, w := range experiments.Quick() {
		ast, err := hlc.Parse(w.Source)
		if err != nil {
			t.Fatal(err)
		}
		cp, err := hlc.Check(ast)
		if err != nil {
			t.Fatal(err)
		}
		for _, target := range targets {
			for _, level := range levels {
				prog, err := compiler.Compile(cp, target, level)
				if err != nil {
					t.Fatalf("%s %s %v: %v", w.Name, target.Name, level, err)
				}
				progs = append(progs, prog)
			}
		}
	}
	return progs
}

// TestDecodeProgramQuickSuite checks that validation accepts everything
// the compiler emits: every quick-suite program on every ISA and level
// decodes to the program that was encoded.
func TestDecodeProgramQuickSuite(t *testing.T) {
	for _, prog := range quickPrograms(t, []*isa.Desc{isa.X86, isa.AMD64, isa.IA64}, compiler.Levels) {
		got, err := store.DecodeProgram(mustEncode(t, prog))
		if err != nil {
			t.Fatalf("%s: compiled program rejected: %v", prog.ISA.Name, err)
		}
		if !reflect.DeepEqual(prog.Funcs, got.Funcs) || !reflect.DeepEqual(prog.Globals, got.Globals) {
			t.Fatalf("%s: decoded program differs structurally", prog.ISA.Name)
		}
	}
}

// FuzzDecodeProgram asserts that no payload DecodeProgram accepts can make
// the VM panic: whatever decodes must load and run under a small
// instruction budget.
func FuzzDecodeProgram(f *testing.F) {
	f.Add(mustEncode(f, smallProgram()))
	for _, prog := range quickPrograms(f, []*isa.Desc{isa.AMD64, isa.IA64}, []compiler.OptLevel{compiler.O0, compiler.O3}) {
		f.Add(mustEncode(f, prog))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		prog, err := store.DecodeProgram(data)
		if err != nil {
			return
		}
		// Only a panic fails the target; a trap is a valid outcome. A
		// shallow stack keeps a recursive program's frames small.
		vm.New(prog).Run(vm.Config{MaxInstrs: 10_000, MaxDepth: 64})
	})
}
