package compiler_test

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/compiler"
	"repro/internal/experiments"
	"repro/internal/hlc"
	"repro/internal/isa"
	"repro/internal/vm"
)

// levelSlack is how much more a higher optimization level may execute
// than the level below it before it counts as a regression.
const levelSlack = 1.01

// knownLevelRegressions lists the level regressions the quick-suite
// originals show today, one entry per check that fails: "<workload>
// <isa> -O<n+1> count" when -O(n+1) executes more than levelSlack times
// the instructions of -On, and "<workload> <isa> -O2 slots" when -O2
// executes more frame-slot accesses (LDL plus STL) than -O1. The causes
// are in the register allocator, which spills the interval ending
// furthest away, whole; ROADMAP.md describes them. A compiler change that
// fixes an entry removes it here; the list only shrinks.
var knownLevelRegressions = []string{
	"adpcm/small1 x86v -O2 count",
	"adpcm/small1 amd64v -O2 count",
	"adpcm/small1 amd64v -O2 slots",
	"basicmath/small x86v -O2 count",
	"basicmath/small amd64v -O2 slots",
	"bitcount/small x86v -O2 count",
	"bitcount/small amd64v -O3 count",
	"bitcount/small ia64v -O3 count",
	"crc32/small x86v -O1 count",
	"crc32/small amd64v -O2 slots",
	"dijkstra/small amd64v -O2 slots",
	"fft/small1 amd64v -O2 count",
	"fft/small1 amd64v -O2 slots",
	"gsm/small1 amd64v -O2 slots",
	"jpeg/large1 amd64v -O2 slots",
	"patricia/small amd64v -O2 slots",
	"qsort/large x86v -O2 count",
	"qsort/large amd64v -O2 slots",
	"sha/small x86v -O3 count",
	"sha/small amd64v -O3 count",
	"sha/small amd64v -O2 slots",
	"sha/small ia64v -O3 count",
	"stringsearch/small amd64v -O2 count",
	"stringsearch/small amd64v -O2 slots",
	"susan/small2 amd64v -O2 slots",
}

// TestOptimizationLevelsDoNotRegress is a metamorphic test of the
// optimization levels on every quick-suite original on x86v, amd64v and
// ia64v: a higher level must not execute more instructions than the
// level below it (within levelSlack), and on amd64v and ia64v -O2 must
// not execute more frame-slot accesses than -O1. It fails on a regression
// that is not in knownLevelRegressions, and on a listed one that is gone.
func TestOptimizationLevelsDoNotRegress(t *testing.T) {
	var found []string
	for _, w := range experiments.Quick() {
		prog, err := hlc.Parse(w.Source)
		if err != nil {
			t.Fatal(err)
		}
		cp, err := hlc.Check(prog)
		if err != nil {
			t.Fatal(err)
		}
		for _, target := range []*isa.Desc{isa.X86, isa.AMD64, isa.IA64} {
			dyn := make([]uint64, len(compiler.Levels))
			slots := make([]uint64, len(compiler.Levels))
			for i, level := range compiler.Levels {
				prog, err := compiler.Compile(cp, target, level)
				if err != nil {
					t.Fatalf("%s %s %v: %v", w.Name, target.Name, level, err)
				}
				if dyn[i], slots[i], err = countRun(prog, w.Setup); err != nil {
					t.Fatalf("%s %s %v: %v", w.Name, target.Name, level, err)
				}
			}
			for n := 0; n+1 < len(dyn); n++ {
				if float64(dyn[n+1]) > levelSlack*float64(dyn[n]) {
					found = append(found, fmt.Sprintf("%s %s -O%d count", w.Name, target.Name, n+1))
					t.Logf("%s %s: -O%d runs %d instructions, -O%d %d", w.Name, target.Name, n+1, dyn[n+1], n, dyn[n])
				}
			}
			if target != isa.X86 && slots[2] > slots[1] {
				found = append(found, fmt.Sprintf("%s %s -O2 slots", w.Name, target.Name))
				t.Logf("%s %s: -O2 makes %d slot accesses, -O1 %d", w.Name, target.Name, slots[2], slots[1])
			}
		}
	}
	for _, v := range found {
		if !slices.Contains(knownLevelRegressions, v) {
			t.Errorf("new optimization-level regression: %s", v)
		}
	}
	for _, v := range knownLevelRegressions {
		if !slices.Contains(found, v) {
			t.Errorf("listed regression %q no longer occurs: remove it from knownLevelRegressions", v)
		}
	}
}

// countRun runs prog on the workload's inputs and returns its dynamic
// instruction count and how many of those were frame-slot accesses.
func countRun(prog *isa.Program, setup func(*vm.VM) error) (dyn, slots uint64, err error) {
	m := vm.New(prog)
	if setup != nil {
		if err := setup(m); err != nil {
			return 0, 0, err
		}
	}
	lay := m.Layout()
	isSlot := make([]bool, lay.NumSites())
	lay.Walk(func(s int, _ vm.SiteLoc, in *isa.Instr) {
		isSlot[s] = in.Op == isa.LDL || in.Op == isa.STL
	})
	res, err := m.Run(vm.Config{Hook: func(ev *vm.Event) {
		if isSlot[ev.Site] {
			slots++
		}
	}})
	return res.DynInstrs, slots, err
}
