package workloads

import (
	"fmt"
	"testing"

	"repro/internal/compiler"
	"repro/internal/hlc/hlctest"
	"repro/internal/isa"
	"repro/internal/vm"
)

func runWorkload(t *testing.T, w *Workload, target *isa.Desc, level compiler.OptLevel) vm.Result {
	t.Helper()
	prog, err := compiler.Compile(hlctest.MustCheck(w.Source), target, level)
	if err != nil {
		t.Fatalf("%s: compile: %v", w.Name, err)
	}
	m := vm.New(prog)
	if err := w.Setup(m); err != nil {
		t.Fatalf("%s: setup: %v", w.Name, err)
	}
	res, err := m.Run(vm.Config{MaxInstrs: 80_000_000})
	if err != nil {
		t.Fatalf("%s: run: %v", w.Name, err)
	}
	return res
}

func TestSuiteShape(t *testing.T) {
	if got := len(All()); got != 32 {
		t.Fatalf("suite has %d workload/input pairs, want 32 (Fig. 4)", got)
	}
	counts := map[string]int{}
	for _, w := range All() {
		counts[w.Bench]++
	}
	if got := len(counts); got != 13 {
		t.Fatalf("suite has %d benchmark families, want 13", got)
	}
	want := map[string]int{
		"adpcm": 4, "basicmath": 2, "bitcount": 2, "crc32": 2, "dijkstra": 2,
		"fft": 3, "gsm": 4, "jpeg": 1, "patricia": 1, "qsort": 1, "sha": 2,
		"stringsearch": 2, "susan": 6,
	}
	for b, n := range want {
		if counts[b] != n {
			t.Errorf("%s has %d variants, want %d", b, counts[b], n)
		}
	}
}

func TestByName(t *testing.T) {
	if ByName("crc32/large") == nil {
		t.Error("crc32/large missing")
	}
	if ByName("nonesuch") != nil {
		t.Error("unknown name should return nil")
	}
}

// TestAllWorkloadsRunAtO0 executes every workload/input pair at the
// profiling level and sanity-checks its dynamic size. The size window keeps
// the Fig. 4 reduction factors meaningful: originals must be much larger
// than the ~150k-instruction synthetic target.
func TestAllWorkloadsRunAtO0(t *testing.T) {
	for _, w := range All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			res := runWorkload(t, w, isa.AMD64, compiler.O0)
			if res.DynInstrs < 150_000 {
				t.Errorf("%s: only %d dynamic instructions — too small to reduce", w.Name, res.DynInstrs)
			}
			if res.DynInstrs > 40_000_000 {
				t.Errorf("%s: %d dynamic instructions — too large for the test budget", w.Name, res.DynInstrs)
			}
			if res.Prints == 0 {
				t.Errorf("%s: produced no output", w.Name)
			}
		})
	}
}

// TestWorkloadOutputsStableAcrossLevels checks compiler correctness on real
// code: each workload must print identical results at every optimization
// level and on every ISA.
func TestWorkloadOutputsStableAcrossLevels(t *testing.T) {
	// A representative subset keeps the test fast while covering integer,
	// float, recursion, and irregular control flow.
	names := []string{
		"adpcm/small1", "basicmath/small", "bitcount/small", "crc32/small",
		"dijkstra/small", "fft/small1", "gsm/small1", "patricia/small",
		"qsort/large", "sha/small", "stringsearch/small", "susan/small2",
	}
	for _, name := range names {
		w := ByName(name)
		if w == nil {
			t.Fatalf("missing workload %s", name)
		}
		t.Run(name, func(t *testing.T) {
			ref := runWorkload(t, w, isa.AMD64, compiler.O0)
			for _, target := range []*isa.Desc{isa.X86, isa.AMD64, isa.IA64} {
				for _, level := range compiler.Levels {
					res := runWorkload(t, w, target, level)
					if res.OutputHash != ref.OutputHash {
						t.Errorf("%s %v: output differs from O0 reference\n got %v\nwant %v",
							target.Name, level, res.Output, ref.Output)
					}
				}
			}
		})
	}
}

func TestQsortActuallySorts(t *testing.T) {
	res := runWorkload(t, ByName("qsort/large"), isa.AMD64, compiler.O2)
	if res.Output[0] != "1" {
		t.Fatalf("qsort sorted flag = %s, want 1", res.Output[0])
	}
}

func TestDijkstraFindsPaths(t *testing.T) {
	res := runWorkload(t, ByName("dijkstra/small"), isa.AMD64, compiler.O2)
	// All sources must reach node V-1 (the ring guarantees reachability),
	// so the total must be below sources * infinity.
	var total int64
	fmt.Sscanf(res.Output[0], "%d", &total)
	if total <= 0 || total >= 6*1000000 {
		t.Fatalf("dijkstra total = %d, looks unreachable", total)
	}
}

func TestStringsearchFindsPlantedPatterns(t *testing.T) {
	res := runWorkload(t, ByName("stringsearch/small"), isa.AMD64, compiler.O2)
	var hits int64
	fmt.Sscanf(res.Output[0], "%d", &hits)
	if hits < 3 { // half the patterns are planted substrings
		t.Fatalf("stringsearch hits = %d, want at least the planted ones", hits)
	}
}

func TestShaIsDeterministicAndMasked(t *testing.T) {
	a := runWorkload(t, ByName("sha/small"), isa.AMD64, compiler.O2)
	b := runWorkload(t, ByName("sha/small"), isa.AMD64, compiler.O3)
	if a.OutputHash != b.OutputHash {
		t.Fatal("sha output unstable across levels")
	}
	var h0 int64
	fmt.Sscanf(a.Output[0], "%d", &h0)
	if h0 < 0 || h0 > 0xFFFFFFFF {
		t.Fatalf("sha h0 = %d escaped 32-bit range", h0)
	}
}

func TestSuiteHasBehavioralDiversity(t *testing.T) {
	// The suite must span FP-heavy and integer-only workloads for the
	// Fig. 6/10 contrasts to exist.
	fpShare := func(name string) float64 {
		w := ByName(name)
		prog, err := compiler.Compile(hlctest.MustCheck(w.Source), isa.AMD64, compiler.O0)
		if err != nil {
			t.Fatal(err)
		}
		m := vm.New(prog)
		if err := w.Setup(m); err != nil {
			t.Fatal(err)
		}
		classes := m.Layout().Classes()
		var fp, total uint64
		_, err = m.Run(vm.Config{MaxInstrs: 80_000_000, Hook: func(ev *vm.Event) {
			total++
			switch classes[ev.Site] {
			case isa.ClassFPAdd, isa.ClassFPMul, isa.ClassFPDiv:
				fp++
			}
		}})
		if err != nil {
			t.Fatal(err)
		}
		return float64(fp) / float64(total)
	}
	if share := fpShare("fft/small1"); share < 0.1 {
		t.Errorf("fft FP share = %.3f, want >0.1", share)
	}
	if share := fpShare("crc32/small"); share > 0.01 {
		t.Errorf("crc32 FP share = %.3f, want ~0", share)
	}
}
