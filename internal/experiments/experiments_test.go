package experiments

import (
	"bytes"
	"context"
	"sync"
	"testing"

	"repro/internal/compiler"
	"repro/internal/pipeline"
	"repro/internal/workloads"
)

// shared is the one Runner every test in this package uses, so between
// them they compute each compile, profile, and clone once.
var shared = sync.OnceValue(func() *Runner {
	return NewRunner(pipeline.New(pipeline.Options{Seed: CloneSeed}))
})

// tiny returns a minimal suite for fast experiment tests.
func tiny() []*workloads.Workload {
	var out []*workloads.Workload
	for _, n := range []string{"crc32/small", "dijkstra/small", "fft/small1"} {
		w := workloads.ByName(n)
		if w == nil {
			panic("missing workload " + n)
		}
		out = append(out, w)
	}
	return out
}

func TestFig4ReductionShape(t *testing.T) {
	res, err := shared().Fig4(context.Background(), tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.SynDyn == 0 || row.OrigDyn == 0 {
			t.Fatalf("%s: empty measurement", row.Workload)
		}
		if row.Reduction < 1 {
			t.Errorf("%s: clone longer than original (%.2fx)", row.Workload, row.Reduction)
		}
	}
	if res.AvgReduction < 1.2 {
		t.Errorf("average reduction %.2fx — clones should be shorter-running", res.AvgReduction)
	}
	var buf bytes.Buffer
	res.Print(&buf)
	if buf.Len() == 0 {
		t.Error("empty print output")
	}
}

func TestFig5OptimizationTracking(t *testing.T) {
	res, err := shared().Fig5(context.Background(), tiny())
	if err != nil {
		t.Fatal(err)
	}
	// Both series start at 100% and fall with optimization.
	if res.Orig[0] != 1 || res.Syn[0] != 1 {
		t.Fatalf("O0 should be the 100%% baseline: %v %v", res.Orig[0], res.Syn[0])
	}
	if res.Orig[1] >= 1 {
		t.Errorf("original O1 should shrink: %.3f", res.Orig[1])
	}
	if res.Syn[1] >= 1 {
		t.Errorf("synthetic O1 should shrink: %.3f", res.Syn[1])
	}
	// The paper's claim: the synthetic tracks the original's direction of
	// change; require agreement within 25 percentage points at O2.
	if d := res.Syn[2] - res.Orig[2]; d > 0.25 || d < -0.25 {
		t.Errorf("synthetic O2 ratio %.2f far from original %.2f", res.Syn[2], res.Orig[2])
	}
}

func TestFig6MixSanity(t *testing.T) {
	res, err := shared().Fig6(context.Background(), tiny(), compiler.O0)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range append(res.Rows, res.Average) {
		for i := 0; i < 4; i++ {
			if row.Orig[i] < 0 || row.Orig[i] > 1 || row.Syn[i] < 0 || row.Syn[i] > 1 {
				t.Errorf("%s: fraction out of range: %v %v", row.Name, row.Orig, row.Syn)
			}
		}
		// Load fraction agreement within 15 percentage points (Fig. 6's
		// "not perfect but same conclusions" bar).
		if d := row.Syn[0] - row.Orig[0]; d > 0.15 || d < -0.15 {
			t.Errorf("%s: load fraction orig %.2f vs syn %.2f", row.Name, row.Orig[0], row.Syn[0])
		}
	}
}

func TestFigCacheMonotonicity(t *testing.T) {
	res, err := shared().FigCache(context.Background(), tiny(), compiler.O0)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range res.Rows {
		for i := 1; i < len(row.Orig); i++ {
			if row.Orig[i] < row.Orig[i-1]-1e-9 {
				t.Errorf("%s: original hit rate not monotone: %v", row.Name, row.Orig)
			}
			if row.Syn[i] < row.Syn[i-1]-1e-9 {
				t.Errorf("%s: synthetic hit rate not monotone: %v", row.Name, row.Syn)
			}
		}
		// Hit rates live in the 60..100% band for these workloads.
		if row.Syn[len(row.Syn)-1] < 0.6 {
			t.Errorf("%s: synthetic 32KB hit rate %.2f suspiciously low",
				row.Name, row.Syn[len(row.Syn)-1])
		}
	}
}

func TestFig9Accuracies(t *testing.T) {
	res, err := shared().Fig9(context.Background(), tiny())
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range res.Rows {
		for _, acc := range []float64{row.OrigO0, row.OrigO2, row.SynO0, row.SynO2} {
			if acc < 0.5 || acc > 1 {
				t.Errorf("%s: implausible accuracy %v", row.Name, row)
			}
		}
		// Clones should be predictable in the same ballpark (within 12
		// percentage points, the visual error bar of Fig. 9).
		if d := row.SynO0 - row.OrigO0; d > 0.12 || d < -0.12 {
			t.Errorf("%s: branch accuracy orig %.3f vs syn %.3f", row.Name, row.OrigO0, row.SynO0)
		}
	}
}

func TestTableIStridesProduceTargetMissRates(t *testing.T) {
	rows := TableI()
	if len(rows) != 9 {
		t.Fatalf("Table I has %d classes, want 9", len(rows))
	}
	for _, r := range rows {
		if !r.InRange {
			t.Errorf("class %d (stride %dB): measured %.3f outside [%.3f, %.3f]",
				r.Class, r.StrideBytes, r.Measured, r.RangeLo, r.RangeHi)
		}
	}
	var buf bytes.Buffer
	PrintTableI(&buf, rows)
	if buf.Len() == 0 {
		t.Error("empty print")
	}
}

func TestTableIICoverage(t *testing.T) {
	res, err := shared().TableII(context.Background(), tiny())
	if err != nil {
		t.Fatal(err)
	}
	if res.Avg < 0.85 {
		t.Errorf("average pattern coverage %.3f below 0.85", res.Avg)
	}
	if res.Min < 0.7 {
		t.Errorf("minimum pattern coverage %.3f below 0.7", res.Min)
	}
}

func TestObfuscation(t *testing.T) {
	res, err := shared().Obfuscation(context.Background(), tiny())
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range res.Rows {
		if row.SelfCheck < 0.999 {
			t.Errorf("%s: self check %.3f, want 1.0", row.Workload, row.SelfCheck)
		}
		// The paper's Section V.E: Moss finds no similarity. Winnowing
		// always shares a little generic boilerplate; require under 25%.
		if row.Similarity > 0.25 {
			t.Errorf("%s: clone similarity %.3f too high — obfuscation failed",
				row.Workload, row.Similarity)
		}
	}
}

func TestQuickSuiteCoversAllBenchmarks(t *testing.T) {
	seen := map[string]bool{}
	for _, w := range Quick() {
		seen[w.Bench] = true
	}
	for _, w := range workloads.All() {
		if !seen[w.Bench] {
			t.Errorf("Quick() misses benchmark family %s", w.Bench)
		}
	}
	if len(Full()) != 32 {
		t.Errorf("Full() = %d pairs, want 32", len(Full()))
	}
}
