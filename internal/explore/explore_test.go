package explore

import (
	"context"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/compiler"
	"repro/internal/cpu"
	"repro/internal/isa"
	"repro/internal/pipeline"
	"repro/internal/store"
)

// tinySpec is a 3-point sweep over the tiny suite, small enough for unit
// tests yet exercising axes, dedup, and the baseline reference.
const tinySpec = `{
  "name": "test-sweep",
  "suite": "tiny",
  "levels": [2],
  "base": "2-wide OoO",
  "axes": {"l1KB": [8, 32], "width": [2]}
}`

func TestParseSpecResolvesTinySweep(t *testing.T) {
	sw, err := ParseSpec([]byte(tinySpec))
	if err != nil {
		t.Fatal(err)
	}
	if len(sw.Workloads) != 3 {
		t.Errorf("tiny suite resolved to %d workloads", len(sw.Workloads))
	}
	if len(sw.Levels) != 1 || sw.Levels[0] != compiler.O2 {
		t.Errorf("levels = %v", sw.Levels)
	}
	// base (l1KB=8, width=2) + {8,32}×{2}: the l1KB=8,width=2 point
	// collapses onto the baseline, leaving base + l1KB=32.
	if len(sw.Points) != 2 {
		t.Fatalf("expected 2 deduplicated points, got %d: %+v", len(sw.Points), sw.Points)
	}
	if sw.Points[0].Name != "base" {
		t.Errorf("point 0 is %q, want the baseline", sw.Points[0].Name)
	}
	if sw.Points[1].Name != "l1KB=32,width=2" {
		t.Errorf("point 1 is %q", sw.Points[1].Name)
	}
	for _, pt := range sw.Points {
		if pt.Fingerprint != pt.Config().Fingerprint() {
			t.Errorf("point %s fingerprint drifted", pt.Name)
		}
	}
}

func TestParseSpecRejections(t *testing.T) {
	cases := []struct {
		name, spec, want string
	}{
		{"unknown field", `{"sweep": 1}`, "unknown field"},
		{"no workloads", `{"axes": {"width": [2]}}`, "no workloads"},
		{"unknown workload", `{"workloads": ["nope/tiny"]}`, "unknown workload"},
		{"unknown suite", `{"suite": "huge"}`, "unknown suite"},
		{"bad level", `{"suite": "tiny", "levels": [9]}`, "out of range"},
		{"unknown base", `{"suite": "tiny", "base": "PDP-11"}`, "unknown baseline"},
		{"unknown axis", `{"suite": "tiny", "axes": {"cores": [2]}}`, "unknown axis"},
		{"name axis", `{"suite": "tiny", "axes": {"name": ["x"]}}`, "unknown axis"},
		{"isa axis", `{"suite": "tiny", "axes": {"isa": ["ia64v"]}}`, "unknown axis"},
		{"miscased axis", `{"suite": "tiny", "axes": {"Width": [4]}}`, "unknown axis"},
		{"empty axis", `{"suite": "tiny", "axes": {"width": []}}`, "no values"},
		{"bad axis value", `{"suite": "tiny", "axes": {"width": ["wide"]}}`, "field width: want int"},
		{"fractional axis value", `{"suite": "tiny", "axes": {"width": [2.5]}}`, "field width: want int"},
		{"unknown predictor", `{"suite": "tiny", "axes": {"predictor": ["perceptron"]}}`, "unknown predictor"},
		{"unknown config ISA", `{"suite": "tiny", "config": {"isa": "mips"}}`, "unknown ISA"},
		{"EPIC flag", `{"suite": "tiny", "config": {"isa": "ia64v", "epic": true}}`, `unknown field "epic"`},
		{"invalid point", `{"suite": "tiny", "axes": {"l1KB": [12]}}`, "power of two"},
		{"bad base config", `{"suite": "tiny", "config": {"isa": "amd64v"}}`, "baseline"},
		{"trailing data", `{"suite": "tiny"} {"suite": "nonsense"} garbage`, "data after the spec"},
	}
	for _, tc := range cases {
		_, err := ParseSpec([]byte(tc.spec))
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

func TestParseSpecPointExplosionBounded(t *testing.T) {
	spec := `{"suite": "tiny", "axes": {
	  "width": [1,2,3,4,5,6,7,8],
	  "rob": [1,2,3,4,5,6,7,8],
	  "memLat": [1,2,3,4,5,6,7,8],
	  "l2Lat": [1,2,3,4,5,6,7,8]
	}}`
	if _, err := ParseSpec([]byte(spec)); err == nil || !strings.Contains(err.Error(), "points") {
		t.Fatalf("4096-point sweep not rejected: %v", err)
	}
}

func TestExplicitBaseConfig(t *testing.T) {
	spec := `{"workloads": ["crc32/small"],
	  "config": {"name": "little", "isa": "amd64v", "width": 1, "mispredictPenalty": 4,
	    "l1KB": 4, "l1Assoc": 2, "l1Lat": 1, "l2KB": 64, "l2Assoc": 4, "l2Lat": 8, "memLat": 100}}`
	sw, err := ParseSpec([]byte(spec))
	if err != nil {
		t.Fatal(err)
	}
	if len(sw.Points) != 1 || sw.Points[0].Config().Width != 1 {
		t.Fatalf("explicit base not honored: %+v", sw.Points)
	}
}

// TestExplicitIA64BaseConfig sweeps an explicit Itanium-shaped baseline
// that names its ISA and nothing else about the model: the ISA decides
// that the machine is EPIC, so the spec resolves and every cell simulates
// on the in-order bundle model.
func TestExplicitIA64BaseConfig(t *testing.T) {
	spec := `{"workloads": ["crc32/small"], "levels": [2], "maxInstrs": 200000,
	  "config": {"name": "it2", "isa": "ia64v", "freqGHz": 0.9, "width": 1, "mispredictPenalty": 6,
	    "l1KB": 16, "l1Assoc": 4, "l1Lat": 1, "l2KB": 256, "l2Assoc": 8, "l2Lat": 7, "memLat": 110},
	  "axes": {"l1KB": [16, 32]}}`
	sw, err := ParseSpec([]byte(spec))
	if err != nil {
		t.Fatal(err)
	}
	if len(sw.Points) != 2 || sw.Points[1].Config().ISA != isa.IA64 {
		t.Fatalf("ia64v sweep resolved to %+v", sw.Points)
	}
	rep, err := Run(context.Background(), pipeline.New(pipeline.Options{Workers: 2, Seed: 7}), sw)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range rep.Points {
		if p.OrigCycles == 0 || p.SynCycles == 0 {
			t.Errorf("point %s simulated nothing: %+v", p.Point.Name, p)
		}
	}
}

func TestPresetCalibrationResolves(t *testing.T) {
	spec, err := Preset("calibration")
	if err != nil {
		t.Fatal(err)
	}
	sw, err := spec.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if len(sw.Points) < 10 || len(sw.Workloads) == 0 {
		t.Fatalf("calibration preset resolved to %d points × %d workloads", len(sw.Points), len(sw.Workloads))
	}
	if _, err := Preset("turbo"); err == nil {
		t.Error("unknown preset accepted")
	}
}

// TestExploreRunAndWarmRerun is the tentpole property at unit scope: a
// sweep evaluates every cell, ranks points with the baseline first, marks
// a consistent Pareto frontier — and a rerun over the same store computes
// zero simulate-stage artifacts while producing the identical report.
func TestExploreRunAndWarmRerun(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	sw, err := ParseSpec([]byte(tinySpec))
	if err != nil {
		t.Fatal(err)
	}

	cold := pipeline.New(pipeline.Options{Workers: 4, Seed: 7, Store: st})
	rep, err := Run(ctx, cold, sw)
	if err != nil {
		t.Fatal(err)
	}
	wantCells := len(sw.Points) * len(sw.Workloads) * len(sw.Levels)
	if rep.Cells != wantCells {
		t.Errorf("report covers %d cells, want %d", rep.Cells, wantCells)
	}
	if got := cold.CacheStats().ComputedFor(pipeline.StageSimulate); got != uint64(2*wantCells) {
		t.Errorf("cold run computed %d simulations, want %d", got, 2*wantCells)
	}
	if rep.Points[0].Point.Name != "base" {
		t.Errorf("ranked report lost the baseline row: %+v", rep.Points[0].Point)
	}
	if rep.Points[0].SpeedupOrig != 1 || rep.Points[0].SpeedupSyn != 1 {
		t.Errorf("baseline speedup must be 1.0, got %+v", rep.Points[0])
	}
	for i := 2; i < len(rep.Points); i++ {
		if rep.Points[i].CPIErr < rep.Points[i-1].CPIErr {
			t.Errorf("points not ranked by CPI error: %v after %v",
				rep.Points[i].CPIErr, rep.Points[i-1].CPIErr)
		}
	}
	front := rep.ParetoFront()
	if len(front) == 0 {
		t.Error("empty Pareto frontier")
	}
	for _, p := range rep.Points {
		dominated := false
		for _, q := range rep.Points {
			if q.Point.Fingerprint != p.Point.Fingerprint &&
				q.CPIErr <= p.CPIErr && q.MeanIPC >= p.MeanIPC &&
				(q.CPIErr < p.CPIErr || q.MeanIPC > p.MeanIPC) {
				dominated = true
			}
		}
		if p.Pareto == dominated {
			t.Errorf("point %s: pareto=%v but dominated=%v", p.Point.Name, p.Pareto, dominated)
		}
	}

	// Warm rerun: fresh pipeline, same store — zero simulate computations,
	// identical report.
	warm := pipeline.New(pipeline.Options{Workers: 4, Seed: 7, Store: st})
	rep2, err := Run(ctx, warm, sw)
	if err != nil {
		t.Fatal(err)
	}
	cs := warm.CacheStats()
	if cs.ComputedFor(pipeline.StageSimulate) != 0 || cs.ComputedFor(pipeline.StageCompile) != 0 {
		t.Errorf("warm rerun recomputed artifacts: %+v", cs)
	}
	if rep2.Correlation != rep.Correlation || len(rep2.Points) != len(rep.Points) {
		t.Errorf("warm report differs: %v vs %v", rep2.Correlation, rep.Correlation)
	}
	got, _ := json.Marshal(rep2)
	want, _ := json.Marshal(rep)
	if string(got) != string(want) {
		t.Errorf("warm report differs from cold:\ncold %s\nwarm %s", want, got)
	}
}

func TestClusterSpecBridge(t *testing.T) {
	sw, err := ParseSpec([]byte(tinySpec))
	if err != nil {
		t.Fatal(err)
	}
	spec := sw.ClusterSpec(42)
	if len(spec.Workloads) != 3 || len(spec.Explore) != len(sw.Points) {
		t.Fatalf("bridge lost workloads or points: %+v", spec)
	}
	if len(spec.ISAs) != 1 || spec.ISAs[0] != "amd64v" {
		t.Errorf("ISAs = %v, want the deduplicated point ISA", spec.ISAs)
	}
	if spec.Seed != 42 {
		t.Errorf("seed lost: %+v", spec)
	}
	jobs := spec.Jobs()
	if len(jobs) != 3 {
		t.Fatalf("%d jobs", len(jobs))
	}
	for _, j := range jobs {
		if j.Kind != "explore" || len(j.Sims) != len(sw.Points) {
			t.Errorf("job %s: kind=%q sims=%d", j.Workload, j.Kind, len(j.Sims))
		}
		if j.Cells() != len(sw.Points)*len(sw.Levels) {
			t.Errorf("job %s: %d cells", j.Workload, j.Cells())
		}
	}
	// The simulation bound is part of the dispatch identity.
	bounded := *sw
	bounded.Spec.MaxInstrs = 1000
	if bounded.ClusterSpec(42).Canonical() == spec.Canonical() {
		t.Error("SimMaxInstrs not in the dispatch canonical")
	}
}

func TestReportPrintShape(t *testing.T) {
	sw, err := ParseSpec([]byte(`{"workloads": ["crc32/small"], "axes": {"width": [2, 4]}}`))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(context.Background(), pipeline.New(pipeline.Options{Workers: 2, Seed: 7}), sw)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	rep.Print(&b)
	out := b.String()
	for _, want := range []string{"explore —", "CPI correlation", "pareto frontier", "base"} {
		if !strings.Contains(out, want) {
			t.Errorf("report output missing %q:\n%s", want, out)
		}
	}
	if cpu.Simulated2Wide(8).Name != "2-wide OoO" {
		t.Error("default baseline machine renamed; update the explore docs")
	}
}
