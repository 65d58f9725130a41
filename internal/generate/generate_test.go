package generate

import (
	"context"
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/experiments"
	"repro/internal/pipeline"
	"repro/internal/profile"
	"repro/internal/store"
)

// suiteProfiles profiles a suite through a fresh pipeline, giving tests a
// realistic baseline without duplicating workload plumbing.
func suiteProfiles(t *testing.T, p *pipeline.Pipeline, suite string) []*profile.Profile {
	t.Helper()
	ws, err := experiments.Suite(suite)
	if err != nil {
		t.Fatal(err)
	}
	profs := make([]*profile.Profile, len(ws))
	for i, w := range ws {
		if profs[i], err = p.Profile(context.Background(), w); err != nil {
			t.Fatalf("profile %s: %v", w.Name, err)
		}
	}
	return profs
}

func TestFeaturesRoundTrip(t *testing.T) {
	p := pipeline.New(pipeline.Options{Workers: 2, Seed: 1})
	profs := suiteProfiles(t, p, "tiny")
	for _, pr := range profs {
		f := FromProfile(pr)
		if len(f.Vec) != NumFeatures {
			t.Fatalf("%s: embedding has %d dimensions", pr.Workload, len(f.Vec))
		}
		for i, v := range f.Vec {
			if v < 0 || v > 1 || math.IsNaN(v) {
				t.Errorf("%s: feature %s = %v outside [0,1]", pr.Workload, FeatureNames[i], v)
			}
		}
		if d := Distance(f, f); d != 0 {
			t.Errorf("%s: self-distance %v", pr.Workload, d)
		}
		// Vectors are persisted inside the stored generate report's JSON.
		data, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		var got Features
		if err := json.Unmarshal(data, &got); err != nil {
			t.Fatalf("%s: round trip: %v", pr.Workload, err)
		}
		if !reflect.DeepEqual(f, got) {
			t.Errorf("%s: round trip drifted:\n%+v\n%+v", pr.Workload, f, got)
		}
		// Embedding is a pure function of the profile.
		if again := FromProfile(pr); !reflect.DeepEqual(f, again) {
			t.Errorf("%s: embedding not deterministic", pr.Workload)
		}
	}
	// The tiny suite's members are distinct programs; their embeddings
	// must not collide.
	for i := 0; i < len(profs); i++ {
		for j := i + 1; j < len(profs); j++ {
			a, b := FromProfile(profs[i]), FromProfile(profs[j])
			if Distance(a, b) == 0 {
				t.Errorf("%s and %s embed identically", a.Workload, b.Workload)
			}
		}
	}
}

func TestDistanceShapeMismatch(t *testing.T) {
	a := Features{Vec: make([]float64, NumFeatures)}
	c := Features{Vec: make([]float64, 3)}
	if d := Distance(a, c); !math.IsInf(d, 1) {
		t.Errorf("cross-shape distance = %v, want +Inf", d)
	}
	if d := Distance(Features{}, Features{}); !math.IsInf(d, 1) {
		t.Errorf("empty-vector distance = %v, want +Inf", d)
	}
}

// vec builds a NumFeatures-dim test vector with the given leading values.
func vec(workload string, lead ...float64) Features {
	f := Features{Workload: workload, Vec: make([]float64, NumFeatures)}
	copy(f.Vec, lead)
	return f
}

func TestAnalyzeCoverage(t *testing.T) {
	a := vec("a", 0.1)
	b := vec("b", 0.2)
	c := vec("c", 0.9)
	cov := Analyze([]Features{a, b, c})
	if cov.Points != 3 {
		t.Fatalf("points = %d", cov.Points)
	}
	wantMin := Distance(a, b)
	if math.Abs(cov.MinPairDist-wantMin) > 1e-12 {
		t.Errorf("MinPairDist = %v, want %v", cov.MinPairDist, wantMin)
	}
	if cov.ClosestPair != [2]string{"a", "b"} {
		t.Errorf("ClosestPair = %v", cov.ClosestPair)
	}
	if len(cov.Dims) != NumFeatures {
		t.Fatalf("dims = %d", len(cov.Dims))
	}
	d0 := cov.Dims[0]
	if d0.Name != FeatureNames[0] || d0.Min != 0.1 || d0.Max != 0.9 ||
		d0.MinWorkload != "a" || d0.MaxWorkload != "c" {
		t.Errorf("dim 0 = %+v", d0)
	}
	// Degenerate sets have no pairwise stats.
	if cov := Analyze([]Features{a}); cov.MinPairDist != 0 || cov.MeanPairDist != 0 {
		t.Errorf("single-point coverage has pairwise stats: %+v", cov)
	}
}

func TestNearestDistance(t *testing.T) {
	pts := []Features{vec("a", 0.1), vec("b", 0.5)}
	probe := vec("p", 0.45)
	want := Distance(probe, pts[1])
	if got := nearestDistance(probe, pts); math.Abs(got-want) > 1e-12 {
		t.Errorf("nearestDistance = %v, want %v", got, want)
	}
	if got := nearestDistance(probe, nil); !math.IsInf(got, 1) {
		t.Errorf("empty-set nearest = %v, want +Inf", got)
	}
}

func TestSpecValidation(t *testing.T) {
	cases := []struct {
		name, spec, want string
	}{
		{"unknown field", `{"n": 2, "seed": 1, "sampler": "x"}`, "unknown field"},
		{"zero n", `{"n": 0, "seed": 1}`, "out of range"},
		{"huge n", `{"n": 10000, "seed": 1}`, "out of range"},
		{"bad strength", `{"n": 2, "seed": 1, "strength": 1.5}`, "strength"},
		{"bad candidates", `{"n": 2, "seed": 1, "candidates": 9999}`, "candidates"},
		{"unknown axis", `{"n": 2, "seed": 1, "axes": ["vliw"]}`, "unknown axis"},
		{"trailing data", `{"n": 2, "seed": 1} garbage`, "data after the spec"},
	}
	for _, tc := range cases {
		if _, err := ParseSpec([]byte(tc.spec)); err == nil {
			t.Errorf("%s: accepted", tc.name)
		} else if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
	spec, err := ParseSpec([]byte(`{"n": 4, "seed": 9, "suite": "tiny", "axes": ["miss", "taken"]}`))
	if err != nil {
		t.Fatal(err)
	}
	if spec.N != 4 || spec.Seed != 9 || len(spec.Axes) != 2 {
		t.Errorf("parsed spec = %+v", spec)
	}
}

func TestSpecFingerprintSeparatesSpecs(t *testing.T) {
	a := &Spec{N: 4, Seed: 1, Suite: "tiny"}
	b := &Spec{N: 4, Seed: 2, Suite: "tiny"}
	c := &Spec{N: 4, Seed: 1, Suite: "tiny"}
	if a.Fingerprint() == b.Fingerprint() {
		t.Error("different seeds share a fingerprint")
	}
	if a.Fingerprint() != c.Fingerprint() {
		t.Error("equal specs disagree on fingerprint")
	}
	if !strings.HasPrefix(a.Canonical(), "gen-v1|") {
		t.Errorf("canonical %q lacks version tag", a.Canonical())
	}
}

func TestSampleDeterministicAndValid(t *testing.T) {
	p := pipeline.New(pipeline.Options{Workers: 2, Seed: 1})
	profs := suiteProfiles(t, p, "tiny")
	spec := &Spec{N: 6, Seed: 42, Suite: "tiny"}
	first, err := Sample(spec, profs)
	if err != nil {
		t.Fatal(err)
	}
	if len(first) != spec.N {
		t.Fatalf("sampled %d points, want %d", len(first), spec.N)
	}
	for _, sp := range first {
		if err := sp.Profile.Validate(); err != nil {
			t.Errorf("%s: sampled profile invalid: %v", sp.Name, err)
		}
		if got := FromProfile(sp.Profile); !reflect.DeepEqual(got, sp.Requested) {
			t.Errorf("%s: Requested is not the profile's embedding", sp.Name)
		}
		if len(sp.Axes) < 2 {
			t.Errorf("%s: only %d axes perturbed", sp.Name, len(sp.Axes))
		}
	}
	second, err := Sample(spec, profs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, second) {
		t.Error("same spec sampled two different corpora")
	}
	other, err := Sample(&Spec{N: 6, Seed: 43, Suite: "tiny"}, profs)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(first, other) {
		t.Error("different seeds sampled the identical corpus")
	}
}

func TestCheckProfileRejectsCorruptMutant(t *testing.T) {
	p := pipeline.New(pipeline.Options{Workers: 2, Seed: 1})
	prof := suiteProfiles(t, p, "tiny")[0]
	if err := prof.Validate(); err != nil {
		t.Fatalf("real profile rejected: %v", err)
	}
	bad := cloneProfile(prof)
	bad.TotalDyn = prof.TotalDyn + 12345 // mix no longer sums to the total
	if err := bad.Validate(); err == nil {
		t.Error("corrupt mix total accepted")
	}
}

// TestGenerateQuickSuiteGate is the PR's acceptance gate: generating eight
// points against the quick suite with seed 1 and default sampler knobs must
// realize every point, and the achieved corpus must genuinely extend
// coverage — every accepted point farther from the suite than the suite's
// own closest pair — with bounded requested-vs-achieved error.
func TestGenerateQuickSuiteGate(t *testing.T) {
	if testing.Short() {
		t.Skip("quick-suite generation is expensive")
	}
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	p := pipeline.New(pipeline.Options{Workers: 4, Seed: 1, Store: st})
	spec := &Spec{N: 8, Seed: 1}
	rep, err := Run(context.Background(), p, spec)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Accepted != 8 || rep.Rejected != 0 {
		t.Fatalf("accepted=%d rejected=%d, want 8/0; points: %+v", rep.Accepted, rep.Rejected, rep.Points)
	}
	if rep.Baseline.Points != 13 {
		t.Errorf("quick baseline has %d points, want 13", rep.Baseline.Points)
	}
	if rep.After.Points != rep.Baseline.Points+rep.Accepted {
		t.Errorf("after coverage has %d points, want %d", rep.After.Points, rep.Baseline.Points+rep.Accepted)
	}
	// The coverage claim: every generated point opens more feature-space
	// distance than the baseline's tightest pair spans.
	if rep.MinSeparation <= rep.Baseline.MinPairDist {
		t.Errorf("MinSeparation %.4f does not exceed baseline MinPairDist %.4f",
			rep.MinSeparation, rep.Baseline.MinPairDist)
	}
	// Requested-vs-achieved error regression gate: the realized error runs
	// ~0.27 mean / ~0.31 max at this spec; 0.45 is drift headroom, not slack.
	if rep.MaxErr >= 0.45 {
		t.Errorf("MaxErr %.4f breaches the 0.45 regression gate", rep.MaxErr)
	}
	if rep.MeanErr <= 0 || rep.MeanErr > rep.MaxErr {
		t.Errorf("MeanErr %.4f inconsistent with MaxErr %.4f", rep.MeanErr, rep.MaxErr)
	}
	for _, pt := range rep.Points {
		if pt.CloneDyn == 0 {
			t.Errorf("%s: accepted with zero dynamic instructions", pt.Name)
		}
		if pt.Source == "" {
			t.Errorf("%s: accepted without clone source", pt.Name)
		}
		if pt.Separation <= 0 {
			t.Errorf("%s: separation %.4f", pt.Name, pt.Separation)
		}
	}

	// A warm pipeline over the same store replays the cached report
	// byte-for-byte without recomputing any stage.
	warm := pipeline.New(pipeline.Options{Workers: 4, Seed: 1, Store: st})
	rep2, err := Run(context.Background(), warm, spec)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := json.Marshal(rep)
	b, _ := json.Marshal(rep2)
	if string(a) != string(b) {
		t.Error("warm rerun produced a different report")
	}
	cs := warm.CacheStats()
	for s := pipeline.Stage(0); s < pipeline.Stage(pipeline.NumStages); s++ {
		if n := cs.ComputedFor(s); n != 0 {
			t.Errorf("warm rerun recomputed %d %s artifacts", n, s)
		}
	}
}

// TestGenerateDeterminismAcrossWorkers pins the determinism contract: the
// same spec run cold on one worker and on eight, in separate stores,
// produces byte-identical reports.
func TestGenerateDeterminismAcrossWorkers(t *testing.T) {
	spec := &Spec{N: 3, Seed: 7, Suite: "tiny"}
	var reports [][]byte
	for _, workers := range []int{1, 8} {
		st, err := store.Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		p := pipeline.New(pipeline.Options{Workers: workers, Seed: 7, Store: st})
		rep, err := Run(context.Background(), p, spec)
		if err != nil {
			t.Fatal(err)
		}
		data, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		reports = append(reports, data)
	}
	if string(reports[0]) != string(reports[1]) {
		t.Error("worker count changed the generation report")
	}
}

func TestRealizePointAndCorpus(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	p := pipeline.New(pipeline.Options{Workers: 2, Seed: 7, Store: st})
	spec := &Spec{N: 2, Seed: 7, Suite: "tiny", Name: "tg"}
	if err := RealizePoint(context.Background(), p, spec, 0); err != nil {
		t.Fatalf("RealizePoint: %v", err)
	}
	if err := RealizePoint(context.Background(), p, spec, spec.N); err == nil {
		t.Error("out-of-range index accepted")
	}
	corpus, err := Corpus(context.Background(), p, spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(corpus) == 0 {
		t.Fatal("corpus is empty")
	}
	for _, w := range corpus {
		if !strings.HasPrefix(w.Name, "gen/tg-") || w.Source == "" {
			t.Errorf("corpus workload %q malformed", w.Name)
		}
	}
}

func TestBaselineWorkloadsDedup(t *testing.T) {
	ws, err := BaselineWorkloads(&Spec{N: 1, Seed: 1, Suite: "tiny"})
	if err != nil {
		t.Fatal(err)
	}
	base := len(ws)
	if base == 0 {
		t.Fatal("empty baseline")
	}
	// Repeating a suite member adds nothing; an unknown name fails loudly.
	dup, err := BaselineWorkloads(&Spec{N: 1, Seed: 1, Suite: "tiny", Workloads: []string{ws[0].Name}})
	if err != nil {
		t.Fatal(err)
	}
	if len(dup) != base {
		t.Errorf("duplicate workload grew the baseline to %d", len(dup))
	}
	if _, err := BaselineWorkloads(&Spec{N: 1, Seed: 1, Suite: "tiny", Workloads: []string{"no/such"}}); err == nil {
		t.Error("unknown workload accepted")
	}
}
