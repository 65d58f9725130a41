package pipeline_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/compiler"
	"repro/internal/isa"
	"repro/internal/pipeline"
	"repro/internal/store"
	"repro/internal/workloads"
)

func openStore(t *testing.T, dir string) *store.Store {
	t.Helper()
	s, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestPipelineDiskWarmSharedStore is the PR's core property: a second
// Runner (a fresh pipeline, as a second process would build) sharing the
// first one's store directory performs zero Compile/Profile/Synthesize
// computations — disk hits only — and produces byte-identical artifacts.
func TestPipelineDiskWarmSharedStore(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	w := mustWorkload(t, "crc32/small")

	cold := pipeline.New(pipeline.Options{Workers: 2, Seed: 1, Store: openStore(t, dir)})
	coldPair, err := cold.PairAt(ctx, w, isa.AMD64, compiler.O2)
	if err != nil {
		t.Fatal(err)
	}
	if err := cold.Validate(ctx, w); err != nil {
		t.Fatal(err)
	}
	cs := cold.CacheStats()
	if cs.Misses == 0 || cs.DiskHits != 0 {
		t.Fatalf("cold run should compute everything: %+v", cs)
	}

	warm := pipeline.New(pipeline.Options{Workers: 2, Seed: 1, Store: openStore(t, dir)})
	warmPair, err := warm.PairAt(ctx, w, isa.AMD64, compiler.O2)
	if err != nil {
		t.Fatal(err)
	}
	if err := warm.Validate(ctx, w); err != nil {
		t.Fatal(err)
	}
	ws := warm.CacheStats()
	for _, st := range []pipeline.Stage{
		pipeline.StageCompile, pipeline.StageProfile,
		pipeline.StageSynthesize, pipeline.StageValidate,
	} {
		if n := ws.ComputedFor(st); n != 0 {
			t.Errorf("warm run recomputed %d %v artifacts; want 0 (stats %+v)", n, st, ws)
		}
	}
	if ws.DiskHits == 0 {
		t.Error("warm run reported no disk hits")
	}
	if ws.DiskErrors != 0 {
		t.Errorf("warm run reported %d disk errors", ws.DiskErrors)
	}

	if coldPair.Clone.Source != warmPair.Clone.Source {
		t.Error("clone source differs between cold and warm runs")
	}
	for _, progs := range [][2]*isa.Program{{coldPair.Orig, warmPair.Orig}, {coldPair.Syn, warmPair.Syn}} {
		cold, err := pipeline.EncodeProgram(progs[0])
		if err != nil {
			t.Fatal(err)
		}
		warm, err := pipeline.EncodeProgram(progs[1])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(cold, warm) {
			t.Error("compiled artifacts differ between cold and warm runs")
		}
	}
}

// TestPipelineDiskWriteThrough verifies that a cold run populates the
// store on disk (write-through on miss), one entry per persistable stage.
func TestPipelineDiskWriteThrough(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	p := pipeline.New(pipeline.Options{Workers: 1, Seed: 1, Store: openStore(t, dir)})
	w := mustWorkload(t, "crc32/small")
	if _, err := p.PairAt(ctx, w, isa.AMD64, compiler.O0); err != nil {
		t.Fatal(err)
	}
	s := openStore(t, dir)
	n, err := s.Len()
	if err != nil {
		t.Fatal(err)
	}
	// compile@O0, profile, synthesize, clone-compile@O0 = 4 disk entries
	// (parse/check are memory-only).
	if n != 4 {
		t.Errorf("store holds %d entries, want 4", n)
	}
}

// TestPipelineDiskCorruptionIsMiss damages every stored entry and checks a
// fresh pipeline silently recomputes: corrupted files are misses, never
// errors, and the store heals (entries are rewritten).
func TestPipelineDiskCorruptionIsMiss(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	w := mustWorkload(t, "crc32/small")

	cold := pipeline.New(pipeline.Options{Workers: 1, Seed: 1, Store: openStore(t, dir)})
	if _, err := cold.PairAt(ctx, w, isa.AMD64, compiler.O0); err != nil {
		t.Fatal(err)
	}

	var files []string
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			files = append(files, path)
		}
		return err
	})
	if err != nil || len(files) == 0 {
		t.Fatalf("walk: %v, %d files", err, len(files))
	}
	for _, f := range files {
		if err := os.WriteFile(f, []byte("{corrupted"), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	warm := pipeline.New(pipeline.Options{Workers: 1, Seed: 1, Store: openStore(t, dir)})
	pair, err := warm.PairAt(ctx, w, isa.AMD64, compiler.O0)
	if err != nil {
		t.Fatalf("corrupted store must recompute, not fail: %v", err)
	}
	ws := warm.CacheStats()
	if ws.DiskHits != 0 {
		t.Errorf("corrupted entries served as %d disk hits", ws.DiskHits)
	}
	if ws.Misses == 0 || pair.Clone.Source == "" {
		t.Error("recomputation did not happen")
	}

	// The rewrite healed the store: a third pipeline is all disk hits.
	healed := pipeline.New(pipeline.Options{Workers: 1, Seed: 1, Store: openStore(t, dir)})
	if _, err := healed.PairAt(ctx, w, isa.AMD64, compiler.O0); err != nil {
		t.Fatal(err)
	}
	if hs := healed.CacheStats(); hs.ComputedFor(pipeline.StageCompile) != 0 ||
		hs.ComputedFor(pipeline.StageProfile) != 0 {
		t.Errorf("store did not heal after recomputation: %+v", hs)
	}
}

// TestPipelineDiskPreviousVersionIsMiss rewrites every stored entry's key
// as the previous artifact version's canonical, keeping its path, kind,
// payload and a valid checksum: the entry a store peer built one version
// earlier would hold under a colliding digest. A fresh pipeline must read
// each as a miss, not a disk error, recompute everything, and heal the
// store.
func TestPipelineDiskPreviousVersionIsMiss(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	w := mustWorkload(t, "crc32/small")
	cold := pipeline.New(pipeline.Options{Workers: 1, Seed: 1, Store: openStore(t, dir)})
	if _, err := cold.PairAt(ctx, w, isa.AMD64, compiler.O0); err != nil {
		t.Fatal(err)
	}

	s := openStore(t, dir)
	cur, prev := fmt.Sprintf("v%d|", pipeline.ArtifactVersion), fmt.Sprintf("v%d|", pipeline.ArtifactVersion-1)
	rewritten := 0
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		var env struct {
			Kind    string          `json:"kind"`
			Key     string          `json:"key"`
			Payload json.RawMessage `json:"payload"`
		}
		if err := json.Unmarshal(raw, &env); err != nil {
			return err
		}
		if !strings.HasPrefix(env.Key, cur) {
			return fmt.Errorf("%s: key %q does not start with %q", path, env.Key, cur)
		}
		rewritten++
		return s.Put(strings.TrimSuffix(filepath.Base(path), ".json"), env.Kind,
			prev+strings.TrimPrefix(env.Key, cur), env.Payload)
	})
	if err != nil || rewritten != 4 {
		t.Fatalf("rewrite keys: %v, %d entries", err, rewritten)
	}

	warm := pipeline.New(pipeline.Options{Workers: 1, Seed: 1, Store: openStore(t, dir)})
	if _, err := warm.PairAt(ctx, w, isa.AMD64, compiler.O0); err != nil {
		t.Fatal(err)
	}
	ws := warm.CacheStats()
	if ws.DiskHits != 0 || ws.DiskErrors != 0 || ws.ComputedFor(pipeline.StageCompile) != 2 ||
		ws.ComputedFor(pipeline.StageProfile) != 1 || ws.ComputedFor(pipeline.StageSynthesize) != 1 {
		t.Errorf("previous-version entries: want 2 compiles, a profile and a synthesis with no disk hit or error, got %+v", ws)
	}

	healed := pipeline.New(pipeline.Options{Workers: 1, Seed: 1, Store: openStore(t, dir)})
	if _, err := healed.PairAt(ctx, w, isa.AMD64, compiler.O0); err != nil {
		t.Fatal(err)
	}
	if hs := healed.CacheStats(); hs.Misses != 0 || hs.DiskErrors != 0 {
		t.Errorf("store did not heal after recomputation: %+v", hs)
	}
}

// TestPipelineDiskOptionsPartitionStore checks that pipelines with
// different artifact-shaping options sharing one store directory do not
// exchange artifacts: the seed, target size, and profiling bounds are all
// part of the content address.
func TestPipelineDiskOptionsPartitionStore(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	w := mustWorkload(t, "crc32/small")

	a := pipeline.New(pipeline.Options{Workers: 1, Seed: 1, Store: openStore(t, dir)})
	ca, err := a.Synthesize(ctx, w)
	if err != nil {
		t.Fatal(err)
	}
	b := pipeline.New(pipeline.Options{Workers: 1, Seed: 2, Store: openStore(t, dir)})
	cb, err := b.Synthesize(ctx, w)
	if err != nil {
		t.Fatal(err)
	}
	if bs := b.CacheStats(); bs.ComputedFor(pipeline.StageSynthesize) != 1 {
		t.Errorf("different seed must synthesize fresh: %+v", bs)
	}
	if ca.Source == cb.Source {
		t.Error("different seeds produced identical clones (keys too coarse?)")
	}

	// Editing a workload's source under the same name must also
	// partition: the source fingerprint is part of the content address,
	// so a stale store never serves artifacts for edited code.
	src1 := "int x; void main() { int i; for (i = 0; i < 50; i = i + 1) { x = x + i; } print(x); }"
	src2 := "int x; void main() { int i; for (i = 0; i < 99; i = i + 1) { x = x + 2*i; } print(x); }"
	v1 := &workloads.Workload{Name: "edited/w", Bench: "edited", Source: src1}
	v2 := &workloads.Workload{Name: "edited/w", Bench: "edited", Source: src2}
	c1 := pipeline.New(pipeline.Options{Workers: 1, Seed: 1, Store: openStore(t, dir)})
	p1, err := c1.Compile(ctx, v1, isa.AMD64, compiler.O0)
	if err != nil {
		t.Fatal(err)
	}
	c2 := pipeline.New(pipeline.Options{Workers: 1, Seed: 1, Store: openStore(t, dir)})
	p2, err := c2.Compile(ctx, v2, isa.AMD64, compiler.O0)
	if err != nil {
		t.Fatal(err)
	}
	if st := c2.CacheStats(); st.ComputedFor(pipeline.StageCompile) != 1 || st.DiskHits != 0 {
		t.Errorf("edited source must recompile, not disk-hit the stale artifact: %+v", st)
	}
	if staticInstrs(p1) == staticInstrs(p2) {
		t.Error("edited source compiled to a suspiciously identical program")
	}
}

// TestPipelineSynthesizeProfile checks the profile-load flow: synthesizing
// from a profile value produces the same clone as the named-workload flow,
// and the artifact is cached under the profile's fingerprint.
func TestPipelineSynthesizeProfile(t *testing.T) {
	ctx := context.Background()
	w := mustWorkload(t, "crc32/small")
	p := pipeline.New(pipeline.Options{Workers: 1, Seed: 1})

	prof, err := p.Profile(ctx, w)
	if err != nil {
		t.Fatal(err)
	}
	named, err := p.Synthesize(ctx, w)
	if err != nil {
		t.Fatal(err)
	}
	fromProf, err := p.SynthesizeProfile(ctx, prof)
	if err != nil {
		t.Fatal(err)
	}
	if named.Source != fromProf.Source {
		t.Error("SynthesizeProfile differs from Synthesize for the same profile")
	}

	before := p.CacheStats().ComputedFor(pipeline.StageSynthesize)
	if _, err := p.SynthesizeProfile(ctx, prof); err != nil {
		t.Fatal(err)
	}
	if after := p.CacheStats().ComputedFor(pipeline.StageSynthesize); after != before {
		t.Error("repeated SynthesizeProfile recomputed the clone")
	}

	if _, err := p.SynthesizeProfile(ctx, nil); err == nil {
		t.Error("nil profile must be rejected")
	}
}

// TestPairKeysMatchStoredDigests guards PairKeys against drifting from the
// stage methods' own key construction: after a cold PairAt run, every key
// PairKeys predicts must exist in the store — this is exactly the probe the
// cluster coordinator uses to deduplicate jobs — and together they must
// account for every entry the run wrote.
func TestPairKeysMatchStoredDigests(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	w := mustWorkload(t, "crc32/small")
	p := pipeline.New(pipeline.Options{Workers: 1, Seed: 1, Store: openStore(t, dir)})
	if _, err := p.PairAt(ctx, w, isa.IA64, compiler.O2); err != nil {
		t.Fatal(err)
	}

	s := openStore(t, dir)
	keys := p.PairKeys(w, isa.IA64, compiler.O2)
	// Grid point ≠ profiling point: orig compile, profiling compile,
	// profile, synthesize, clone compile.
	if len(keys) != 5 {
		t.Fatalf("PairKeys returned %d keys, want 5", len(keys))
	}
	for _, k := range keys {
		if k.StoreKind() == "" {
			t.Errorf("key %v has no store kind", k.Stage)
			continue
		}
		if !s.Has(k.Digest(), k.StoreKind(), k.Canonical()) {
			t.Errorf("PairKeys predicts %v/%s but the store has no such entry (drift from the stage methods?)",
				k.Stage, k.Digest())
		}
	}
	if n, err := s.Len(); err != nil || n != len(keys) {
		t.Errorf("store holds %d entries, PairKeys predicts %d: %v", n, len(keys), err)
	}

	// At the profiling point the orig compile and the profiling compile
	// coincide, so the prediction shrinks by one.
	if n := len(p.PairKeys(w, isa.AMD64, compiler.O0)); n != 4 {
		t.Errorf("profiling-point PairKeys returned %d keys, want 4", n)
	}

	// Memory-only stages never claim a store kind.
	if kind := (pipeline.Key{Stage: pipeline.StageParse}).StoreKind(); kind != "" {
		t.Errorf("parse stage claims store kind %q", kind)
	}
}

// TestCacheStatsAddSub checks the merge arithmetic cluster reports rely
// on: Add is counter-wise, and Sub recovers an exact per-job delta.
func TestCacheStatsAddSub(t *testing.T) {
	var a, b pipeline.CacheStats
	a.Hits, a.DiskHits, a.Misses, a.DiskErrors = 5, 3, 2, 1
	a.Computed[pipeline.StageCompile] = 2
	b.Hits, b.DiskHits = 1, 1
	b.Computed[pipeline.StageCompile] = 1
	b.Computed[pipeline.StageProfile] = 4

	sum := a.Add(b)
	if sum.Hits != 6 || sum.DiskHits != 4 || sum.Misses != 2 || sum.DiskErrors != 1 ||
		sum.Computed[pipeline.StageCompile] != 3 || sum.Computed[pipeline.StageProfile] != 4 {
		t.Fatalf("Add: %+v", sum)
	}
	if back := sum.Sub(b); back != a {
		t.Fatalf("Sub did not invert Add: %+v != %+v", back, a)
	}
}

// TestPipelineKeyGoldenDigests pins digests across processes and builds:
// the disk store files artifacts by these strings, so any drift silently
// invalidates every existing store. A change here is intentional only
// together with a pipeline.ArtifactVersion bump.
func TestPipelineKeyGoldenDigests(t *testing.T) {
	golden := []struct {
		key  pipeline.Key
		want string
	}{
		{pipeline.Key{Stage: pipeline.StageCompile, Workload: "crc32/small",
			ISA: "amd64v", Level: compiler.O2}, "b942d3f216ea4dee"},
		{pipeline.Key{Stage: pipeline.StageProfile, Workload: "crc32/small",
			ISA: "amd64v", Level: compiler.O0}, "017953f4f4aae9cd"},
		{pipeline.Key{Stage: pipeline.StageSynthesize, Workload: "crc32/small",
			ISA: "amd64v", Level: compiler.O0, Seed: 20100321, Clone: true}, "ae5a70a629b9f8e8"},
		{pipeline.Key{Stage: pipeline.StageGenerate, Workload: "generate:0123456789abcdef",
			ISA: "amd64v", Level: compiler.O0, Seed: 20100321}, "2ef8553efa700dfa"},
	}
	for i, g := range golden {
		if got := g.key.Digest(); got != g.want {
			t.Errorf("golden digest %d drifted: got %s, want %s (canonical %q)",
				i, got, g.want, g.key.Canonical())
		}
	}
}
