package pipeline_test

import (
	"context"
	"encoding/json"
	"os"
	"slices"
	"sort"
	"testing"

	"repro/internal/experiments"
	"repro/internal/pipeline"
	"repro/internal/profile"
)

// v6Profile is crc32/small's profile as a binary of artifact version 6
// wrote it (`synth profile -workload crc32/small`): every instruction
// still carries its class and the profile its cache configuration.
const v6Profile = "testdata/crc32-small.v6.profile.json"

// jsonKeys returns every object key anywhere in a JSON document.
func jsonKeys(t *testing.T, data []byte) map[string]bool {
	t.Helper()
	var doc any
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	keys := map[string]bool{}
	var walk func(any)
	walk = func(v any) {
		switch v := v.(type) {
		case map[string]any:
			for k, e := range v {
				keys[k] = true
				walk(e)
			}
		case []any:
			for _, e := range v {
				walk(e)
			}
		}
	}
	walk(doc)
	return keys
}

// TestStoredFormatsRecordEachFactOnce checks the persisted shapes of the
// quick suite's clones, a profile and the simulations: a clone is its
// source and report only (its original's profile is stored once, as the
// profile), a profile holds no per-instruction class (the opcode gives
// it) and no cache configuration (the profiling point fixes it), and a
// simulation holds no CPI or branch accuracy (both derive from its
// counts).
func TestStoredFormatsRecordEachFactOnce(t *testing.T) {
	seeds := quickSeeds()
	if seeds.err != nil {
		t.Fatal(seeds.err)
	}
	for _, data := range seeds.clones {
		var top map[string]json.RawMessage
		if err := json.Unmarshal(data, &top); err != nil {
			t.Fatal(err)
		}
		var keys []string
		for k := range top {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		if !slices.Equal(keys, []string{"report", "source"}) {
			t.Errorf("stored clone has keys %v, want exactly source and report", keys)
		}
	}
	prof, err := pipeline.New(pipeline.Options{}).Profile(context.Background(), mustWorkload(t, "crc32/small"))
	if err != nil {
		t.Fatal(err)
	}
	data, err := pipeline.EncodeProfile(prof)
	if err != nil {
		t.Fatal(err)
	}
	for k := range jsonKeys(t, data) {
		if k == "class" || k == "cacheCfg" {
			t.Errorf("stored profile has a %q key", k)
		}
	}
	for _, data := range seeds.sims {
		for k := range jsonKeys(t, data) {
			if k == "cpi" || k == "branchAcc" {
				t.Errorf("stored simulation has a %q key", k)
			}
		}
	}
}

// TestV6ProfileSynthesizesTheSameClone loads a profile file written before
// instructions lost their class and profiles their cache configuration.
// It must load, re-encode to today's profile of the same workload, and
// synthesize the clone source that workload's own synthesis gives: the
// removed fields were never read.
func TestV6ProfileSynthesizesTheSameClone(t *testing.T) {
	ctx := context.Background()
	f, err := os.Open(v6Profile)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	old, err := profile.Load(f)
	if err != nil {
		t.Fatalf("version-6 profile no longer loads: %v", err)
	}
	w := mustWorkload(t, "crc32/small")
	p := pipeline.New(pipeline.Options{Workers: 1, Seed: experiments.CloneSeed})
	fresh, err := p.Profile(ctx, w)
	if err != nil {
		t.Fatal(err)
	}
	oldData, err := pipeline.EncodeProfile(old)
	if err != nil {
		t.Fatal(err)
	}
	freshData, err := pipeline.EncodeProfile(fresh)
	if err != nil {
		t.Fatal(err)
	}
	if string(oldData) != string(freshData) {
		t.Error("version-6 profile re-encodes differently from today's profile of crc32/small")
	}
	fromFile, err := p.SynthesizeProfile(ctx, old)
	if err != nil {
		t.Fatal(err)
	}
	named, err := p.Synthesize(ctx, w)
	if err != nil {
		t.Fatal(err)
	}
	if fromFile.Source != named.Source {
		t.Error("version-6 profile synthesizes a different clone source than crc32/small")
	}
}

// TestSynthesizeProfileWarmStore synthesizes from a saved profile in one
// pipeline, then in a second one over the same store: the warm run must
// read the clone back, computing no synthesis and meeting no disk error,
// and return the same source.
func TestSynthesizeProfileWarmStore(t *testing.T) {
	ctx := context.Background()
	data, err := os.ReadFile(v6Profile)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	var sources []string
	for run := range 2 {
		prof, err := pipeline.DecodeProfile(data)
		if err != nil {
			t.Fatal(err)
		}
		p := pipeline.New(pipeline.Options{Workers: 1, Seed: experiments.CloneSeed, Store: openStore(t, dir)})
		cl, err := p.SynthesizeProfile(ctx, prof)
		if err != nil {
			t.Fatal(err)
		}
		sources = append(sources, cl.Source)
		s := p.CacheStats()
		if run == 1 && (s.ComputedFor(pipeline.StageSynthesize) != 0 || s.DiskErrors != 0 || s.DiskHits == 0) {
			t.Errorf("warm run: want a disk hit, no synthesis and no disk error, got %+v", s)
		}
	}
	if sources[0] != sources[1] {
		t.Error("warm run returned a different clone source")
	}
}
