package pipeline_test

import (
	"context"
	"testing"

	"repro/internal/compiler"
	"repro/internal/cpu"
	"repro/internal/isa"
	"repro/internal/pipeline"
)

// simCfg is the machine the Simulate-stage tests run on.
func simCfg() cpu.Config { return cpu.Simulated2Wide(16) }

// TestPipelineSimulateCached verifies the Simulate stage is a first-class
// cached artifact: the pair's two simulations compute exactly twice, a
// repeat is all hits, and a different machine configuration (or bound, or
// program side) is a distinct artifact.
func TestPipelineSimulateCached(t *testing.T) {
	ctx := context.Background()
	p := pipeline.New(pipeline.Options{Workers: 2, Seed: 7})
	w := mustWorkload(t, "crc32/small")

	pair, err := p.SimulatePair(ctx, w, isa.AMD64, compiler.O2, simCfg(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if pair.Orig.Instrs == 0 || pair.Syn.Instrs == 0 || pair.Orig.CPI() == 0 || pair.Syn.CPI() == 0 {
		t.Fatalf("empty simulation summaries: %+v", pair)
	}
	if got := p.CacheStats().ComputedFor(pipeline.StageSimulate); got != 2 {
		t.Fatalf("pair computed %d simulations, want 2", got)
	}

	again, err := p.SimulatePair(ctx, w, isa.AMD64, compiler.O2, simCfg(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if again != pair {
		t.Fatalf("cached pair differs: %+v vs %+v", again, pair)
	}
	if got := p.CacheStats().ComputedFor(pipeline.StageSimulate); got != 2 {
		t.Fatalf("warm repeat recomputed simulations: %d", got)
	}

	// A different machine configuration is a different artifact.
	other := simCfg()
	other.MemLat *= 2
	if _, err := p.Simulate(ctx, w, isa.AMD64, compiler.O2, other, false, 0); err != nil {
		t.Fatal(err)
	}
	if got := p.CacheStats().ComputedFor(pipeline.StageSimulate); got != 3 {
		t.Fatalf("config change did not trigger a computation: %d", got)
	}
	// A different simulation bound is a different artifact too.
	if _, err := p.Simulate(ctx, w, isa.AMD64, compiler.O2, simCfg(), false, 50_000); err != nil {
		t.Fatal(err)
	}
	if got := p.CacheStats().ComputedFor(pipeline.StageSimulate); got != 4 {
		t.Fatalf("bound change did not trigger a computation: %d", got)
	}
}

// TestPipelineSimulateInvalidConfig verifies structural validation runs
// before any work.
func TestPipelineSimulateInvalidConfig(t *testing.T) {
	p := pipeline.New(pipeline.Options{Workers: 1})
	w := mustWorkload(t, "crc32/small")
	bad := simCfg()
	bad.L1Lat = 0
	if _, err := p.Simulate(context.Background(), w, isa.AMD64, compiler.O2, bad, false, 0); err == nil {
		t.Fatal("invalid config accepted")
	}
	if got := p.CacheStats().ComputedFor(pipeline.StageSimulate); got != 0 {
		t.Fatalf("invalid config counted as a computation: %d", got)
	}
}

// TestPipelineSimulateDiskWarm verifies the Simulate stage's persistent
// tier: a fresh pipeline over the first one's store serves every
// simulation from disk and the summaries agree exactly.
func TestPipelineSimulateDiskWarm(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	w := mustWorkload(t, "crc32/small")

	cold := pipeline.New(pipeline.Options{Workers: 2, Seed: 7, Store: openStore(t, dir)})
	pair, err := cold.SimulatePair(ctx, w, isa.AMD64, compiler.O2, simCfg(), 0)
	if err != nil {
		t.Fatal(err)
	}

	warm := pipeline.New(pipeline.Options{Workers: 2, Seed: 7, Store: openStore(t, dir)})
	got, err := warm.SimulatePair(ctx, w, isa.AMD64, compiler.O2, simCfg(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if got != pair {
		t.Fatalf("disk round trip changed the pair:\ncold %+v\nwarm %+v", pair, got)
	}
	cs := warm.CacheStats()
	if cs.ComputedFor(pipeline.StageSimulate) != 0 || cs.DiskHits != 2 || cs.DiskErrors != 0 {
		t.Fatalf("warm pipeline did not serve simulations from disk: %+v", cs)
	}
}

// TestSimKeysMatchStoredDigests guards SimKeys against drifting from the
// keys Simulate actually persists under, the way PairKeys is guarded:
// after one SimulatePair, both advertised keys must exist in the store.
func TestSimKeysMatchStoredDigests(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	s := openStore(t, dir)
	p := pipeline.New(pipeline.Options{Workers: 2, Seed: 7, Store: s})
	w := mustWorkload(t, "crc32/small")

	if _, err := p.SimulatePair(ctx, w, isa.AMD64, compiler.O2, simCfg(), 12345); err != nil {
		t.Fatal(err)
	}
	keys := p.SimKeys(w, isa.AMD64, compiler.O2, simCfg(), 12345)
	if len(keys) != 2 {
		t.Fatalf("SimKeys returned %d keys, want 2", len(keys))
	}
	for _, k := range keys {
		if k.StoreKind() == "" {
			t.Fatalf("stage %v advertises no store kind", k.Stage)
		}
		if !s.Has(k.Digest(), k.StoreKind(), k.Canonical()) {
			t.Errorf("advertised key (clone=%v, digest %s) was not persisted", k.Clone, k.Digest())
		}
	}
	// A different bound must advertise different digests.
	other := p.SimKeys(w, isa.AMD64, compiler.O2, simCfg(), 0)
	for i := range keys {
		if keys[i].Digest() == other[i].Digest() {
			t.Errorf("key %d ignores the simulation bound", i)
		}
	}
}
