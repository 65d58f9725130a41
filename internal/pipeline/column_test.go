package pipeline_test

import (
	"context"
	"errors"
	"sync"
	"testing"

	"repro/internal/compiler"
	"repro/internal/cpu"
	"repro/internal/isa"
	"repro/internal/pipeline"
	"repro/internal/store"
)

// simCounter wraps a store and counts the Simulate stage's traffic: Gets,
// Has probes and Puts of sim artifacts. onPut, when set, runs after every
// sim Put.
type simCounter struct {
	store.Backend
	mu              sync.Mutex
	gets, has, puts int
	onPut           func()
}

func (b *simCounter) Get(digest, kind, key string) ([]byte, bool) {
	if kind == "sim" {
		b.mu.Lock()
		b.gets++
		b.mu.Unlock()
	}
	return b.Backend.Get(digest, kind, key)
}

func (b *simCounter) Has(digest, kind, key string) bool {
	if kind == "sim" {
		b.mu.Lock()
		b.has++
		b.mu.Unlock()
	}
	return b.Backend.Has(digest, kind, key)
}

func (b *simCounter) Put(digest, kind, key string, payload []byte) error {
	err := b.Backend.Put(digest, kind, key, payload)
	if kind == "sim" {
		b.mu.Lock()
		b.puts++
		f := b.onPut
		b.mu.Unlock()
		if f != nil {
			f()
		}
	}
	return err
}

func (b *simCounter) counts() (gets, has, puts int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.gets, b.has, b.puts
}

// columnCfgs returns k distinct machine configurations, more than one
// simulation group's worth, so a column spans several groups.
func columnCfgs(k int) []cpu.Config {
	cfgs := make([]cpu.Config, k)
	for i := range cfgs {
		cfgs[i] = simCfg()
		cfgs[i].MemLat = 100 + 25*i
	}
	return cfgs
}

// perConfig returns the summaries separate Simulate calls produce.
func perConfig(t *testing.T, cfgs []cpu.Config, clone bool) []cpu.Summary {
	t.Helper()
	p := pipeline.New(pipeline.Options{Workers: 1, Seed: 7})
	w := mustWorkload(t, "crc32/small")
	out := make([]cpu.Summary, len(cfgs))
	for i, cfg := range cfgs {
		s, err := p.Simulate(context.Background(), w, isa.AMD64, compiler.O2, cfg, clone, 0)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = s
	}
	return out
}

func sameSummaries(t *testing.T, what string, got, want []cpu.Summary) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d summaries, want %d", what, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: summary %d differs from Simulate's:\ngot  %+v\nwant %+v", what, i, got[i], want[i])
		}
	}
}

// TestSimulateColumnStoreTraffic pins the column path's store contract:
// a cold column of K configs computes K simulations with exactly 2K sim
// Gets (each summary is looked up once, and once more after its
// in-progress marker is claimed) and K sim Puts, and a second pipeline
// over the same store computes nothing, reading each summary with one Get
// and no Has probe. Both match per-config Simulate exactly.
func TestSimulateColumnStoreTraffic(t *testing.T) {
	ctx := context.Background()
	w := mustWorkload(t, "crc32/small")
	cfgs := columnCfgs(11)
	k := len(cfgs)
	dir := t.TempDir()
	for _, clone := range []bool{false, true} {
		want := perConfig(t, cfgs, clone)

		cold := &simCounter{Backend: openStore(t, dir)}
		p := pipeline.New(pipeline.Options{Workers: 2, Seed: 7, Store: cold})
		got, err := p.SimulateColumn(ctx, w, isa.AMD64, compiler.O2, cfgs, clone, 0)
		if err != nil {
			t.Fatal(err)
		}
		sameSummaries(t, "cold column", got, want)
		if n := p.CacheStats().ComputedFor(pipeline.StageSimulate); n != uint64(k) {
			t.Errorf("clone=%v cold: computed %d simulations, want %d", clone, n, k)
		}
		if gets, has, puts := cold.counts(); gets != 2*k || has != 0 || puts != k {
			t.Errorf("clone=%v cold: %d Gets, %d Has, %d Puts; want %d, 0, %d", clone, gets, has, puts, 2*k, k)
		}

		warm := &simCounter{Backend: openStore(t, dir)}
		q := pipeline.New(pipeline.Options{Workers: 2, Seed: 7, Store: warm})
		got, err = q.SimulateColumn(ctx, w, isa.AMD64, compiler.O2, cfgs, clone, 0)
		if err != nil {
			t.Fatal(err)
		}
		sameSummaries(t, "warm column", got, want)
		cs := q.CacheStats()
		var computed uint64
		for _, n := range cs.Computed {
			computed += n
		}
		if computed != 0 || cs.DiskHits != uint64(k) {
			t.Errorf("clone=%v warm: computed %d artifacts and hit disk %d times, want 0 and %d", clone, computed, cs.DiskHits, k)
		}
		if gets, has, puts := warm.counts(); gets != k || has != 0 || puts != 0 {
			t.Errorf("clone=%v warm: %d Gets, %d Has, %d Puts; want %d, 0, 0", clone, gets, has, puts, k)
		}
	}
}

// TestSimulateColumnPartialStore verifies a column over a store that holds
// some of its summaries computes only the missing ones; each missing one is
// read a second time after its in-progress marker is claimed.
func TestSimulateColumnPartialStore(t *testing.T) {
	ctx := context.Background()
	w := mustWorkload(t, "crc32/small")
	cfgs := columnCfgs(11)
	dir := t.TempDir()
	stored := []int{0, 3, 8}
	pre := pipeline.New(pipeline.Options{Workers: 1, Seed: 7, Store: openStore(t, dir)})
	for _, i := range stored {
		if _, err := pre.Simulate(ctx, w, isa.AMD64, compiler.O2, cfgs[i], false, 0); err != nil {
			t.Fatal(err)
		}
	}

	st := &simCounter{Backend: openStore(t, dir)}
	p := pipeline.New(pipeline.Options{Workers: 2, Seed: 7, Store: st})
	if _, err := p.Compile(ctx, w, isa.AMD64, compiler.O2); err != nil { // a disk hit of its own
		t.Fatal(err)
	}
	before := p.CacheStats()
	got, err := p.SimulateColumn(ctx, w, isa.AMD64, compiler.O2, cfgs, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	sameSummaries(t, "partial column", got, perConfig(t, cfgs, false))
	missing := len(cfgs) - len(stored)
	cs := p.CacheStats().Sub(before)
	if n := cs.ComputedFor(pipeline.StageSimulate); n != uint64(missing) || cs.DiskHits != uint64(len(stored)) {
		t.Errorf("computed %d simulations with %d disk hits, want %d and %d", n, cs.DiskHits, missing, len(stored))
	}
	if gets, has, puts := st.counts(); gets != len(cfgs)+missing || has != 0 || puts != missing {
		t.Errorf("%d Gets, %d Has, %d Puts; want %d, 0, %d", gets, has, puts, len(cfgs)+missing, missing)
	}
}

// TestSimulateColumnCancelMidGroup cancels a column right after its first
// summary is stored, while the rest of that group's summaries are still
// pending in the call: the call fails with the cancellation, caches no
// error, and a retry on the same pipeline computes exactly the remaining
// summaries.
func TestSimulateColumnCancelMidGroup(t *testing.T) {
	w := mustWorkload(t, "crc32/small")
	cfgs := columnCfgs(11)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	st := &simCounter{Backend: openStore(t, t.TempDir()), onPut: cancel}
	p := pipeline.New(pipeline.Options{Workers: 2, Seed: 7, Store: st})
	if _, err := p.SimulateColumn(ctx, w, isa.AMD64, compiler.O2, cfgs, false, 0); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled column returned %v, want context.Canceled", err)
	}
	if n := p.CacheStats().ComputedFor(pipeline.StageSimulate); n != 1 {
		t.Fatalf("canceled column computed %d simulations, want 1", n)
	}

	st.mu.Lock()
	st.onPut = nil
	st.mu.Unlock()
	got, err := p.SimulateColumn(context.Background(), w, isa.AMD64, compiler.O2, cfgs, false, 0)
	if err != nil {
		t.Fatalf("retry after cancel: %v", err)
	}
	sameSummaries(t, "retried column", got, perConfig(t, cfgs, false))
	if n := p.CacheStats().ComputedFor(pipeline.StageSimulate); n != uint64(len(cfgs)) {
		t.Errorf("cancel plus retry computed %d simulations, want %d", n, len(cfgs))
	}
}

// TestSimulateColumnsMatchesSimulate checks the fan-out over several
// columns and ISAs: every [column][config] summary equals Simulate's, and
// an invalid config fails the call before any work.
func TestSimulateColumnsMatchesSimulate(t *testing.T) {
	ctx := context.Background()
	w := mustWorkload(t, "crc32/small")
	cfgs := append(columnCfgs(9), cpu.Pentium4_3000, cpu.Core2)
	cols := []pipeline.Column{
		{Workload: w, Level: compiler.O1},
		{Workload: w, Level: compiler.O1, Clone: true},
	}
	p := pipeline.New(pipeline.Options{Workers: 2, Seed: 7})
	got, err := p.SimulateColumns(ctx, cols, cfgs, 0)
	if err != nil {
		t.Fatal(err)
	}
	ref := pipeline.New(pipeline.Options{Workers: 1, Seed: 7})
	for c, col := range cols {
		for i, cfg := range cfgs {
			want, err := ref.Simulate(ctx, w, cfg.ISA, col.Level, cfg, col.Clone, 0)
			if err != nil {
				t.Fatal(err)
			}
			if got[c][i] != want {
				t.Fatalf("column %d config %d (%s): %+v, want %+v", c, i, cfg.Name, got[c][i], want)
			}
		}
	}

	bad := simCfg()
	bad.L2Lat = 0
	q := pipeline.New(pipeline.Options{Workers: 2, Seed: 7})
	if _, err := q.SimulateColumns(ctx, cols, append(cfgs, bad), 0); err == nil {
		t.Fatal("invalid config accepted")
	}
	if n := q.CacheStats().ComputedFor(pipeline.StageSimulate); n != 0 {
		t.Fatalf("invalid config still computed %d simulations", n)
	}
}
