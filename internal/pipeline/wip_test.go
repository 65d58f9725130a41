package pipeline

// In-package tests for the cross-process in-progress gate: two pipelines
// sharing one store must single-flight persisted computations through the
// wip/ marker subtree, and a marker abandoned by a crashed process must be
// stolen rather than stalling everyone forever.

import (
	"context"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/compiler"
	"repro/internal/isa"
	"repro/internal/store"
	"repro/internal/workloads"
)

// wipPipeline builds a pipeline over the shared store directory exactly as
// a second process would: a fresh Pipeline (cold memory cache) over a
// fresh *store.Store handle.
func wipPipeline(t *testing.T, dir string) *Pipeline {
	t.Helper()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	return New(Options{Workers: 2, Seed: 1, Store: st})
}

// TestWIPGateCrossProcessDedup is the gate's core property: two pipelines
// (standing in for two processes) racing to profile the same workload over
// one store perform the underlying compile and profile exactly once in
// total — the loser of each marker claim adopts the winner's artifact as a
// disk hit instead of recomputing it.
func TestWIPGateCrossProcessDedup(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	w := workloads.ByName("crc32/small")
	if w == nil {
		t.Fatal("workload crc32/small missing")
	}
	a, b := wipPipeline(t, dir), wipPipeline(t, dir)

	start := make(chan struct{})
	errs := make(chan error, 2)
	var wg sync.WaitGroup
	for _, p := range []*Pipeline{a, b} {
		wg.Add(1)
		go func(p *Pipeline) {
			defer wg.Done()
			<-start
			_, err := p.Profile(ctx, w)
			errs <- err
		}(p)
	}
	close(start)
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatalf("profile: %v", err)
		}
	}

	sum := a.CacheStats().Add(b.CacheStats())
	if got := sum.ComputedFor(StageProfile); got != 1 {
		t.Errorf("profile computed %d times across both pipelines, want 1", got)
	}
	if got := sum.ComputedFor(StageCompile); got != 1 {
		t.Errorf("profiling compile computed %d times across both pipelines, want 1", got)
	}
	if sum.DiskErrors != 0 {
		t.Errorf("gated run reported %d disk errors", sum.DiskErrors)
	}

	// The gate cleans up after itself: no in-progress markers survive.
	entries, err := os.ReadDir(filepath.Join(dir, store.WIPDir))
	if err == nil && len(entries) != 0 {
		t.Errorf("%d stale wip markers left behind", len(entries))
	}
}

// missThen is a store.Backend whose first Get miss runs then before it
// returns: it stands in for another process that computes, writes and
// releases the same artifact just after this one looked for it.
type missThen struct {
	store.Backend
	once sync.Once
	then func()
}

func (m *missThen) Get(digest, kind, key string) ([]byte, bool) {
	payload, ok := m.Backend.Get(digest, kind, key)
	if !ok {
		m.once.Do(m.then)
	}
	return payload, ok
}

// TestWIPGateRereadsAfterClaim pins the gate's last window: pipeline B
// profiles a workload to completion between pipeline A's first miss on the
// profile and A's claim of its marker. A must find B's artifact after the
// claim instead of profiling a second time.
func TestWIPGateRereadsAfterClaim(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	w := workloads.ByName("crc32/small")
	if w == nil {
		t.Fatal("workload crc32/small missing")
	}
	b := wipPipeline(t, dir)
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	var errB error
	a := New(Options{Workers: 2, Seed: 1, Store: &missThen{Backend: st, then: func() {
		_, errB = b.Profile(ctx, w)
	}}})
	if _, err := a.Profile(ctx, w); err != nil {
		t.Fatalf("profile on A: %v", err)
	}
	if errB != nil {
		t.Fatalf("profile on B: %v", errB)
	}
	if got := b.CacheStats().ComputedFor(StageProfile); got != 1 {
		t.Fatalf("B computed the profile %d times, want 1", got)
	}
	sum := a.CacheStats().Add(b.CacheStats())
	if got := sum.ComputedFor(StageProfile); got != 1 {
		t.Errorf("profile computed %d times across both pipelines, want 1", got)
	}
	if got := sum.ComputedFor(StageCompile); got != 1 {
		t.Errorf("profiling compile computed %d times across both pipelines, want 1", got)
	}
}

// TestWIPStaleMarkerStolen simulates a process that claimed an artifact
// and died without heartbeating: its marker must be stolen after wipTTL
// and the computation must proceed, so a crash can only stall the fleet
// briefly, never wedge it.
func TestWIPStaleMarkerStolen(t *testing.T) {
	savedTTL, savedPoll := wipTTL, wipPoll
	wipTTL, wipPoll = 60*time.Millisecond, 5*time.Millisecond
	defer func() { wipTTL, wipPoll = savedTTL, savedPoll }()

	ctx := context.Background()
	dir := t.TempDir()
	w := workloads.ByName("crc32/small")
	if w == nil {
		t.Fatal("workload crc32/small missing")
	}
	p := wipPipeline(t, dir)

	// Plant the dead process's marker on the profile artifact.
	var profileKey Key
	for _, k := range p.PairKeys(w, isa.AMD64, compiler.O0) {
		if k.Stage == StageProfile {
			profileKey = k
		}
	}
	if profileKey.Stage != StageProfile {
		t.Fatal("no profile key in PairKeys")
	}
	if err := p.opts.Store.CreateExclusive(wipName(profileKey), []byte("{}")); err != nil {
		t.Fatal(err)
	}

	done := make(chan error, 1)
	go func() {
		_, err := p.Profile(ctx, w)
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("profile after stale steal: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("pipeline wedged on an abandoned wip marker")
	}
	if got := p.CacheStats().ComputedFor(StageProfile); got != 1 {
		t.Errorf("profile computed %d times, want 1", got)
	}
	if _, err := p.opts.Store.Stat(wipName(profileKey)); err == nil {
		t.Error("stolen marker still present after the computation")
	}
}
