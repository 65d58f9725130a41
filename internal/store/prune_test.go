package store

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// prunableStore builds a store holding n entries whose mtimes step one
// hour apart, oldest first, returning the store and the entry digests in
// age order.
func prunableStore(t *testing.T, n int) (*Store, []string) {
	t.Helper()
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var digests []string
	base := time.Now().Add(-time.Duration(n) * time.Hour)
	for i := 0; i < n; i++ {
		payload := []byte(fmt.Sprintf(`{"i":%d}`, i))
		digest := Fingerprint([]byte(fmt.Sprintf("entry-%d", i)))
		if err := s.Put(digest, "marker", fmt.Sprintf("key-%d", i), payload); err != nil {
			t.Fatal(err)
		}
		mtime := base.Add(time.Duration(i) * time.Hour)
		if err := os.Chtimes(s.path(digest), mtime, mtime); err != nil {
			t.Fatal(err)
		}
		digests = append(digests, digest)
	}
	return s, digests
}

// TestStorePruneMaxAge checks the age pass removes exactly the entries
// older than the cutoff.
func TestStorePruneMaxAge(t *testing.T) {
	s, digests := prunableStore(t, 6)
	// Entries are 6h,5h,…,1h old; a 3.5h cutoff removes the oldest three.
	stats, err := s.Prune(PruneOptions{MaxAge: 3*time.Hour + 30*time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Scanned != 6 || stats.Removed != 3 {
		t.Fatalf("stats: %+v", stats)
	}
	for i, d := range digests {
		_, ok := s.Get(d, "marker", fmt.Sprintf("key-%d", i))
		if want := i >= 3; ok != want {
			t.Errorf("entry %d present=%v, want %v", i, ok, want)
		}
	}
}

// TestStorePruneMaxBytes checks the size pass evicts oldest-first until
// the store fits the budget.
func TestStorePruneMaxBytes(t *testing.T) {
	s, digests := prunableStore(t, 5)
	var total int64
	for i, d := range digests {
		info, err := os.Stat(s.path(d))
		if err != nil {
			t.Fatal(err)
		}
		if i >= 3 { // budget: exactly the two newest entries
			total += info.Size()
		}
	}
	stats, err := s.Prune(PruneOptions{MaxBytes: total})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Removed != 3 {
		t.Fatalf("stats: %+v (budget %d)", stats, total)
	}
	n, err := s.Len()
	if err != nil || n != 2 {
		t.Fatalf("after prune: %d entries, %v", n, err)
	}
	if _, ok := s.Get(digests[4], "marker", "key-4"); !ok {
		t.Error("newest entry evicted")
	}
}

// TestStorePruneDryRun checks DryRun reports without removing.
func TestStorePruneDryRun(t *testing.T) {
	s, _ := prunableStore(t, 4)
	stats, err := s.Prune(PruneOptions{MaxAge: time.Hour, DryRun: true})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Removed == 0 {
		t.Fatalf("dry run reported nothing removable: %+v", stats)
	}
	if n, _ := s.Len(); n != 4 {
		t.Fatalf("dry run removed entries: %d left", n)
	}
}

// TestStorePruneSkipsTempAndQueue checks in-flight temp files and the
// cluster queue directory are never touched, however old they are.
func TestStorePruneSkipsTempAndQueue(t *testing.T) {
	s, _ := prunableStore(t, 2)
	old := time.Now().Add(-48 * time.Hour)

	tmp := filepath.Join(s.root, "ab", ".deadbeef.json.tmp-1")
	if err := os.MkdirAll(filepath.Dir(tmp), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(tmp, []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}
	queueFile := filepath.Join(s.root, "cluster", "pending", "job.json")
	if err := os.MkdirAll(filepath.Dir(queueFile), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(queueFile, []byte(`{}`), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{tmp, queueFile} {
		if err := os.Chtimes(p, old, old); err != nil {
			t.Fatal(err)
		}
	}

	stats, err := s.Prune(PruneOptions{MaxAge: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Removed != 2 {
		t.Fatalf("stats: %+v", stats)
	}
	for _, p := range []string{tmp, queueFile} {
		if _, err := os.Stat(p); err != nil {
			t.Errorf("%s was pruned", p)
		}
	}
}

// TestStorePruneStaleWIPMarkers checks the wip/ sweep: markers past
// WIPMaxAge (crashed owners — no heartbeat refreshing the mtime) are
// removed, fresh markers and non-marker files survive, and without
// WIPMaxAge the subtree is untouched. This is the regression test for
// orphaned in-progress markers accumulating forever: the main prune pass
// only scans two-hex shard directories, so wip/ was invisible to GC.
func TestStorePruneStaleWIPMarkers(t *testing.T) {
	s, _ := prunableStore(t, 2)
	wip := filepath.Join(s.root, WIPDir)
	if err := os.MkdirAll(wip, 0o755); err != nil {
		t.Fatal(err)
	}
	stale := filepath.Join(wip, "00000000deadbeef.json")
	fresh := filepath.Join(wip, "00000000cafef00d.json")
	other := filepath.Join(wip, "README.txt")
	for _, p := range []string{stale, fresh, other} {
		if err := os.WriteFile(p, []byte(`{}`), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	old := time.Now().Add(-48 * time.Hour)
	for _, p := range []string{stale, other} {
		if err := os.Chtimes(p, old, old); err != nil {
			t.Fatal(err)
		}
	}

	// Without WIPMaxAge, markers are untouched no matter how old.
	stats, err := s.Prune(PruneOptions{MaxAge: 72 * time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if stats.WIPScanned != 0 || stats.WIPRemoved != 0 {
		t.Fatalf("wip swept without WIPMaxAge: %+v", stats)
	}
	if _, err := os.Stat(stale); err != nil {
		t.Fatal("stale marker removed without WIPMaxAge")
	}

	// DryRun reports the stale marker without removing it.
	stats, err = s.Prune(PruneOptions{WIPMaxAge: time.Hour, DryRun: true})
	if err != nil {
		t.Fatal(err)
	}
	if stats.WIPScanned != 2 || stats.WIPRemoved != 1 {
		t.Fatalf("dry-run wip stats: %+v", stats)
	}
	if _, err := os.Stat(stale); err != nil {
		t.Fatal("dry run removed the stale marker")
	}

	// The real pass removes exactly the stale marker.
	stats, err = s.Prune(PruneOptions{WIPMaxAge: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if stats.WIPScanned != 2 || stats.WIPRemoved != 1 {
		t.Fatalf("wip stats: %+v", stats)
	}
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Error("stale marker survived")
	}
	if _, err := os.Stat(fresh); err != nil {
		t.Error("fresh marker removed")
	}
	if _, err := os.Stat(other); err != nil {
		t.Error("non-marker file removed")
	}
	for i := 0; i < 2; i++ {
		d := Fingerprint([]byte(fmt.Sprintf("entry-%d", i)))
		if _, ok := s.Get(d, "marker", fmt.Sprintf("key-%d", i)); !ok {
			t.Errorf("cache entry %d disturbed by wip sweep", i)
		}
	}
}

// TestStorePruneZeroOptions checks the zero PruneOptions removes nothing.
func TestStorePruneZeroOptions(t *testing.T) {
	s, _ := prunableStore(t, 3)
	stats, err := s.Prune(PruneOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Removed != 0 || stats.Scanned != 3 {
		t.Fatalf("stats: %+v", stats)
	}
}
