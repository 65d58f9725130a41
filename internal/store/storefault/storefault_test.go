package storefault_test

// Tests for the fault-injection Backend decorator itself: its scheduling
// semantics — op/name matching, skip/count windows, corruption, and
// miss-degradation on the cache-facing ops.

import (
	"errors"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/store"
	"repro/internal/store/storefault"
)

func faultPair(t *testing.T) (*storefault.Fault, *store.Store) {
	t.Helper()
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatalf("open store: %v", err)
	}
	return storefault.New(st), st
}

var errInjected = errors.New("injected flake")

func TestFaultErrorsAreTransient(t *testing.T) {
	f, _ := faultPair(t)
	f.Script(storefault.Rule{Op: "writefile", Match: "cluster/done/", Count: 2, Err: errInjected})

	// The first two done-dir writes flake, the third lands.
	for i := 0; i < 2; i++ {
		if err := f.WriteFile("cluster/done/a.json", []byte("x")); !errors.Is(err, errInjected) {
			t.Fatalf("write %d: err=%v, want injected", i, err)
		}
	}
	if err := f.WriteFile("cluster/done/a.json", []byte("x")); err != nil {
		t.Fatalf("third write should succeed: %v", err)
	}
	// Writes elsewhere were never affected.
	if err := f.WriteFile("cluster/pending/b.json", []byte("y")); err != nil {
		t.Fatalf("unmatched write: %v", err)
	}
	if got := f.Fired("writefile"); got != 2 {
		t.Fatalf("Fired(writefile) = %d, want 2", got)
	}
}

func TestFaultSkipWindow(t *testing.T) {
	f, _ := faultPair(t)
	f.Script(storefault.Rule{Op: "touch", Skip: 1, Count: 1, Err: errInjected})

	if err := f.WriteFile("cluster/leased/j.json", nil); err != nil {
		t.Fatal(err)
	}
	if err := f.Touch("cluster/leased/j.json"); err != nil {
		t.Fatalf("first touch should pass through: %v", err)
	}
	if err := f.Touch("cluster/leased/j.json"); !errors.Is(err, errInjected) {
		t.Fatalf("second touch: err=%v, want injected", err)
	}
	if err := f.Touch("cluster/leased/j.json"); err != nil {
		t.Fatalf("third touch should recover: %v", err)
	}
}

func TestFaultGetDegradesToMiss(t *testing.T) {
	f, st := faultPair(t)
	if err := st.Put("cafe01", "profile", "k", []byte(`{"v":1}`)); err != nil {
		t.Fatal(err)
	}
	f.Script(storefault.Rule{Op: "get", Count: 1, Err: errInjected})

	if _, ok := f.Get("cafe01", "profile", "k"); ok {
		t.Fatal("faulted get should read as a miss")
	}
	if payload, ok := f.Get("cafe01", "profile", "k"); !ok || string(payload) != `{"v":1}` {
		t.Fatalf("recovered get: ok=%v payload=%q", ok, payload)
	}

	f.Script(storefault.Rule{Op: "has", Count: 1, Err: errInjected})
	if f.Has("cafe01", "profile", "k") {
		t.Fatal("faulted has should read as absent")
	}
	if !f.Has("cafe01", "profile", "k") {
		t.Fatal("recovered has should read as present")
	}
}

func TestFaultCorruption(t *testing.T) {
	f, st := faultPair(t)
	if err := st.Put("cafe01", "profile", "k", []byte(`{"v":1}`)); err != nil {
		t.Fatal(err)
	}
	f.Script(storefault.Rule{Op: "get", Count: 1, Corrupt: true})

	bad, ok := f.Get("cafe01", "profile", "k")
	if !ok {
		t.Fatal("corrupting get still returns a payload")
	}
	if string(bad) == `{"v":1}` {
		t.Fatal("payload was not corrupted")
	}
	good, ok := f.Get("cafe01", "profile", "k")
	if !ok || string(good) != `{"v":1}` {
		t.Fatalf("second get should be clean: ok=%v payload=%q", ok, good)
	}
}

func TestFaultPassThrough(t *testing.T) {
	// With no script, the decorator must be transparent for every op.
	f, _ := faultPair(t)
	name := "wip/m.json"
	if err := f.CreateExclusive(name, []byte("claim")); err != nil {
		t.Fatal(err)
	}
	if err := f.CreateExclusive(name, nil); !errors.Is(err, fs.ErrExist) {
		t.Fatalf("exclusive collision through decorator: %v", err)
	}
	if _, err := f.Stat(name); err != nil {
		t.Fatal(err)
	}
	infos, err := f.List("wip")
	if err != nil || len(infos) != 1 {
		t.Fatalf("list: %+v, %v", infos, err)
	}
	if err := f.Rename(name, "wip/n.json"); err != nil {
		t.Fatal(err)
	}
	data, err := f.ReadFile("wip/n.json")
	if err != nil || string(data) != "claim" {
		t.Fatalf("read: %q, %v", data, err)
	}
	if err := f.Remove("wip/n.json"); err != nil {
		t.Fatal(err)
	}
	if got := f.Fired(""); got != 0 {
		t.Fatalf("no faults should have fired, got %d", got)
	}
}

// TestOnlyTestsImportStorefault keeps the decorator out of the program: no
// non-test Go file of the repository imports this package.
func TestOnlyTestsImportStorefault(t *testing.T) {
	const self = "repro/internal/store/storefault"
	err := filepath.WalkDir("../../..", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "../../.." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		for _, imp := range f.Imports {
			if imp.Path.Value == strconv.Quote(self) {
				t.Errorf("%s imports %s", path, self)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
