package store_test

import (
	"errors"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/store"
)

// remotePair spins up a filesystem store, serves it over an httptest
// server, and returns a Remote client pointed at it plus the local store
// for cross-checking.
func remotePair(t *testing.T) (*store.Remote, *store.Store) {
	t.Helper()
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatalf("open store: %v", err)
	}
	srv := httptest.NewServer(http.StripPrefix("/api/v1/store", store.NewHandler(st)))
	t.Cleanup(srv.Close)
	rem, err := store.OpenRemote(srv.URL+"/api/v1/store", "")
	if err != nil {
		t.Fatalf("open remote: %v", err)
	}
	return rem, st
}

func TestRemoteArtifactRoundTrip(t *testing.T) {
	rem, st := remotePair(t)

	payload := []byte(`{"hello":"fabric"}`)
	if err := rem.Put("cafe01", "profile", "some/key", payload); err != nil {
		t.Fatalf("remote put: %v", err)
	}
	// The write landed in the coordinator's local store...
	got, ok := st.Get("cafe01", "profile", "some/key")
	if !ok || string(got) != string(payload) {
		t.Fatalf("local get after remote put: ok=%v payload=%q", ok, got)
	}
	// ...and reads back identically over the wire.
	got, ok = rem.Get("cafe01", "profile", "some/key")
	if !ok || string(got) != string(payload) {
		t.Fatalf("remote get: ok=%v payload=%q", ok, got)
	}
	if !rem.Has("cafe01", "profile", "some/key") {
		t.Fatal("remote has: want true")
	}
	if rem.Has("cafe01", "profile", "other/key") {
		t.Fatal("remote has of absent key: want false")
	}
	if _, ok := rem.Get("beef02", "profile", "k"); ok {
		t.Fatal("remote get of absent digest: want miss")
	}
}

// TestRemotePutRejectsNonJSON checks that an HTTP put of a payload that
// is not JSON fails and writes nothing: Put splices payloads into their
// envelopes unchecked, so the handler is where a remote writer's bytes are
// checked.
func TestRemotePutRejectsNonJSON(t *testing.T) {
	rem, st := remotePair(t)
	for _, payload := range []string{"", "not json", `{"a":1`, `{"a":1} trailing`} {
		if err := rem.Put("cafe01", "profile", "some/key", []byte(payload)); err == nil {
			t.Errorf("remote put of %q: want an error", payload)
		}
	}
	if n, err := st.Len(); err != nil || n != 0 {
		t.Fatalf("store holds %d entries after rejected puts (%v), want 0", n, err)
	}
	if _, ok := rem.Get("cafe01", "profile", "some/key"); ok {
		t.Fatal("remote get after rejected puts: want a miss")
	}
}

func TestRemoteCoordinationFiles(t *testing.T) {
	rem, st := remotePair(t)

	name := "cluster/pending/job1.json"
	if _, err := rem.ReadFile(name); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("read missing file: err=%v, want fs.ErrNotExist", err)
	}
	if err := rem.WriteFile(name, []byte(`{"job":1}`)); err != nil {
		t.Fatalf("write file: %v", err)
	}
	data, err := rem.ReadFile(name)
	if err != nil || string(data) != `{"job":1}` {
		t.Fatalf("read back: %q, %v", data, err)
	}
	// The bytes live in the coordinator's filesystem store.
	local, err := st.ReadFile(name)
	if err != nil || string(local) != `{"job":1}` {
		t.Fatalf("local read: %q, %v", local, err)
	}

	// Exclusive create: first wins, second maps the 409 to fs.ErrExist.
	marker := "wip/abc.json"
	if err := rem.CreateExclusive(marker, []byte("claim")); err != nil {
		t.Fatalf("create exclusive: %v", err)
	}
	if err := rem.CreateExclusive(marker, []byte("claim")); !errors.Is(err, fs.ErrExist) {
		t.Fatalf("second create: err=%v, want fs.ErrExist", err)
	}

	// Stat and Touch round-trip mtimes.
	before, err := rem.Stat(marker)
	if err != nil {
		t.Fatalf("stat: %v", err)
	}
	time.Sleep(10 * time.Millisecond)
	if err := rem.Touch(marker); err != nil {
		t.Fatalf("touch: %v", err)
	}
	after, err := rem.Stat(marker)
	if err != nil {
		t.Fatalf("stat after touch: %v", err)
	}
	if !after.ModTime.After(before.ModTime) {
		t.Fatalf("touch did not advance mtime: %v -> %v", before.ModTime, after.ModTime)
	}

	// List sees exactly the one pending file; a missing dir lists empty.
	infos, err := rem.List("cluster/pending")
	if err != nil || len(infos) != 1 || infos[0].Name != "job1.json" {
		t.Fatalf("list: %+v, %v", infos, err)
	}
	empty, err := rem.List("cluster/leased")
	if err != nil || len(empty) != 0 {
		t.Fatalf("list missing dir: %+v, %v", empty, err)
	}

	// Rename is the claim primitive: one winner, losers get fs.ErrNotExist.
	leased := "cluster/leased/job1@w0.json"
	if err := rem.Rename(name, leased); err != nil {
		t.Fatalf("rename: %v", err)
	}
	if err := rem.Rename(name, leased); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("rename of gone file: err=%v, want fs.ErrNotExist", err)
	}
	if err := rem.Remove(leased); err != nil {
		t.Fatalf("remove: %v", err)
	}
	if err := rem.Remove(leased); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("double remove: err=%v, want fs.ErrNotExist", err)
	}
}

func TestRemoteRejectsEscapingNames(t *testing.T) {
	rem, _ := remotePair(t)
	for _, name := range []string{
		"../secrets",
		"cluster/../../etc/passwd",
		"/etc/passwd",
		"manifest.json",     // outside the coordination subtrees
		"ab/cafe.json",      // artifact shard: only Get/Put/Has may touch it
		"cluster/../wip/x",  // normalizes outside cluster/ — fine, but check
		"wip/../cluster/..", // normalizes to cluster, a directory escape
	} {
		err := rem.WriteFile(name, []byte("x"))
		if err == nil {
			// "cluster/../wip/x" cleans to "wip/x", which is legal.
			if clean, cerr := store.CleanName(name); cerr == nil &&
				(strings.HasPrefix(clean, "cluster/") || strings.HasPrefix(clean, "wip/")) {
				continue
			}
			t.Errorf("WriteFile(%q) succeeded, want rejection", name)
		}
	}
}

func TestCleanName(t *testing.T) {
	good := map[string]string{
		"cluster/pending/a.json": "cluster/pending/a.json",
		"cluster//x":             "cluster/x",
		"wip/./m.json":           "wip/m.json",
	}
	for in, want := range good {
		got, err := store.CleanName(in)
		if err != nil || got != want {
			t.Errorf("CleanName(%q) = %q, %v; want %q", in, got, err, want)
		}
	}
	for _, in := range []string{"", "/abs", "..", "../x", "a/../../x", `a\b`, "c:/x"} {
		if got, err := store.CleanName(in); err == nil {
			t.Errorf("CleanName(%q) = %q, want error", in, got)
		}
	}
}

func TestOpenRemoteURLValidation(t *testing.T) {
	if _, err := store.OpenRemote("not a url", ""); err == nil {
		t.Fatal("want error for garbage URL")
	}
	if _, err := store.OpenRemote("ftp://host/x", ""); err == nil {
		t.Fatal("want error for non-http scheme")
	}
	if _, err := store.OpenRemote("http://host:1234", ""); err != nil {
		t.Fatalf("bare host:port should be accepted: %v", err)
	}
}
