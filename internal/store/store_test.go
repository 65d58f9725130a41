package store_test

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/store"
)

// TestStoreGetPut exercises the envelope contract: hits require matching
// digest, kind, key, and checksum.
func TestStoreGetPut(t *testing.T) {
	s, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte(`{"x":1}`)
	if err := s.Put("0123456789abcdef", "profile", "k1", payload); err != nil {
		t.Fatal(err)
	}

	got, ok := s.Get("0123456789abcdef", "profile", "k1")
	if !ok || !bytes.Equal(got, payload) {
		t.Fatalf("round-trip failed: ok=%v payload=%s", ok, got)
	}
	if _, ok := s.Get("0123456789abcdef", "program", "k1"); ok {
		t.Error("kind mismatch must be a miss")
	}
	if _, ok := s.Get("0123456789abcdef", "profile", "other-key"); ok {
		t.Error("key mismatch (digest collision) must be a miss")
	}
	if _, ok := s.Get("fedcba9876543210", "profile", "k1"); ok {
		t.Error("absent digest must be a miss")
	}

	// Overwrite is allowed and atomic.
	payload2 := []byte(`{"x":2}`)
	if err := s.Put("0123456789abcdef", "profile", "k1", payload2); err != nil {
		t.Fatal(err)
	}
	got, ok = s.Get("0123456789abcdef", "profile", "k1")
	if !ok || !bytes.Equal(got, payload2) {
		t.Error("overwrite did not take effect")
	}

	if n, err := s.Len(); err != nil || n != 1 {
		t.Errorf("Len = %d, %v; want 1 entry", n, err)
	}
}

// TestStoreCorruptionIsMiss damages stored entries in several ways and
// requires every one to read as a miss, never an error or a wrong value.
func TestStoreCorruptionIsMiss(t *testing.T) {
	root := t.TempDir()
	s, err := store.Open(root)
	if err != nil {
		t.Fatal(err)
	}
	const digest = "00aa00aa00aa00aa"
	corruptions := map[string]func(path string) error{
		"truncated": func(p string) error {
			data, _ := os.ReadFile(p)
			return os.WriteFile(p, data[:len(data)/2], 0o644)
		},
		"garbage": func(p string) error {
			return os.WriteFile(p, []byte("not json at all"), 0o644)
		},
		"bit flip in payload": func(p string) error {
			data, _ := os.ReadFile(p)
			i := bytes.Index(data, []byte(`"x":1`))
			data[i+4] = '9'
			return os.WriteFile(p, data, 0o644)
		},
		"empty file": func(p string) error {
			return os.WriteFile(p, nil, 0o644)
		},
	}
	for name, corrupt := range corruptions {
		if err := s.Put(digest, "profile", "key", []byte(`{"x":1}`)); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(root, digest[:2], digest+".json")
		if err := corrupt(path); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if _, ok := s.Get(digest, "profile", "key"); ok {
			t.Errorf("%s: corrupted entry was served as a hit", name)
		}
	}
}

// TestStoreFingerprintGolden pins the checksum function across processes
// and platforms: these values must never change while the envelope checksum
// is FNV-1a,
// or every existing store silently invalidates.
func TestStoreFingerprintGolden(t *testing.T) {
	golden := map[string]string{
		"":            "cbf29ce484222325",
		"hello":       "a430d84680aabd0b",
		`{"ok":true}`: "1b4b9c59b3854dc5",
	}
	for in, want := range golden {
		if got := store.Fingerprint([]byte(in)); got != want {
			t.Errorf("Fingerprint(%q) = %s, want %s", in, got, want)
		}
	}
}

// TestStoreOpenRejectsEmpty covers the configuration error path.
func TestStoreOpenRejectsEmpty(t *testing.T) {
	if _, err := store.Open(""); err == nil {
		t.Error("Open(\"\") must fail")
	}
}

// FuzzStoreGet writes arbitrary bytes at an entry's path and asserts that
// Get never panics and returns either a miss or exactly the payload Put
// wrote there. The seeds are the envelope Put writes, damaged copies of
// it, intact envelopes of another kind and of the previous artifact
// version's key holding another payload, and an envelope in the earlier
// format that also carried a schema number.
func FuzzStoreGet(f *testing.F) {
	const digest, kind, key = "00aa00aa00aa00aa", "profile", "v6|3|crc32/small|amd64v|0|0|false||"
	payload := []byte(`{"x":1}`)
	path := func(root string) string { return filepath.Join(root, digest[:2], digest+".json") }
	// entry returns the file Put writes for one envelope.
	entry := func(kind, key string, payload []byte) []byte {
		root := f.TempDir()
		s, err := store.Open(root)
		if err != nil {
			f.Fatal(err)
		}
		if err := s.Put(digest, kind, key, payload); err != nil {
			f.Fatal(err)
		}
		data, err := os.ReadFile(path(root))
		if err != nil {
			f.Fatal(err)
		}
		return data
	}
	valid := entry(kind, key, payload)
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add([]byte{})
	f.Add([]byte(`{}`))
	f.Add([]byte(`null`))
	f.Add(bytes.Replace(valid, []byte(`"x":1`), []byte(`"x":2`), 1))
	f.Add(bytes.Replace(valid, []byte(`{"kind"`), []byte(`{"schema":6,"kind"`), 1))
	f.Add(entry("program", key, []byte(`{"x":2}`)))
	f.Add(entry(kind, "v5|3|crc32/small|amd64v|0|0|false||", []byte(`{"x":2}`)))
	f.Fuzz(func(t *testing.T, data []byte) {
		root := t.TempDir()
		s, err := store.Open(root)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(path(root)), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path(root), data, 0o644); err != nil {
			t.Fatal(err)
		}
		if got, ok := s.Get(digest, kind, key); ok && !bytes.Equal(got, payload) {
			t.Fatalf("Get served %q, but Put wrote %q", got, payload)
		}
	})
}
