// Package store persists pipeline artifacts on disk as versioned JSON so
// that separate processes — repeated cmd/synth invocations, CI runs, or a
// long-lived `synth serve` — share one content-addressed artifact store
// instead of recompiling and re-profiling the workload × ISA × level cross
// product from scratch.
//
// Every entry is a self-describing envelope: an artifact kind, the full
// canonical key the artifact was stored under, a checksum of the payload,
// and the payload itself. Readers validate all three before trusting the
// payload; any mismatch — truncated file, digest collision, bit rot — is
// reported as a miss, never as an error, so a damaged store degrades to
// recomputation rather than failure. The store keeps bytes: artifact
// formats and their version belong to the caller, whose canonical keys
// carry that version, so an entry of another version is never a hit.
package store

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
)

// Store is a content-addressed artifact store rooted at one directory.
// Entries are named by digest and sharded into two-hex-character
// subdirectories. Writes are atomic (temp file + rename), so concurrent
// processes sharing a root never observe partial entries. A Store is safe
// for concurrent use.
type Store struct {
	root string
}

// Open creates (if needed) and returns the store rooted at dir.
func Open(dir string) (*Store, error) {
	if dir == "" {
		return nil, errors.New("store: empty root directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: open %s: %w", dir, err)
	}
	return &Store{root: dir}, nil
}

// path maps a digest to its sharded file path.
func (s *Store) path(digest string) string {
	shard := "00"
	if len(digest) >= 2 {
		shard = digest[:2]
	}
	return filepath.Join(s.root, shard, digest+".json")
}

// envelope is the on-disk entry format.
type envelope struct {
	Kind     string          `json:"kind"`
	Key      string          `json:"key"`
	Checksum string          `json:"checksum"`
	Payload  json.RawMessage `json:"payload"`
}

// Fingerprint returns the printable 64-bit FNV-1a hash of data. It is the
// checksum used inside envelopes, the digest of pipeline keys and cluster
// queue entries, and the content address used for artifacts that have no
// pipeline key of their own (externally loaded profiles).
func Fingerprint(data []byte) string {
	h := fnv.New64a()
	h.Write(data)
	return fmt.Sprintf("%016x", h.Sum64())
}

// Get returns the payload stored under digest, or ok=false if the entry is
// absent, unreadable, of the wrong kind, keyed by a different canonical
// key (a digest collision), or fails its checksum. Corruption is a miss by
// design: the store is a cache, and the caller recomputes.
func (s *Store) Get(digest, kind, key string) (payload []byte, ok bool) {
	data, err := os.ReadFile(s.path(digest))
	if err != nil {
		return nil, false
	}
	var env envelope
	if err := json.Unmarshal(data, &env); err != nil {
		return nil, false
	}
	if env.Kind != kind || env.Key != key {
		return nil, false
	}
	if Fingerprint(env.Payload) != env.Checksum {
		return nil, false
	}
	return env.Payload, true
}

// Has reports whether a valid entry exists for (digest, kind, key) — the
// same validation Get performs, discarding the payload, so a corrupt or
// stale entry counts as absent.
func (s *Store) Has(digest, kind, key string) bool {
	_, ok := s.Get(digest, kind, key)
	return ok
}

// Put writes payload under digest, atomically replacing any existing entry.
// kind and key are stored in the envelope and re-verified by Get.
func (s *Store) Put(digest, kind, key string, payload []byte) error {
	path := s.path(digest)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("store: put %s: %w", digest, err)
	}
	data, err := json.Marshal(envelope{
		Kind:     kind,
		Key:      key,
		Checksum: Fingerprint(payload),
		Payload:  payload,
	})
	if err != nil {
		return fmt.Errorf("store: put %s: %w", digest, err)
	}
	if err := WriteFileAtomic(path, data); err != nil {
		return fmt.Errorf("store: put %s: %w", digest, err)
	}
	return nil
}

// WriteFileAtomic writes data to path via a dot-prefixed temp file in the
// same directory followed by a rename, so concurrent readers never observe
// a partial file. It is the store's one write convention, shared with the
// cluster queue's coordination files (and honored by Prune, which skips
// the dot-prefixed in-flight temps).
func WriteFileAtomic(path string, data []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), "."+filepath.Base(path)+".tmp-")
	if err != nil {
		return err
	}
	_, werr := tmp.Write(data)
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("write %v, close %v", werr, cerr)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return nil
}

// Len walks the store and counts entries, for diagnostics and tests.
func (s *Store) Len() (int, error) {
	n := 0
	err := filepath.WalkDir(s.root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() && filepath.Ext(path) == ".json" {
			n++
		}
		return nil
	})
	return n, err
}
