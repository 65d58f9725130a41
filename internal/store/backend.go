package store

import (
	"fmt"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"strings"
	"time"
)

// Backend is the storage abstraction the pipeline's disk tier and the
// cluster's coordination state run on. It has two facets: the
// content-addressed artifact operations (Get/Put/Has, the store's original
// surface) and a small coordination-file vocabulary — named files with
// atomic writes, exclusive creation, renames, and mtime heartbeats — that
// the cluster job queue and the pipeline's in-progress markers are built
// from. The filesystem Store implements it natively; Remote forwards every
// operation to a `synth serve` node over HTTP, so a worker process needs no
// shared disk at all.
//
// Coordination-file names are slash-separated paths relative to the store
// root (e.g. "cluster/pending/abc.json"). Implementations must reject
// absolute or dot-dot names, report missing files with errors satisfying
// errors.Is(err, fs.ErrNotExist), and report CreateExclusive collisions
// with fs.ErrExist, so callers can distinguish lost races from real
// failures without knowing which backend they run on.
type Backend interface {
	// Get returns the payload stored under digest, or ok=false when the
	// entry is absent, damaged, or unreachable — corruption and transport
	// failure both degrade to recomputation, never to an error.
	Get(digest, kind, key string) (payload []byte, ok bool)
	// Put writes payload under digest, atomically replacing any existing
	// entry.
	Put(digest, kind, key string, payload []byte) error
	// Has reports whether a valid entry exists for (digest, kind, key):
	// Get with the payload dropped. Code in this module probes with Get;
	// Has stays because the benchmark ledger's store decorator
	// (bench/ledger) forwards it.
	Has(digest, kind, key string) bool

	// ReadFile returns the named coordination file's contents.
	ReadFile(name string) ([]byte, error)
	// WriteFile atomically writes the named coordination file, creating
	// parent directories as needed.
	WriteFile(name string, data []byte) error
	// CreateExclusive creates the named file with data, failing with
	// fs.ErrExist if it already exists. It is the one-winner claim
	// primitive behind the pipeline's in-progress markers.
	CreateExclusive(name string, data []byte) error
	// Stat returns the named file's metadata.
	Stat(name string) (FileInfo, error)
	// List returns the files directly under dir (subdirectories excluded).
	// A missing directory lists as empty, not as an error.
	List(dir string) ([]FileInfo, error)
	// Rename atomically moves oldname to newname. Exactly one of several
	// concurrent renamers of the same oldname succeeds; the rest observe
	// fs.ErrNotExist.
	Rename(oldname, newname string) error
	// Remove deletes the named file (fs.ErrNotExist when already gone).
	Remove(name string) error
	// Touch refreshes the named file's mtime — the heartbeat primitive for
	// leases and in-progress markers.
	Touch(name string) error
}

// FileInfo describes one coordination file in a Backend listing: its base
// name and last-write (or Touch) time.
type FileInfo struct {
	// Name is the file's base name within the listed directory.
	Name string `json:"name"`
	// ModTime is the last write or Touch.
	ModTime time.Time `json:"mtime"`
}

// CleanName validates and normalizes a coordination-file name: it must be
// a relative, slash-separated path that stays inside the store root (no
// leading "/", no "..", no drive letters). Both backends run every
// coordination operation through it, so a hostile or buggy name can never
// escape the store directory on either end of the HTTP transport.
func CleanName(name string) (string, error) {
	if name == "" {
		return "", fmt.Errorf("store: empty file name")
	}
	if strings.Contains(name, "\\") || strings.Contains(name, ":") {
		return "", fmt.Errorf("store: invalid file name %q", name)
	}
	clean := path.Clean(name)
	if path.IsAbs(clean) || clean == "." || clean == ".." || strings.HasPrefix(clean, "../") {
		return "", fmt.Errorf("store: file name %q escapes the store root", name)
	}
	return clean, nil
}

// filePath maps a coordination-file name to its filesystem path.
func (s *Store) filePath(name string) (string, error) {
	clean, err := CleanName(name)
	if err != nil {
		return "", err
	}
	return filepath.Join(s.root, filepath.FromSlash(clean)), nil
}

// ReadFile returns the named coordination file's contents.
func (s *Store) ReadFile(name string) ([]byte, error) {
	p, err := s.filePath(name)
	if err != nil {
		return nil, err
	}
	return os.ReadFile(p)
}

// WriteFile atomically writes the named coordination file via the store's
// temp+rename convention, creating parent directories as needed.
func (s *Store) WriteFile(name string, data []byte) error {
	p, err := s.filePath(name)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
		return fmt.Errorf("store: write %s: %w", name, err)
	}
	return WriteFileAtomic(p, data)
}

// CreateExclusive creates the named file with data, failing with an error
// satisfying errors.Is(err, fs.ErrExist) if it already exists. Creation
// (O_CREATE|O_EXCL) is the atomic step; exactly one concurrent creator
// wins.
func (s *Store) CreateExclusive(name string, data []byte) error {
	p, err := s.filePath(name)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
		return fmt.Errorf("store: create %s: %w", name, err)
	}
	f, err := os.OpenFile(p, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return err
	}
	_, werr := f.Write(data)
	cerr := f.Close()
	if werr != nil || cerr != nil {
		os.Remove(p)
		return fmt.Errorf("store: create %s: write %v, close %v", name, werr, cerr)
	}
	return nil
}

// Stat returns the named coordination file's metadata.
func (s *Store) Stat(name string) (FileInfo, error) {
	p, err := s.filePath(name)
	if err != nil {
		return FileInfo{}, err
	}
	info, err := os.Stat(p)
	if err != nil {
		return FileInfo{}, err
	}
	return FileInfo{Name: path.Base(name), ModTime: info.ModTime()}, nil
}

// List returns the files directly under dir, skipping subdirectories. A
// directory that does not exist yet lists as empty: the cluster queue's
// state directories are created lazily by the first write.
func (s *Store) List(dir string) ([]FileInfo, error) {
	p, err := s.filePath(dir)
	if err != nil {
		return nil, err
	}
	entries, err := os.ReadDir(p)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, fmt.Errorf("store: list %s: %w", dir, err)
	}
	out := make([]FileInfo, 0, len(entries))
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		info, err := e.Info()
		if err != nil {
			continue // vanished under a concurrent rename
		}
		out = append(out, FileInfo{Name: e.Name(), ModTime: info.ModTime()})
	}
	return out, nil
}

// Rename atomically moves oldname to newname within the store. A missing
// oldname — another renamer won — surfaces as fs.ErrNotExist.
func (s *Store) Rename(oldname, newname string) error {
	from, err := s.filePath(oldname)
	if err != nil {
		return err
	}
	to, err := s.filePath(newname)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(to), 0o755); err != nil {
		return fmt.Errorf("store: rename %s: %w", oldname, err)
	}
	return os.Rename(from, to)
}

// Remove deletes the named coordination file.
func (s *Store) Remove(name string) error {
	p, err := s.filePath(name)
	if err != nil {
		return err
	}
	return os.Remove(p)
}

// Touch refreshes the named file's mtime to now.
func (s *Store) Touch(name string) error {
	p, err := s.filePath(name)
	if err != nil {
		return err
	}
	now := time.Now()
	return os.Chtimes(p, now, now)
}

// Heartbeat touches the named file on b every interval, from one
// goroutine, until the returned stop function is called. stop waits for
// the goroutine to exit, so no Touch lands after it returns. It is the one
// heartbeat behind cluster leases and the pipeline's in-progress markers.
// Touch errors are ignored: a missed beat at worst lets another
// participant take the work over, and the store makes that redo benign.
func Heartbeat(b Backend, name string, interval time.Duration) (stop func()) {
	quit := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-quit:
				return
			case <-t.C:
				b.Touch(name)
			}
		}
	}()
	return func() {
		close(quit)
		<-done
	}
}

// Every backend — local disk, HTTP client — satisfies the same interface,
// so any layer of the system can be pointed at any of them.
var (
	_ Backend = (*Store)(nil)
	_ Backend = (*Remote)(nil)
)

// notExist wraps fs.ErrNotExist with context, for backends that must
// synthesize the sentinel (the HTTP client mapping 404s).
func notExist(name string) error {
	return fmt.Errorf("store: %s: %w", name, fs.ErrNotExist)
}

// exist wraps fs.ErrExist with context (the HTTP client mapping 409s).
func exist(name string) error {
	return fmt.Errorf("store: %s: %w", name, fs.ErrExist)
}
