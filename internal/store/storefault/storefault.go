// Package storefault is test support: a store.Backend decorator that
// injects scripted failures, for the cluster's chaos tests. No non-test
// code imports it.
package storefault

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"repro/internal/store"
)

// Fault is a store.Backend decorator that injects scripted failures for
// the chaos test suites: transient errors, added latency, and payload
// corruption, scheduled per operation and per name.
//
// Rules are matched in order against each operation; the first rule whose
// Op and Match accept the call decides its fate. A rule with Count > 0
// fires only that many times, so "fail the first two acks, then recover"
// is one rule. All methods are safe for concurrent use if the wrapped
// Backend is.
type Fault struct {
	inner store.Backend

	mu    sync.Mutex
	rules []*Rule
	fired map[string]int
}

var _ store.Backend = (*Fault)(nil)

// Rule schedules one kind of injected fault. Zero-valued fields mean
// "no constraint": an empty Op matches every operation, an empty Match
// every name, Count == 0 fires forever.
type Rule struct {
	// Op restricts the rule to one Backend method, named lower-case:
	// "get", "put", "has", "readfile", "writefile", "createexclusive",
	// "stat", "list", "rename", "remove", "touch". Empty matches all.
	Op string
	// Match, when non-empty, must be a substring of the operation's name
	// argument (the coordination-file name, or "digest/kind" for artifact
	// ops) for the rule to apply.
	Match string
	// Skip lets the first N matching calls through before the rule starts
	// firing (e.g. "the third ack write fails").
	Skip int
	// Count bounds how many times the rule fires; 0 means unlimited.
	Count int
	// Err, when non-nil, is returned from the operation (Get and Has
	// degrade to a miss instead, matching the Backend contract).
	Err error
	// Corrupt, when true, flips bytes in returned payloads (Get, ReadFile)
	// so checksum verification must catch the damage.
	Corrupt bool
	// Delay is added latency before the operation proceeds.
	Delay time.Duration

	seen int // calls that matched, including skipped ones
}

// New wraps inner with an initially empty fault script.
func New(inner store.Backend) *Fault {
	return &Fault{inner: inner, fired: map[string]int{}}
}

// Inner returns the wrapped backend, so tests that need to reach past the
// fault layer (e.g. to manipulate filesystem state directly) can unwrap it.
func (f *Fault) Inner() store.Backend { return f.inner }

// Script appends rules to the fault schedule.
func (f *Fault) Script(rules ...Rule) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for i := range rules {
		r := rules[i]
		f.rules = append(f.rules, &r)
	}
}

// Fired reports how many times faults were injected for op (an empty op
// totals every operation), so tests can assert the script actually ran.
func (f *Fault) Fired(op string) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	if op == "" {
		n := 0
		for _, c := range f.fired {
			n += c
		}
		return n
	}
	return f.fired[op]
}

// check consults the script for one call and returns the rule to apply,
// if any. It mutates rule bookkeeping under the lock; the injected delay
// and error are applied by the caller outside it.
func (f *Fault) check(op, name string) *Rule {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, r := range f.rules {
		if r.Op != "" && r.Op != op {
			continue
		}
		if r.Match != "" && !strings.Contains(name, r.Match) {
			continue
		}
		r.seen++
		if r.seen <= r.Skip {
			return nil
		}
		if r.Count > 0 && r.seen > r.Skip+r.Count {
			continue
		}
		f.fired[op]++
		// Copy so the caller reads the verdict without holding the lock.
		v := *r
		return &v
	}
	return nil
}

// corrupt returns a damaged copy of payload: every 16th byte is flipped,
// which breaks both JSON framing and the envelope checksum.
func corrupt(payload []byte) []byte {
	bad := make([]byte, len(payload))
	copy(bad, payload)
	for i := 0; i < len(bad); i += 16 {
		bad[i] ^= 0xff
	}
	return bad
}

// Get implements store.Backend; injected errors surface as misses.
func (f *Fault) Get(digest, kind, key string) ([]byte, bool) {
	r := f.check("get", digest+"/"+kind)
	if r != nil && r.Delay > 0 {
		time.Sleep(r.Delay)
	}
	if r != nil && r.Err != nil {
		return nil, false
	}
	payload, ok := f.inner.Get(digest, kind, key)
	if ok && r != nil && r.Corrupt {
		return corrupt(payload), true
	}
	return payload, ok
}

// Put implements store.Backend.
func (f *Fault) Put(digest, kind, key string, payload []byte) error {
	if err := f.apply("put", digest+"/"+kind); err != nil {
		return err
	}
	return f.inner.Put(digest, kind, key, payload)
}

// Has implements store.Backend; injected errors read as absent.
func (f *Fault) Has(digest, kind, key string) bool {
	r := f.check("has", digest+"/"+kind)
	if r != nil && r.Delay > 0 {
		time.Sleep(r.Delay)
	}
	if r != nil && r.Err != nil {
		return false
	}
	return f.inner.Has(digest, kind, key)
}

// apply runs the script for one erroring operation.
func (f *Fault) apply(op, name string) error {
	r := f.check(op, name)
	if r == nil {
		return nil
	}
	if r.Delay > 0 {
		time.Sleep(r.Delay)
	}
	if r.Err != nil {
		return fmt.Errorf("store: injected %s %s: %w", op, name, r.Err)
	}
	return nil
}

// ReadFile implements store.Backend.
func (f *Fault) ReadFile(name string) ([]byte, error) {
	r := f.check("readfile", name)
	if r != nil && r.Delay > 0 {
		time.Sleep(r.Delay)
	}
	if r != nil && r.Err != nil {
		return nil, fmt.Errorf("store: injected readfile %s: %w", name, r.Err)
	}
	data, err := f.inner.ReadFile(name)
	if err == nil && r != nil && r.Corrupt {
		return corrupt(data), nil
	}
	return data, err
}

// WriteFile implements store.Backend.
func (f *Fault) WriteFile(name string, data []byte) error {
	if err := f.apply("writefile", name); err != nil {
		return err
	}
	return f.inner.WriteFile(name, data)
}

// CreateExclusive implements store.Backend.
func (f *Fault) CreateExclusive(name string, data []byte) error {
	if err := f.apply("createexclusive", name); err != nil {
		return err
	}
	return f.inner.CreateExclusive(name, data)
}

// Stat implements store.Backend.
func (f *Fault) Stat(name string) (store.FileInfo, error) {
	if err := f.apply("stat", name); err != nil {
		return store.FileInfo{}, err
	}
	return f.inner.Stat(name)
}

// List implements store.Backend.
func (f *Fault) List(dir string) ([]store.FileInfo, error) {
	if err := f.apply("list", dir); err != nil {
		return nil, err
	}
	return f.inner.List(dir)
}

// Rename implements store.Backend.
func (f *Fault) Rename(oldname, newname string) error {
	if err := f.apply("rename", oldname); err != nil {
		return err
	}
	return f.inner.Rename(oldname, newname)
}

// Remove implements store.Backend.
func (f *Fault) Remove(name string) error {
	if err := f.apply("remove", name); err != nil {
		return err
	}
	return f.inner.Remove(name)
}

// Touch implements store.Backend.
func (f *Fault) Touch(name string) error {
	if err := f.apply("touch", name); err != nil {
		return err
	}
	return f.inner.Touch(name)
}
