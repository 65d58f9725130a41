package pipeline

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/compiler"
	"repro/internal/store"
	"repro/internal/telemetry"
)

// Key identifies one artifact in the content-addressed cache. Two jobs that
// agree on every field share the artifact: a compile of crc32/small for
// amd64 -O2 is the same whether Fig. 6, Fig. 8, or Fig. 11 asked for it.
//
// Keys address both cache tiers. In memory the struct itself is the map
// key; on disk the artifact is filed under Digest with Canonical stored in
// the entry envelope and re-verified on read, so a 64-bit digest collision
// degrades to a miss instead of a silently wrong artifact.
type Key struct {
	Stage    Stage
	Workload string
	ISA      string
	Level    compiler.OptLevel
	Seed     int64 // clone-synthesis seed (clone artifacts only)
	Clone    bool  // artifact derives from the synthetic clone
	// Src fingerprints the workload's HLC source on keys whose artifacts
	// are persisted, so editing a workload self-invalidates its disk
	// entries instead of serving stale artifacts under the same name.
	// (Compiler or profiler changes are not fingerprinted: those bump
	// ArtifactVersion.)
	Src string
	// Sim scopes Simulate artifacts to one machine configuration and
	// simulation bound: the cpu.Config fingerprint plus the instruction
	// budget ("<fingerprint>:<maxInstrs>"). Empty on every other stage.
	Sim string
}

// Canonical returns the versioned, unambiguous encoding of the key that
// disk entries store and verify. Its first field is ArtifactVersion, so
// an entry written by another version reads as a miss: its stored key
// does not match.
func (k Key) Canonical() string {
	return fmt.Sprintf("v%d|%d|%s|%s|%d|%d|%t|%s|%s", ArtifactVersion,
		k.Stage, k.Workload, k.ISA, k.Level, k.Seed, k.Clone, k.Src, k.Sim)
}

// Digest returns the printable content address: the store fingerprint of
// Canonical, used as the disk filename and in logs and diagnostics.
func (k Key) Digest() string {
	return store.Fingerprint([]byte(k.Canonical()))
}

// StoreKind returns the store artifact kind the key's stage persists, or
// "" for memory-only stages (Parse, Check). Callers probing a store for an
// artifact's presence — the cluster coordinator deduplicating jobs against
// already-stored work — pass it alongside Digest and Canonical so a digest
// collision between artifact types reads as absent.
func (k Key) StoreKind() string {
	if cd := codecFor(k.Stage); cd != nil {
		return cd.kind
	}
	return ""
}

// CacheStats reports artifact-cache effectiveness across both tiers.
type CacheStats struct {
	Hits     uint64 // requests satisfied by (or coalesced onto) an in-memory entry
	Misses   uint64 // requests that computed the artifact
	DiskHits uint64 // memory misses satisfied by the persistent store
	// DiskErrors counts store entries that failed to decode and store
	// writes that failed; both degrade to recomputation, never failure.
	DiskErrors uint64
	// Computed counts artifact computations per stage, so a warm-store run
	// can assert that no Compile or Profile work was redone.
	Computed [NumStages]uint64
}

// ComputedFor returns the number of artifacts computed for one stage.
func (s CacheStats) ComputedFor(st Stage) uint64 {
	if int(st) < len(s.Computed) {
		return s.Computed[st]
	}
	return 0
}

// Add returns the counter-wise sum s+t. The cluster consolidator uses it to
// merge per-shard statistics into one cluster-wide report.
func (s CacheStats) Add(t CacheStats) CacheStats {
	s.Hits += t.Hits
	s.Misses += t.Misses
	s.DiskHits += t.DiskHits
	s.DiskErrors += t.DiskErrors
	for i := range s.Computed {
		s.Computed[i] += t.Computed[i]
	}
	return s
}

// Sub returns the counter-wise difference s−t. Counters only grow, so a
// worker that snapshots stats before and after a job gets that job's exact
// delta with later.Sub(earlier).
func (s CacheStats) Sub(t CacheStats) CacheStats {
	s.Hits -= t.Hits
	s.Misses -= t.Misses
	s.DiskHits -= t.DiskHits
	s.DiskErrors -= t.DiskErrors
	for i := range s.Computed {
		s.Computed[i] -= t.Computed[i]
	}
	return s
}

// entry is one in-flight or completed artifact. Waiters block on ready, so
// concurrent requests for the same key coalesce onto a single computation.
type entry struct {
	ready chan struct{}
	val   any
	err   error
}

// cacheCounters is the one store of a cache's CacheStats counts; the
// metrics registry reads it at scrape time (see newCacheTelemetry).
type cacheCounters struct {
	hits       atomic.Uint64
	misses     atomic.Uint64
	diskHits   atomic.Uint64
	diskErrors atomic.Uint64
	computed   [NumStages]atomic.Uint64
}

func (n *cacheCounters) stats() CacheStats {
	s := CacheStats{
		Hits:       n.hits.Load(),
		Misses:     n.misses.Load(),
		DiskHits:   n.diskHits.Load(),
		DiskErrors: n.diskErrors.Load(),
	}
	for i := range n.computed {
		s.Computed[i] = n.computed[i].Load()
	}
	return s
}

// artifactCache is the content-addressed store behind a Pipeline: an
// in-memory map with single-flight coalescing, optionally backed by a
// persistent disk tier shared across processes. The map is keyed by the
// full Key struct — Digest is the printable content address, but using it
// as the map key would turn a 64-bit hash collision into a silently wrong
// artifact.
type artifactCache struct {
	mu   sync.Mutex
	m    map[Key]*entry
	disk store.Backend  // nil = memory-only
	n    *cacheCounters // its own allocation: scrape funcs hold it, not the cache
	tm   *cacheTelemetry
}

func newArtifactCache(disk store.Backend, reg *telemetry.Registry, tracer *telemetry.Tracer) *artifactCache {
	n := &cacheCounters{}
	return &artifactCache{m: make(map[Key]*entry), disk: disk, n: n, tm: newCacheTelemetry(reg, tracer, n)}
}

// fromDisk tries to satisfy k from the persistent tier. A damaged or
// mismatched entry is a miss; damaged reports an entry that was found but
// failed to decode, which the caller counts as a disk error once per
// lookup.
func (c *artifactCache) fromDisk(k Key) (v any, ok, damaged bool) {
	cd := codecFor(k.Stage)
	if c.disk == nil || cd == nil {
		return nil, false, false
	}
	// Backend.Get verifies the envelope checksum and canonical key; any
	// transport- or corruption-level damage reads as a miss here and the
	// decode below catches payloads that are valid JSON but wrong shape.
	payload, ok := c.disk.Get(k.Digest(), cd.kind, k.Canonical())
	if !ok {
		return nil, false, false
	}
	v, err := cd.decode(payload)
	if err != nil {
		return nil, false, true
	}
	return v, true, false
}

// toDisk writes a freshly computed artifact through to the persistent
// tier. Failures are counted, not propagated: the store is a cache.
func (c *artifactCache) toDisk(k Key, v any) {
	cd := codecFor(k.Stage)
	if c.disk == nil || cd == nil {
		return
	}
	payload, err := cd.encode(v)
	if err == nil {
		err = c.disk.Put(k.Digest(), cd.kind, k.Canonical(), payload)
	}
	if err != nil {
		c.n.diskErrors.Add(1)
	}
}

// do returns the artifact for k, computing it with fn at most once across
// all concurrent callers. Lookup order is memory, then disk (when k's
// stage has a codec and a store is configured), then fn with a
// write-through to disk. Failed computations are not cached, and waiters
// that coalesced onto a computation whose owner got canceled retry under
// their own context instead of inheriting the cancellation — the pipeline
// is shared, and one run's cancel must not fail an unrelated run's jobs.
//
// fn receives the context to run under: when tracing is enabled this is
// the computation's span context, so nested stage calls made inside fn
// parent their spans under this artifact's span.
func (c *artifactCache) do(ctx context.Context, k Key, fn func(context.Context) (any, error)) (any, error) {
	for {
		c.mu.Lock()
		if e, ok := c.m[k]; ok {
			c.mu.Unlock()
			c.n.hits.Add(1)
			select {
			case <-e.ready:
				if e.err != nil && (errors.Is(e.err, context.Canceled) || errors.Is(e.err, context.DeadlineExceeded)) {
					if err := ctx.Err(); err != nil {
						return nil, err
					}
					continue // owner canceled, we were not: retry
				}
				return e.val, e.err
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		e := &entry{ready: make(chan struct{})}
		c.m[k] = e
		c.mu.Unlock()

		// read is fromDisk for this lookup: however often it re-reads a
		// damaged entry, the entry counts as one disk error.
		counted := false
		read := func() (any, bool) {
			v, ok, damaged := c.fromDisk(k)
			if damaged && !counted {
				counted = true
				c.n.diskErrors.Add(1)
			}
			return v, ok
		}
		if v, ok := read(); ok {
			c.n.diskHits.Add(1)
			e.val = v
			close(e.ready)
			return v, nil
		}

		if c.disk != nil && codecFor(k.Stage) != nil {
			// Persisted stage over a shared store: gate the computation on a
			// cross-process in-progress marker so concurrent processes never
			// duplicate it. computeGated writes the artifact through itself.
			e.val, e.err = c.computeGated(ctx, k, read, fn)
		} else {
			e.val, e.err = c.compute(ctx, k, fn)
		}
		if e.err != nil {
			c.mu.Lock()
			delete(c.m, k)
			c.mu.Unlock()
		}
		close(e.ready)
		return e.val, e.err
	}
}

// compute runs fn, counting it as an actual artifact computation, timing
// it into the stage duration histogram, and wrapping it in a span named
// after the stage so nested stage calls trace as children.
func (c *artifactCache) compute(ctx context.Context, k Key, fn func(context.Context) (any, error)) (any, error) {
	c.n.misses.Add(1)
	inRange := int(k.Stage) < NumStages
	if inRange {
		c.n.computed[k.Stage].Add(1)
	}
	ctx, span := c.tm.tracer.Start(ctx, k.Stage.String())
	span.SetAttr("workload", k.Workload)
	if k.ISA != "" {
		span.SetAttr("isa", k.ISA)
	}
	if k.Clone {
		span.SetAttr("clone", "true")
	}
	start := time.Now()
	v, err := fn(ctx)
	if inRange {
		c.tm.seconds[k.Stage].ObserveSince(start)
	}
	if err != nil {
		span.SetAttr("error", err.Error())
	}
	span.End()
	return v, err
}

// The in-progress marker timings. A process that vanishes mid-computation
// (crash, SIGKILL) leaves its marker behind; waiters steal it once the
// heartbeat goes stale, so wipTTL bounds how long a crash can stall other
// processes. Variables rather than constants so tests can compress time.
var (
	wipTTL  = 30 * time.Second
	wipPoll = 25 * time.Millisecond
)

// wipName is the in-progress marker path for one artifact.
func wipName(k Key) string {
	return store.WIPDir + "/" + k.Digest() + ".json"
}

// computeGated computes a persisted artifact under a store-level
// in-progress marker, so processes sharing a store — including ones on
// different machines sharing it over HTTP — single-flight the computation
// exactly like goroutines sharing the in-memory map do. The winner of the
// exclusive marker creation computes, writes the artifact through, then
// removes the marker; losers poll for the artifact and adopt it as a disk
// hit. A stale marker (no heartbeat for wipTTL) is stolen, and any marker
// operation failing for other reasons degrades to an uncoordinated compute:
// the gate is a dedup optimization, never a correctness gate. read is
// the lookup's disk read (see do).
func (c *artifactCache) computeGated(ctx context.Context, k Key, read func() (any, bool), fn func(context.Context) (any, error)) (any, error) {
	marker := wipName(k)
	for {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		err := c.disk.CreateExclusive(marker, []byte(k.Canonical()))
		if err == nil {
			// Another process may have finished the artifact and released
			// its marker since our last read: between do's first miss and
			// this claim, or between our last poll and now.
			if v, ok := read(); ok {
				c.disk.Remove(marker)
				c.n.diskHits.Add(1)
				c.tm.wipAdopted.Inc()
				return v, nil
			}
			return c.computeOwned(ctx, k, marker, fn)
		}
		if !errors.Is(err, fs.ErrExist) {
			// Store flake on the marker path: fall back to computing without
			// coordination rather than blocking the pipeline.
			c.n.diskErrors.Add(1)
			v, ferr := c.compute(ctx, k, fn)
			if ferr == nil {
				c.toDisk(k, v)
			}
			return v, ferr
		}
		// Another process holds the claim: wait for its artifact.
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(wipPoll):
		}
		if v, ok := read(); ok {
			c.n.diskHits.Add(1)
			c.tm.wipAdopted.Inc()
			return v, nil
		}
		if fi, serr := c.disk.Stat(marker); serr == nil {
			if time.Since(fi.ModTime) > wipTTL {
				// The owner stopped heartbeating: steal the stale marker and
				// loop back to claim it ourselves.
				c.disk.Remove(marker)
			}
		}
		// Marker gone without an artifact (owner failed): loop reclaims it.
	}
}

// computeOwned runs fn while holding the in-progress marker, heartbeating
// it so waiters can tell a live computation from a dead process. The
// artifact is written through before the marker is released, so a waiter
// that observes the marker disappear without an artifact knows the owner
// failed.
func (c *artifactCache) computeOwned(ctx context.Context, k Key, marker string, fn func(context.Context) (any, error)) (any, error) {
	stop := store.Heartbeat(c.disk, marker, wipTTL/3)
	v, err := c.compute(ctx, k, fn)
	if err == nil {
		c.toDisk(k, v)
	}
	stop()
	c.disk.Remove(marker)
	return v, err
}
