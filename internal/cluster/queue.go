package cluster

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"path"
	"sort"
	"strings"
	"time"

	"repro/internal/store"
)

// Queue is the durable job queue persisted under one artifact store
// backend. A job is exactly one file in exactly one state directory:
//
//	<store root>/cluster/
//	    manifest.json            the dispatch being executed
//	    pending/<id>.json        enqueued, unowned
//	    leased/<id>@<worker>.json  owned; mtime is the last heartbeat
//	    done/<id>.json           finished (a Result envelope)
//
// Every state transition is a single atomic rename, so exactly one claimer
// wins a pending job and a reader never sees a partial entry. A Queue is
// safe for concurrent use by any number of processes sharing the backend —
// a common store directory, or a `synth serve` node's store reached over
// HTTP, in which case the serving node's filesystem provides the atomicity
// and no worker needs the coordinator's disk.
type Queue struct {
	be store.Backend
}

// queue directory and file names, relative to the store root.
const (
	queueDir     = "cluster"
	pendingDir   = queueDir + "/pending"
	leasedDir    = queueDir + "/leased"
	doneDir      = queueDir + "/done"
	manifestName = queueDir + "/manifest.json"
)

// OpenQueue returns the job queue living under be. State directories are
// created lazily by the first write, so opening a queue performs no I/O.
func OpenQueue(be store.Backend) (*Queue, error) {
	if be == nil {
		return nil, fmt.Errorf("cluster: open queue: nil backend")
	}
	return &Queue{be: be}, nil
}

// Store returns the backend the queue lives under — the same backend
// workers should hand to pipeline.Options.Store, so job coordination and
// artifact sharing travel together.
func (q *Queue) Store() store.Backend { return q.be }

// writeJSON marshals v and writes it atomically under name.
func (q *Queue) writeJSON(name string, v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return q.be.WriteFile(name, data)
}

// readJSON unmarshals the file under name into v.
func (q *Queue) readJSON(name string, v any) error {
	data, err := q.be.ReadFile(name)
	if err != nil {
		return err
	}
	return json.Unmarshal(data, v)
}

// WriteManifest installs m as the queue's dispatch document.
func (q *Queue) WriteManifest(m *Manifest) error {
	if err := q.writeJSON(manifestName, m); err != nil {
		return fmt.Errorf("cluster: write manifest: %w", err)
	}
	return nil
}

// Manifest returns the queue's dispatch document, or nil if nothing has
// been dispatched. A manifest written under a different schema version is
// an error, not a silent mismatch.
func (q *Queue) Manifest() (*Manifest, error) {
	var m Manifest
	err := q.readJSON(manifestName, &m)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("cluster: read manifest: %w", err)
	}
	if m.Version != SchemaVersion {
		return nil, fmt.Errorf("cluster: manifest schema %d, want %d (mixed binaries?)", m.Version, SchemaVersion)
	}
	return &m, nil
}

// Reset removes every queued job and result, preparing the queue for a
// dispatch with a different spec. The manifest itself is left for the
// caller to overwrite.
func (q *Queue) Reset() error {
	for _, dir := range []string{pendingDir, leasedDir, doneDir} {
		infos, err := q.be.List(dir)
		if err != nil {
			return fmt.Errorf("cluster: reset: %w", err)
		}
		for _, fi := range infos {
			if err := q.be.Remove(path.Join(dir, fi.Name)); err != nil && !errors.Is(err, fs.ErrNotExist) {
				return fmt.Errorf("cluster: reset: %w", err)
			}
		}
	}
	return nil
}

// pendingName maps a job ID to its pending-state file.
func (q *Queue) pendingName(id string) string {
	return pendingDir + "/" + id + ".json"
}

// doneName maps a job ID to its done-state file.
func (q *Queue) doneName(id string) string {
	return doneDir + "/" + id + ".json"
}

// leasedName maps a job ID and worker to the lease file encoding both.
func (q *Queue) leasedName(id, worker string) string {
	return leasedDir + "/" + id + "@" + sanitizeWorker(worker) + ".json"
}

// sanitizeWorker restricts a worker ID to filename-safe characters, since
// the ID is encoded in lease file names.
func sanitizeWorker(worker string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '.', r == '_', r == '-':
			return r
		}
		return '-'
	}, worker)
}

// isEntry reports whether a listed file is a live queue entry (a .json
// file that is not an in-flight atomic-write temporary).
func isEntry(name string) bool {
	return path.Ext(name) == ".json" && name[0] != '.'
}

// Enqueue adds j to the pending state unless the job already exists in any
// state. It reports whether the job was actually enqueued. Concurrent
// enqueues of the same job are harmless: both write identical content.
func (q *Queue) Enqueue(j Job) (bool, error) {
	id := j.ID()
	if q.HasResult(id) {
		return false, nil
	}
	if leases, err := q.leases(); err != nil {
		return false, err
	} else if _, leased := leases[id]; leased {
		return false, nil
	}
	if _, err := q.be.Stat(q.pendingName(id)); err == nil {
		return false, nil
	}
	if err := q.writeJSON(q.pendingName(id), j); err != nil {
		return false, fmt.Errorf("cluster: enqueue %s: %w", j.Workload, err)
	}
	return true, nil
}

// HasResult reports whether the job has reached the done state.
func (q *Queue) HasResult(id string) bool {
	_, err := q.be.Stat(q.doneName(id))
	return err == nil
}

// WriteResult records r in the done state, atomically replacing any
// earlier result for the same job (last writer wins; see Lease.Ack for why
// duplicates are benign).
func (q *Queue) WriteResult(r Result) error {
	if err := q.writeJSON(q.doneName(r.Job.ID()), r); err != nil {
		return fmt.Errorf("cluster: write result %s: %w", r.Job.Workload, err)
	}
	return nil
}

// Results returns every recorded result, sorted by workload name.
func (q *Queue) Results() ([]Result, error) {
	infos, err := q.be.List(doneDir)
	if err != nil {
		return nil, fmt.Errorf("cluster: results: %w", err)
	}
	var out []Result
	for _, fi := range infos {
		if !isEntry(fi.Name) {
			continue
		}
		var r Result
		if err := q.readJSON(path.Join(doneDir, fi.Name), &r); err != nil {
			continue // mid-rename or damaged: the next poll sees it
		}
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Job.Workload < out[j].Job.Workload })
	return out, nil
}

// Counts summarizes the queue's states for progress tracking.
type Counts struct {
	// Pending, Leased, and Done count jobs per state.
	Pending int `json:"pending"`
	Leased  int `json:"leased"`
	Done    int `json:"done"`
}

// Counts returns the queue's current state populations. The three reads
// are not one atomic snapshot — a job mid-transition can be counted in
// neither state — so callers polling for completion must check Done against
// the manifest total rather than Pending+Leased reaching zero.
func (q *Queue) Counts() (Counts, error) {
	var c Counts
	for _, d := range []struct {
		dir string
		n   *int
	}{{pendingDir, &c.Pending}, {leasedDir, &c.Leased}, {doneDir, &c.Done}} {
		infos, err := q.be.List(d.dir)
		if err != nil {
			return c, fmt.Errorf("cluster: counts: %w", err)
		}
		for _, fi := range infos {
			if isEntry(fi.Name) {
				*d.n++
			}
		}
	}
	return c, nil
}

// activeJobs counts the pending and leased jobs that have not reached the
// done state, removing stale pending copies of done jobs as it goes (the
// residue of an ack that raced a reclaim). Raw Counts would report such
// residue as live work; the dispatch conflict check needs the truth.
func (q *Queue) activeJobs() (active int, err error) {
	infos, err := q.be.List(pendingDir)
	if err != nil {
		return 0, fmt.Errorf("cluster: active jobs: %w", err)
	}
	for _, fi := range infos {
		if !isEntry(fi.Name) {
			continue
		}
		if id := strings.TrimSuffix(fi.Name, ".json"); q.HasResult(id) {
			q.be.Remove(q.pendingName(id))
			continue
		}
		active++
	}
	leases, err := q.leases()
	if err != nil {
		return 0, err
	}
	for id := range leases {
		if !q.HasResult(id) { // done-but-unremoved leases are Reclaim's job
			active++
		}
	}
	return active, nil
}

// Claim attempts to take ownership of one pending job for worker. It
// returns (nil, nil) when nothing is pending. Ownership is won by renaming
// the pending file into the leased state: exactly one concurrent claimer's
// rename succeeds, the rest observe not-exist and move to the next
// candidate. The job is read and the heartbeat clock started *before* the
// rename — rename preserves mtime — so the new lease is born fresh, never
// momentarily expired (a pending file's own mtime may be older than the
// TTL on a slow-draining queue), and a lost race costs nothing.
func (q *Queue) Claim(worker string) (*Lease, error) {
	infos, err := q.be.List(pendingDir)
	if err != nil {
		return nil, fmt.Errorf("cluster: claim: %w", err)
	}
	for _, fi := range infos {
		if !isEntry(fi.Name) {
			continue
		}
		id := strings.TrimSuffix(fi.Name, ".json")
		pendingName := q.pendingName(id)
		var j Job
		if err := q.readJSON(pendingName, &j); err != nil {
			continue // another worker claimed it between List and here
		}
		q.be.Touch(pendingName) // harmless if the rename is lost
		leasedName := q.leasedName(id, worker)
		if err := q.be.Rename(pendingName, leasedName); err != nil {
			continue // another worker won this job
		}
		return &Lease{q: q, Job: j, Worker: worker, name: leasedName}, nil
	}
	return nil, nil
}

// leaseInfo is one parsed lease-state file.
type leaseInfo struct {
	id     string
	worker string
	name   string
	mtime  time.Time
}

// leases parses the leased state directory.
func (q *Queue) leases() (map[string]leaseInfo, error) {
	infos, err := q.be.List(leasedDir)
	if err != nil {
		return nil, fmt.Errorf("cluster: leases: %w", err)
	}
	out := make(map[string]leaseInfo)
	for _, fi := range infos {
		if !isEntry(fi.Name) {
			continue
		}
		base := strings.TrimSuffix(fi.Name, ".json")
		id, worker, ok := strings.Cut(base, "@")
		if !ok {
			continue
		}
		out[id] = leaseInfo{id: id, worker: worker,
			name: path.Join(leasedDir, fi.Name), mtime: fi.ModTime}
	}
	return out, nil
}

// OldestLeaseAge returns how long ago the stalest held lease last
// heartbeat (zero when no leases are held). It is the telemetry signal for
// "a worker stopped heartbeating": a healthy pool keeps every lease age
// well under the TTL.
func (q *Queue) OldestLeaseAge() (time.Duration, error) {
	leases, err := q.leases()
	if err != nil {
		return 0, err
	}
	var oldest time.Time
	for _, l := range leases {
		if oldest.IsZero() || l.mtime.Before(oldest) {
			oldest = l.mtime
		}
	}
	if oldest.IsZero() {
		return 0, nil
	}
	return time.Since(oldest), nil
}

// Workers returns the worker IDs currently holding leases and how many
// jobs each holds.
func (q *Queue) Workers() (map[string]int, error) {
	leases, err := q.leases()
	if err != nil {
		return nil, err
	}
	out := make(map[string]int)
	for _, l := range leases {
		out[l.worker]++
	}
	return out, nil
}

// Reclaim returns expired leases — no heartbeat for longer than ttl — to
// the pending state and reports how many jobs it re-pended. A lease whose
// job already reached done (the worker crashed between acking and removing
// its lease) is simply cleaned up. Concurrent reclaimers race on renames,
// which is safe: one wins, the rest observe not-exist.
func (q *Queue) Reclaim(ttl time.Duration) (int, error) {
	leases, err := q.leases()
	if err != nil {
		return 0, err
	}
	cutoff := time.Now().Add(-ttl)
	reclaimed := 0
	for _, l := range leases {
		if !l.mtime.Before(cutoff) {
			continue
		}
		if q.HasResult(l.id) {
			q.be.Remove(l.name)
			continue
		}
		if err := q.be.Rename(l.name, q.pendingName(l.id)); err == nil {
			reclaimed++
		}
	}
	return reclaimed, nil
}

// Lease is a worker's ownership of one claimed job. The lease file's mtime
// is the heartbeat: the executing worker touches it (store.Heartbeat), and
// a lease idle longer than the reclaim TTL is returned to pending by
// whoever notices first.
type Lease struct {
	q *Queue
	// Job is the claimed job.
	Job Job
	// Worker is the owning worker's ID.
	Worker string
	name   string
}

// Ack records the job's result and releases the lease. If the lease was
// reclaimed while the worker was executing (a heartbeat gap), the result
// still lands in done — last writer wins, and both writers computed
// byte-identical artifacts through the shared store, so a duplicate ack is
// benign.
func (l *Lease) Ack(r Result) error {
	if err := l.q.WriteResult(r); err != nil {
		return err
	}
	if err := l.q.be.Remove(l.name); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return fmt.Errorf("cluster: ack %s: %w", l.Job.Workload, err)
	}
	return nil
}

// Release returns the claimed job to pending without a result, for a
// worker shutting down mid-job: the job is immediately re-claimable
// instead of waiting out the lease TTL.
func (l *Lease) Release() error {
	if err := l.q.be.Rename(l.name, l.q.pendingName(l.Job.ID())); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return fmt.Errorf("cluster: release %s: %w", l.Job.Workload, err)
	}
	return nil
}

// Drop removes the lease without recording a result, for a claimed job
// found to be already done (a stale pending duplicate left by a reclaim
// race).
func (l *Lease) Drop() error {
	if err := l.q.be.Remove(l.name); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return fmt.Errorf("cluster: drop %s: %w", l.Job.Workload, err)
	}
	return nil
}
