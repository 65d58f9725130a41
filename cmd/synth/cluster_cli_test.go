package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/pipeline"
	"repro/internal/store"
)

// runWorker runs `synth work` in-process and reports its exit code and
// stderr, standing in for a separate worker process (run() shares no state
// between invocations beyond the store directory, exactly like processes).
func runWorker(t *testing.T, dir, id string) (int, string) {
	t.Helper()
	var out, errb bytes.Buffer
	code := run(context.Background(), []string{"work", "-store", dir, "-id", id, "-lease-ttl", "5s", "-poll", "20ms"}, &out, &errb)
	return code, errb.String()
}

// storeEntries maps every artifact entry under a store root (the cluster
// queue excluded) to its bytes, for byte-identity comparison.
func storeEntries(t *testing.T, dir string) map[string]string {
	t.Helper()
	entries := map[string]string{}
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if d.Name() == "cluster" {
				return filepath.SkipDir
			}
			return nil
		}
		rel, err := filepath.Rel(dir, path)
		if err != nil {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		entries[rel] = string(data)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return entries
}

// sumComputed totals the per-stage Computed counters over a queue's
// recorded results.
func sumComputed(t *testing.T, dir string) pipeline.CacheStats {
	t.Helper()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	q, err := cluster.OpenQueue(st)
	if err != nil {
		t.Fatal(err)
	}
	results, err := q.Results()
	if err != nil {
		t.Fatal(err)
	}
	var sum pipeline.CacheStats
	for _, r := range results {
		if r.Err != "" {
			t.Fatalf("job %s failed: %s", r.Job.Workload, r.Err)
		}
		sum = sum.Add(r.Stats)
	}
	return sum
}

// assertNoDuplicatedWork checks the fabric acceptance property against the
// solo reference: summed per-stage Computed equals the single-process cold
// run's (zero duplicated computation) and the stores hold byte-identical
// artifacts.
func assertNoDuplicatedWork(t *testing.T, topology, dir string, soloSum pipeline.CacheStats, soloEntries map[string]string) {
	t.Helper()
	sum := sumComputed(t, dir)
	for st := pipeline.Stage(0); int(st) < pipeline.NumStages; st++ {
		if got, want := sum.ComputedFor(st), soloSum.ComputedFor(st); got != want {
			t.Errorf("stage %v: %s computed %d artifacts, solo computed %d", st, topology, got, want)
		}
	}
	entries := storeEntries(t, dir)
	if len(soloEntries) == 0 || len(soloEntries) != len(entries) {
		t.Fatalf("store entry counts differ: solo %d, %s %d", len(soloEntries), topology, len(entries))
	}
	for rel, data := range soloEntries {
		if entries[rel] != data {
			t.Errorf("store entry %s differs between solo and %s runs", rel, topology)
		}
	}
}

// resultsByWorker maps worker ID to acked-job count for one queue.
func resultsByWorker(t *testing.T, dir string) map[string]int {
	t.Helper()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	q, err := cluster.OpenQueue(st)
	if err != nil {
		t.Fatal(err)
	}
	results, err := q.Results()
	if err != nil {
		t.Fatal(err)
	}
	byWorker := map[string]int{}
	for _, r := range results {
		byWorker[r.Worker]++
	}
	return byWorker
}

// TestClusterShardedQuickSuite is the fabric's acceptance property, checked
// over two topologies against one solo cold-run reference: (a) three
// `synth work` processes sharing a store directory, and (b) a `synth serve`
// node with an embedded supervised pool plus one remote worker that reaches
// the node's store only over HTTP — no shared filesystem. Both must
// complete a dispatched quick suite with zero duplicated stage computations
// (summed per-stage Computed equals the solo run's) and leave stores
// byte-identical to the solo one.
func TestClusterShardedQuickSuite(t *testing.T) {
	dispatch := func(dir string) {
		var out, errb bytes.Buffer
		if c := run(context.Background(), []string{"dispatch", "-suite", "quick", "-seed", "1", "-store", dir}, &out, &errb); c != 0 {
			t.Fatalf("dispatch exited %d: %s", c, errb.String())
		}
	}

	// Reference: one worker drains the whole suite cold.
	solo := t.TempDir()
	dispatch(solo)
	if code, errOut := runWorker(t, solo, "solo"); code != 0 {
		t.Fatalf("solo worker exited %d: %s", code, errOut)
	}
	soloSum := sumComputed(t, solo)
	if soloSum.ComputedFor(pipeline.StageProfile) == 0 || soloSum.ComputedFor(pipeline.StageSynthesize) == 0 {
		t.Fatalf("solo run computed nothing: %+v", soloSum)
	}
	soloEntries := storeEntries(t, solo)

	t.Run("three-local-workers", func(t *testing.T) {
		shared := t.TempDir()
		dispatch(shared)
		var wg sync.WaitGroup
		codes := make([]int, 3)
		errs := make([]string, 3)
		ids := []string{"w1", "w2", "w3"}
		for i, id := range ids {
			wg.Add(1)
			go func(i int, id string) {
				defer wg.Done()
				codes[i], errs[i] = runWorker(t, shared, id)
			}(i, id)
		}
		// A dispatcher waiting on the same queue sees the drain complete.
		var waitOut, waitErr bytes.Buffer
		if c := run(context.Background(), []string{"dispatch", "-suite", "quick", "-seed", "1", "-store", shared, "-wait", "-poll", "20ms"}, &waitOut, &waitErr); c != 0 {
			t.Fatalf("dispatch -wait exited %d: %s", c, waitErr.String())
		}
		wg.Wait()
		for i, code := range codes {
			if code != 0 {
				t.Fatalf("worker %s exited %d: %s", ids[i], code, errs[i])
			}
		}
		if !strings.Contains(waitOut.String(), "jobs done") {
			t.Errorf("dispatch -wait printed no report:\n%s", waitOut.String())
		}
		assertNoDuplicatedWork(t, "3 workers", shared, soloSum, soloEntries)
		if byWorker := resultsByWorker(t, shared); len(byWorker) < 2 {
			t.Errorf("expected ≥2 workers to share the suite, got %v", byWorker)
		}
	})

	t.Run("fabric-serve-plus-remote", func(t *testing.T) {
		dir := t.TempDir()
		dispatch(dir)

		// The serving node: store + queue + embedded single-worker pool
		// (Max 1 keeps per-job stat deltas partitioned so the strict
		// no-duplication sum holds; pool scaling has its own tests).
		st, err := store.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		q, err := cluster.OpenQueue(st)
		if err != nil {
			t.Fatal(err)
		}
		sup, err := cluster.NewSupervisor(q, cluster.SupervisorOptions{
			Node: "servenode", Min: 1, Max: 1,
			Poll: 20 * time.Millisecond, Interval: 50 * time.Millisecond,
			PipelineWorkers: 2,
		})
		if err != nil {
			t.Fatal(err)
		}
		cf := commonFlags{workers: 2, seed: 1}
		p := cf.pipelineWith(st)
		const token = "fabric-secret"
		srv := httptest.NewServer(newServer(p, serverOptions{
			token: token, queue: q, storeBackend: st, sup: sup,
		}).handler())
		defer srv.Close()
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		supDone := make(chan error, 1)
		go func() { supDone <- sup.Run(ctx) }()

		// The remote node: a `synth work` process whose only path to the
		// queue and artifacts is the serve node's HTTP store.
		var wout, werrb bytes.Buffer
		code := run(context.Background(), []string{"work",
			"-remote", srv.URL, "-token", token, "-id", "remote1",
			"-lease-ttl", "5s", "-poll", "20ms"}, &wout, &werrb)
		if code != 0 {
			t.Fatalf("remote worker exited %d: %s", code, werrb.String())
		}

		// The remote worker exits on convergence; the node may still be
		// acking its last job, so poll the queue before stopping the pool.
		m, err := q.Manifest()
		if err != nil || m == nil {
			t.Fatalf("manifest: %v %v", m, err)
		}
		deadline := time.Now().Add(30 * time.Second)
		for {
			c, err := q.Counts()
			if err == nil && c.Done >= len(m.Spec.Jobs()) && c.Leased == 0 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("fabric never converged: %+v, %v", c, err)
			}
			time.Sleep(20 * time.Millisecond)
		}

		// The embedded pool's status rides the cluster endpoint.
		req, _ := http.NewRequest(http.MethodGet, srv.URL+"/api/v1/cluster/status", nil)
		req.Header.Set("Authorization", "Bearer "+token)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		var status clusterStatus
		err = json.NewDecoder(resp.Body).Decode(&status)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("cluster status: http %d, %v", resp.StatusCode, err)
		}
		if status.Node == nil || status.Node.Node != "servenode" || status.Node.Workers < 1 {
			t.Fatalf("status carries no embedded-pool snapshot: %+v", status.Node)
		}

		cancel()
		<-supDone

		assertNoDuplicatedWork(t, "serve+remote fabric", dir, soloSum, soloEntries)
		byWorker := resultsByWorker(t, dir)
		nodeJobs, remoteJobs := 0, byWorker["remote1"]
		for id, n := range byWorker {
			if strings.HasPrefix(id, "servenode-") {
				nodeJobs += n
			}
		}
		if nodeJobs == 0 || remoteJobs == 0 {
			t.Errorf("work was not shared across the fabric: %v", byWorker)
		}
	})
}

// TestClusterLeaseReclaimAfterCrash simulates a worker that claims a job
// and dies without heartbeating: a live worker must reclaim the expired
// lease and finish the suite.
func TestClusterLeaseReclaimAfterCrash(t *testing.T) {
	dir := t.TempDir()
	var out, errb bytes.Buffer
	if c := run(context.Background(), []string{"dispatch", "-suite", "tiny", "-seed", "1", "-store", dir}, &out, &errb); c != 0 {
		t.Fatalf("dispatch exited %d: %s", c, errb.String())
	}

	// The "crashed" worker: claims a job, never heartbeats, never acks.
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	q, err := cluster.OpenQueue(st)
	if err != nil {
		t.Fatal(err)
	}
	crashed, err := q.Claim("crasher")
	if err != nil || crashed == nil {
		t.Fatalf("crasher claim: %v, %v", crashed, err)
	}

	// A live worker with a short TTL drains the rest, then reclaims the
	// crasher's expired lease and finishes its job too.
	var wout, werr bytes.Buffer
	code := run(context.Background(), []string{"work", "-store", dir, "-id", "rescuer",
		"-lease-ttl", "250ms", "-poll", "20ms"}, &wout, &werr)
	if code != 0 {
		t.Fatalf("rescuer exited %d: %s", code, werr.String())
	}

	m, err := q.Manifest()
	if err != nil {
		t.Fatal(err)
	}
	c, err := q.Counts()
	if err != nil {
		t.Fatal(err)
	}
	if c.Done != len(m.Spec.Jobs()) || c.Pending != 0 || c.Leased != 0 {
		t.Fatalf("queue did not converge after crash: %+v (total %d)", c, len(m.Spec.Jobs()))
	}
	results, err := q.Results()
	if err != nil {
		t.Fatal(err)
	}
	rescued := false
	for _, r := range results {
		if r.Err != "" {
			t.Errorf("job %s failed: %s", r.Job.Workload, r.Err)
		}
		if r.Job.ID() == crashed.Job.ID() {
			rescued = r.Worker == "rescuer"
		}
	}
	if !rescued {
		t.Error("the crashed worker's job was not re-executed by the rescuer")
	}
}
