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

	"repro/internal/cluster"
	"repro/internal/explore"
	"repro/internal/pipeline"
	"repro/internal/store"
)

// testSweepSpec is the sweep the CLI and cluster tests share: the tiny
// suite over 3 design points (base + two axis values) at one level.
const testSweepSpec = `{
  "name": "cli-sweep",
  "suite": "tiny",
  "levels": [2],
  "base": "2-wide OoO",
  "axes": {"memLat": [150, 600]}
}`

// writeSpec drops the test sweep spec into a temp file.
func writeSpec(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "sweep.json")
	if err := os.WriteFile(path, []byte(testSweepSpec), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestExploreCLIWarmRerun is the PR's CLI acceptance property: a cold
// `synth explore` computes the sweep, and a warm rerun of the same spec
// over the same store reports zero simulate-stage recomputations while
// printing the identical report.
func TestExploreCLIWarmRerun(t *testing.T) {
	spec := writeSpec(t)
	dir := t.TempDir()

	var coldOut, coldErr bytes.Buffer
	if c := run(context.Background(), []string{"explore", "-spec", spec, "-store", dir, "-seed", "1", "-stats"}, &coldOut, &coldErr); c != 0 {
		t.Fatalf("cold explore exited %d: %s", c, coldErr.String())
	}
	if !strings.Contains(coldOut.String(), "pareto frontier") {
		t.Fatalf("cold run printed no report:\n%s", coldOut.String())
	}
	if strings.Contains(coldErr.String(), "simulate=0") {
		t.Fatalf("cold run computed no simulations:\n%s", coldErr.String())
	}

	var warmOut, warmErr bytes.Buffer
	if c := run(context.Background(), []string{"explore", "-spec", spec, "-store", dir, "-seed", "1", "-stats"}, &warmOut, &warmErr); c != 0 {
		t.Fatalf("warm explore exited %d: %s", c, warmErr.String())
	}
	if !strings.Contains(warmErr.String(), "compile=0 profile=0 synthesize=0 validate=0 simulate=0") {
		t.Fatalf("warm rerun recomputed artifacts:\n%s", warmErr.String())
	}
	if warmOut.String() != coldOut.String() {
		t.Errorf("warm report differs from cold:\ncold:\n%s\nwarm:\n%s", coldOut.String(), warmOut.String())
	}
}

// TestExploreCLIJSONAndErrors covers the JSON output mode and the
// spec-handling error paths.
func TestExploreCLIJSONAndErrors(t *testing.T) {
	spec := writeSpec(t)
	var out, errb bytes.Buffer
	if c := run(context.Background(), []string{"explore", "-spec", spec, "-seed", "1", "-json", "-top", "1"}, &out, &errb); c != 0 {
		t.Fatalf("explore -json exited %d: %s", c, errb.String())
	}
	var rep explore.Report
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatalf("JSON output does not decode: %v", err)
	}
	if rep.Name != "cli-sweep" || len(rep.Points) != 3 || rep.TopK != 1 {
		t.Errorf("decoded report: name=%q points=%d topK=%d", rep.Name, len(rep.Points), rep.TopK)
	}

	for _, args := range [][]string{
		{"explore"}, // no spec
		{"explore", "-spec", spec, "-preset", "calibration"}, // both
		{"explore", "-preset", "turbo"},                      // unknown preset
		{"explore", "-spec", "/does/not/exist.json"},
		{"explore", "-spec", spec, "-dispatch"}, // dispatch without store
	} {
		out.Reset()
		errb.Reset()
		if c := run(context.Background(), args, &out, &errb); c == 0 {
			t.Errorf("%v: expected a nonzero exit", args)
		}
	}
}

// TestClusterExploreSharded is the PR's cluster acceptance property:
// three `synth work` processes draining a dispatched sweep produce a
// store byte-identical to a solo worker's, with zero duplicated stage
// computations, and the dispatcher aggregates the final report without
// recomputing anything.
func TestClusterExploreSharded(t *testing.T) {
	spec := writeSpec(t)
	dispatch := func(dir string) string {
		var out, errb bytes.Buffer
		if c := run(context.Background(), []string{"explore", "-spec", spec, "-store", dir, "-seed", "1", "-dispatch"}, &out, &errb); c != 0 {
			t.Fatalf("explore -dispatch exited %d: %s", c, errb.String())
		}
		return errb.String()
	}

	// Reference: one worker drains the sweep cold.
	solo := t.TempDir()
	dispatch(solo)
	if code, errOut := runWorker(t, solo, "solo"); code != 0 {
		t.Fatalf("solo worker exited %d: %s", code, errOut)
	}
	soloSum := sumComputed(t, solo)
	if soloSum.ComputedFor(pipeline.StageSimulate) == 0 {
		t.Fatalf("solo drain simulated nothing: %+v", soloSum)
	}

	// Same dispatch, three concurrent workers on a fresh store.
	shared := t.TempDir()
	dispatch(shared)
	var wg sync.WaitGroup
	codes := make([]int, 3)
	errs := make([]string, 3)
	for i, id := range []string{"w1", "w2", "w3"} {
		wg.Add(1)
		go func(i int, id string) {
			defer wg.Done()
			codes[i], errs[i] = runWorker(t, shared, id)
		}(i, id)
	}
	wg.Wait()
	for i, code := range codes {
		if code != 0 {
			t.Fatalf("worker %d exited %d: %s", i, code, errs[i])
		}
	}

	// Zero duplicated computation across the fleet.
	sharedSum := sumComputed(t, shared)
	for st := pipeline.Stage(0); int(st) < pipeline.NumStages; st++ {
		if got, want := sharedSum.ComputedFor(st), soloSum.ComputedFor(st); got != want {
			t.Errorf("stage %v: 3 workers computed %d artifacts, solo computed %d", st, got, want)
		}
	}

	// Byte-identical stores.
	soloEntries, sharedEntries := storeEntries(t, solo), storeEntries(t, shared)
	if len(soloEntries) == 0 || len(soloEntries) != len(sharedEntries) {
		t.Fatalf("store entry counts differ: solo %d, shared %d", len(soloEntries), len(sharedEntries))
	}
	for rel, data := range soloEntries {
		if sharedEntries[rel] != data {
			t.Errorf("store entry %s differs between solo and sharded runs", rel)
		}
	}

	// The dispatcher's aggregation pass over the drained store is free,
	// and a re-dispatch sees nothing to do.
	var out, errb bytes.Buffer
	if c := run(context.Background(), []string{"explore", "-spec", spec, "-store", shared, "-seed", "1", "-stats"}, &out, &errb); c != 0 {
		t.Fatalf("post-drain explore exited %d: %s", c, errb.String())
	}
	if !strings.Contains(errb.String(), "compile=0 profile=0 synthesize=0 validate=0 simulate=0") {
		t.Fatalf("post-drain aggregation recomputed artifacts:\n%s", errb.String())
	}
	redispatch := dispatch(shared)
	if !strings.Contains(redispatch, "0 enqueued") {
		t.Errorf("re-dispatch enqueued work over a drained queue: %s", redispatch)
	}
}

// TestClusterExploreDispatchReportsFailedJobs: jobs of a dispatched sweep
// that the fleet acked as failed must fail `explore -dispatch -wait` with
// a FAILED line per job, not be recomputed locally behind a zero exit.
func TestClusterExploreDispatchReportsFailedJobs(t *testing.T) {
	spec := writeSpec(t)
	dir := t.TempDir()
	args := []string{"explore", "-spec", spec, "-store", dir, "-seed", "1", "-dispatch"}
	var out, errb bytes.Buffer
	if c := run(context.Background(), args, &out, &errb); c != 0 {
		t.Fatalf("explore -dispatch exited %d: %s", c, errb.String())
	}

	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	q, err := cluster.OpenQueue(st)
	if err != nil {
		t.Fatal(err)
	}
	failed := 0
	for {
		lease, err := q.Claim("saboteur")
		if err != nil {
			t.Fatal(err)
		}
		if lease == nil {
			break
		}
		if err := lease.Ack(cluster.Result{Job: lease.Job, Worker: "saboteur", Err: "scripted failure"}); err != nil {
			t.Fatal(err)
		}
		failed++
	}
	if failed == 0 {
		t.Fatal("dispatch enqueued no jobs")
	}

	out.Reset()
	errb.Reset()
	if c := run(context.Background(), append(args, "-wait", "-poll", "20ms"), &out, &errb); c == 0 {
		t.Fatalf("explore -dispatch -wait exited 0 over %d failed jobs:\n%s", failed, errb.String())
	}
	if n := strings.Count(errb.String(), "FAILED"); n != failed {
		t.Errorf("printed %d FAILED lines for %d failed jobs:\n%s", n, failed, errb.String())
	}
	if out.Len() != 0 {
		t.Errorf("printed a report over failed jobs:\n%s", out.String())
	}
}

// TestServeExplore exercises POST /api/v1/explore against the library
// engine: same spec, same pipeline, byte-equal report.
func TestServeExplore(t *testing.T) {
	s, p := testServer(t)
	h := s.handler()

	req := httptest.NewRequest("POST", "/api/v1/explore", strings.NewReader(testSweepSpec))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	var got explore.Report
	if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
		t.Fatalf("response does not decode: %v", err)
	}

	sw, err := explore.ParseSpec([]byte(testSweepSpec))
	if err != nil {
		t.Fatal(err)
	}
	want, err := explore.Run(context.Background(), p, sw)
	if err != nil {
		t.Fatal(err)
	}
	gotJSON, _ := json.Marshal(got)
	wantJSON, _ := json.Marshal(want)
	if string(gotJSON) != string(wantJSON) {
		t.Errorf("endpoint report differs from library:\nendpoint %s\nlibrary  %s", gotJSON, wantJSON)
	}

	// Method and body validation.
	code, body := get(t, h, "/api/v1/explore")
	if code != http.StatusMethodNotAllowed {
		t.Errorf("GET: status %d: %s", code, body)
	}
	req = httptest.NewRequest("POST", "/api/v1/explore", strings.NewReader(`{"suite": "nope"}`))
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusBadRequest {
		t.Errorf("bad spec: status %d: %s", rec.Code, rec.Body.String())
	}
}
