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
	"testing"

	"repro/internal/explore"
	"repro/internal/generate"
)

// testGenSpec is the generation spec the CLI tests share: two points off
// the tiny suite, cheap enough for unit tests.
const testGenSpec = `{"name": "cli-gen", "suite": "tiny", "n": 2, "seed": 9}`

// writeGenSpec drops a generation spec into a temp file.
func writeGenSpec(t *testing.T, spec string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "gen.json")
	if err := os.WriteFile(path, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestGenerateCLIDeterminism pins the CLI determinism contract: the same
// spec and seed run cold in two separate stores emit byte-identical JSON
// reports, and a warm rerun over either store recomputes nothing.
func TestGenerateCLIDeterminism(t *testing.T) {
	args := func(dir string) []string {
		return []string{"generate", "-suite", "tiny", "-n", "3", "-seed", "5", "-store", dir, "-json"}
	}
	first := t.TempDir()
	var out1, err1 bytes.Buffer
	if c := run(context.Background(), args(first), &out1, &err1); c != 0 {
		t.Fatalf("first cold run exited %d: %s", c, err1.String())
	}
	second := t.TempDir()
	var out2, err2 bytes.Buffer
	if c := run(context.Background(), args(second), &out2, &err2); c != 0 {
		t.Fatalf("second cold run exited %d: %s", c, err2.String())
	}
	if out1.String() != out2.String() {
		t.Errorf("cold runs in separate stores disagree:\n%s\n%s", out1.String(), out2.String())
	}
	var rep generate.Report
	if err := json.Unmarshal(out1.Bytes(), &rep); err != nil {
		t.Fatalf("JSON output does not decode: %v", err)
	}
	if rep.Seed != 5 || len(rep.Points) != 3 {
		t.Errorf("decoded report: seed=%d points=%d", rep.Seed, len(rep.Points))
	}

	var warmOut, warmErr bytes.Buffer
	warmArgs := append(args(first), "-stats")
	if c := run(context.Background(), warmArgs, &warmOut, &warmErr); c != 0 {
		t.Fatalf("warm rerun exited %d: %s", c, warmErr.String())
	}
	if warmOut.String() != out1.String() {
		t.Error("warm rerun printed a different report")
	}
	if !strings.Contains(warmErr.String(), "compile=0 profile=0 synthesize=0 validate=0 simulate=0 generate=0") {
		t.Fatalf("warm rerun recomputed artifacts:\n%s", warmErr.String())
	}
}

// TestGenerateCLISeedContract pins the seed-resolution order: an explicit
// -seed beats the spec file's seed, which beats the default.
func TestGenerateCLISeedContract(t *testing.T) {
	spec := writeGenSpec(t, testGenSpec)
	var out, errb bytes.Buffer
	if c := run(context.Background(), []string{"generate", "-spec", spec, "-json"}, &out, &errb); c != 0 {
		t.Fatalf("spec-seed run exited %d: %s", c, errb.String())
	}
	var rep generate.Report
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Seed != 9 {
		t.Errorf("spec file seed ignored: report seed %d, want 9", rep.Seed)
	}
	out.Reset()
	errb.Reset()
	if c := run(context.Background(), []string{"generate", "-spec", spec, "-seed", "5", "-json"}, &out, &errb); c != 0 {
		t.Fatalf("flag-seed run exited %d: %s", c, errb.String())
	}
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Seed != 5 {
		t.Errorf("explicit -seed did not win: report seed %d, want 5", rep.Seed)
	}
}

// TestGenerateCLICorpusAndErrors covers the -out corpus directory and the
// spec-handling error paths.
func TestGenerateCLICorpusAndErrors(t *testing.T) {
	spec := writeGenSpec(t, testGenSpec)
	dir := filepath.Join(t.TempDir(), "corpus")
	var out, errb bytes.Buffer
	if c := run(context.Background(), []string{"generate", "-spec", spec, "-out", dir}, &out, &errb); c != 0 {
		t.Fatalf("generate -out exited %d: %s", c, errb.String())
	}
	if !strings.Contains(out.String(), "generate cli-gen") {
		t.Errorf("text report missing header:\n%s", out.String())
	}
	data, err := os.ReadFile(filepath.Join(dir, "report.json"))
	if err != nil {
		t.Fatal(err)
	}
	var rep generate.Report
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	for _, pt := range rep.Points {
		if pt.Reject != "" {
			continue
		}
		src, err := os.ReadFile(filepath.Join(dir, pt.Name+".hlc"))
		if err != nil {
			t.Errorf("accepted point %s has no corpus file: %v", pt.Name, err)
		} else if string(src) != pt.Source {
			t.Errorf("corpus file %s.hlc differs from the report source", pt.Name)
		}
	}

	badSpec := writeGenSpec(t, `{"n": 2, "typo": 1}`)
	for _, args := range [][]string{
		{"generate", "-spec", "/does/not/exist.json"},
		{"generate", "-spec", badSpec},
		{"generate", "-n", "100000"},
		{"generate", "-suite", "huge"},
		{"generate", "-dispatch"}, // dispatch without store
	} {
		out.Reset()
		errb.Reset()
		if c := run(context.Background(), args, &out, &errb); c == 0 {
			t.Errorf("%v: expected a nonzero exit", args)
		}
	}
}

// TestClusterGenerateSharded dispatches a generation run's points through
// the cluster queue, drains it with a worker, and checks the dispatcher's
// closing aggregation finds every synthesis warm in the shared store.
func TestClusterGenerateSharded(t *testing.T) {
	spec := writeGenSpec(t, testGenSpec)
	dir := t.TempDir()
	var out, errb bytes.Buffer
	if c := run(context.Background(), []string{"generate", "-spec", spec, "-store", dir, "-dispatch"}, &out, &errb); c != 0 {
		t.Fatalf("generate -dispatch exited %d: %s", c, errb.String())
	}
	if !strings.Contains(errb.String(), "2 jobs (one per point): 2 enqueued") {
		t.Fatalf("dispatch did not enqueue 2 point jobs:\n%s", errb.String())
	}
	if code, errOut := runWorker(t, dir, "gen-worker"); code != 0 {
		t.Fatalf("worker exited %d: %s", code, errOut)
	}
	// The worker realized every point; the local closing run only computes
	// the report artifact itself.
	out.Reset()
	errb.Reset()
	if c := run(context.Background(), []string{"generate", "-spec", spec, "-store", dir, "-stats"}, &out, &errb); c != 0 {
		t.Fatalf("post-drain generate exited %d: %s", c, errb.String())
	}
	if !strings.Contains(errb.String(), "compile=0 profile=0 synthesize=0 validate=0 simulate=0") {
		t.Fatalf("post-drain run recomputed pipeline artifacts:\n%s", errb.String())
	}
	if !strings.Contains(out.String(), "2 accepted, 0 rejected") {
		t.Fatalf("post-drain report:\n%s", out.String())
	}
}

// TestExploreConsumesGeneratedCorpus wires -generate into a sweep: the
// generated corpus joins the evaluation workloads, and combining -generate
// with -dispatch is refused.
func TestExploreConsumesGeneratedCorpus(t *testing.T) {
	sweep := writeSpec(t)
	spec := writeGenSpec(t, `{"name": "xg", "suite": "tiny", "n": 2, "seed": 9}`)
	var out, errb bytes.Buffer
	if c := run(context.Background(), []string{"explore", "-spec", sweep, "-generate", spec, "-seed", "1", "-json"}, &out, &errb); c != 0 {
		t.Fatalf("explore -generate exited %d: %s", c, errb.String())
	}
	var rep explore.Report
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatal(err)
	}
	gen := 0
	for _, w := range rep.Workloads {
		if strings.HasPrefix(w, "gen/xg-") {
			gen++
		}
	}
	if gen == 0 {
		t.Errorf("sweep evaluated no generated workloads: %v", rep.Workloads)
	}
	if len(rep.Workloads) != 3+gen {
		t.Errorf("sweep workloads = %v, want tiny suite plus %d generated", rep.Workloads, gen)
	}

	out.Reset()
	errb.Reset()
	if c := run(context.Background(), []string{"explore", "-spec", sweep, "-generate", spec, "-store", t.TempDir(), "-dispatch"}, &out, &errb); c == 0 {
		t.Error("explore -generate -dispatch was accepted")
	}
}

// TestServeGenerate exercises POST /api/v1/generate against the library
// engine: same spec, same pipeline, byte-equal report.
func TestServeGenerate(t *testing.T) {
	s, p := testServer(t)
	h := s.handler()

	req := httptest.NewRequest("POST", "/api/v1/generate", strings.NewReader(testGenSpec))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	var got generate.Report
	if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
		t.Fatalf("response does not decode: %v", err)
	}

	spec, err := generate.ParseSpec([]byte(testGenSpec))
	if err != nil {
		t.Fatal(err)
	}
	want, err := generate.Run(context.Background(), p, spec)
	if err != nil {
		t.Fatal(err)
	}
	gotJSON, _ := json.Marshal(got)
	wantJSON, _ := json.Marshal(want)
	if string(gotJSON) != string(wantJSON) {
		t.Errorf("endpoint report differs from library:\nendpoint %s\nlibrary  %s", gotJSON, wantJSON)
	}

	// Method and body validation.
	code, body := get(t, h, "/api/v1/generate")
	if code != http.StatusMethodNotAllowed {
		t.Errorf("GET: status %d: %s", code, body)
	}
	req = httptest.NewRequest("POST", "/api/v1/generate", strings.NewReader(`{"n": 0}`))
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusBadRequest {
		t.Errorf("bad spec: status %d: %s", rec.Code, rec.Body.String())
	}
}
