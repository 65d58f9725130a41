package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/pipeline"
	"repro/internal/telemetry"
)

// telemetryServer builds a server whose pipeline shares the returned
// registry, the way cmdServe wires them.
func telemetryServer(t *testing.T, opts serverOptions) (*server, *pipeline.Pipeline, *telemetry.Registry) {
	t.Helper()
	reg := telemetry.NewRegistry()
	p := pipeline.New(pipeline.Options{Workers: 4, Seed: 1, Metrics: reg})
	opts.metrics = reg
	if opts.maxQueue == 0 {
		opts.maxQueue = 64
	}
	return newServer(p, opts), p, reg
}

// TestServeMetricsMatchesStats is the PR's acceptance property at the HTTP
// layer: after driving work through the service, the /metrics exposition
// reports exactly the counts /api/v1/stats (and printStats) report.
func TestServeMetricsMatchesStats(t *testing.T) {
	s, p, _ := telemetryServer(t, serverOptions{})
	h := s.handler()

	if code, body := get(t, h, "/api/v1/profile?workload=crc32/small"); code != http.StatusOK {
		t.Fatalf("profile status %d: %s", code, body)
	}
	// A second request hits the in-memory cache, moving the hit counters.
	if code, body := get(t, h, "/api/v1/profile?workload=crc32/small"); code != http.StatusOK {
		t.Fatalf("profile status %d: %s", code, body)
	}

	code, body := get(t, h, "/metrics")
	if code != http.StatusOK {
		t.Fatalf("metrics status %d: %s", code, body)
	}
	cs := p.CacheStats()
	for _, line := range []string{
		fmt.Sprintf("synth_pipeline_cache_hits_total %d", cs.Hits),
		fmt.Sprintf("synth_pipeline_cache_misses_total %d", cs.Misses),
		fmt.Sprintf(`synth_pipeline_stage_computed_total{stage="profile"} %d`, cs.ComputedFor(pipeline.StageProfile)),
		fmt.Sprintf(`synth_pipeline_stage_computed_total{stage="compile"} %d`, cs.ComputedFor(pipeline.StageCompile)),
		`synth_http_requests_total{class="2xx",route="/api/v1/profile"} 2`,
		// The scrape observes itself executing.
		"synth_http_in_flight 1",
	} {
		if !strings.Contains(body, line+"\n") {
			t.Errorf("exposition missing %q", line)
		}
	}
	if t.Failed() {
		t.Logf("exposition:\n%s", body)
	}
}

// TestServeMetricsAuthExempt pins the auth boundary: /metrics (like
// /healthz) answers without the bearer token, while pprof — when mounted —
// stays behind it.
func TestServeMetricsAuthExempt(t *testing.T) {
	s, _, _ := telemetryServer(t, serverOptions{token: "s3cret", pprofEnabled: true})
	h := s.handler()

	for path, want := range map[string]int{
		"/metrics":            http.StatusOK,
		"/healthz":            http.StatusOK,
		"/api/v1/workloads":   http.StatusUnauthorized,
		"/debug/pprof/":       http.StatusUnauthorized,
		"/debug/pprof/symbol": http.StatusUnauthorized,
	} {
		if code, body := get(t, h, path); code != want {
			t.Errorf("GET %s without token = %d, want %d: %s", path, code, want, body)
		}
	}

	req := httptest.NewRequest("GET", "/debug/pprof/", nil)
	req.Header.Set("Authorization", "Bearer s3cret")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Errorf("authorized pprof index = %d, want 200", rec.Code)
	}
}

// TestServePprofGating pins that the profiling endpoints exist only behind
// the -pprof flag.
func TestServePprofGating(t *testing.T) {
	off, _, _ := telemetryServer(t, serverOptions{})
	if code, _ := get(t, off.handler(), "/debug/pprof/"); code != http.StatusNotFound {
		t.Errorf("pprof without -pprof = %d, want 404", code)
	}
	on, _, _ := telemetryServer(t, serverOptions{pprofEnabled: true})
	if code, body := get(t, on.handler(), "/debug/pprof/"); code != http.StatusOK {
		t.Errorf("pprof with -pprof = %d, want 200: %s", code, body)
	}
}

// TestServeClusterStatusTelemetry pins the status endpoint's single
// statement of each count on a node with an embedded pool: the response has
// no separate telemetry section, and the pool's job-lifecycle counters
// appear once, under node.jobs, equal to the supervisor's metrics.
func TestServeClusterStatusTelemetry(t *testing.T) {
	dir := t.TempDir()
	q, err := openQueue(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out, errBuf strings.Builder
	if c := run(context.Background(), []string{"dispatch", "-suite", "tiny", "-seed", "1", "-store", dir}, &out, &errBuf); c != 0 {
		t.Fatalf("dispatch exited %d: %s", c, errBuf.String())
	}
	sup, err := cluster.NewSupervisor(q, cluster.SupervisorOptions{Node: "statusnode"})
	if err != nil {
		t.Fatal(err)
	}
	m := sup.Metrics()
	m.Claim()
	m.Claim()
	m.Acked(time.Millisecond, false)
	m.Acked(time.Millisecond, true)
	m.Panic()
	m.Reclaimed(3)
	s, _, _ := telemetryServer(t, serverOptions{queue: q, sup: sup})
	code, body := get(t, s.handler(), "/api/v1/cluster/status")
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, body)
	}
	var raw map[string]json.RawMessage
	if err := json.Unmarshal([]byte(body), &raw); err != nil {
		t.Fatalf("bad status JSON: %v\n%s", err, body)
	}
	if _, ok := raw["telemetry"]; ok {
		t.Errorf("status restates its counts in a telemetry section: %s", body)
	}
	var node map[string]json.RawMessage
	if err := json.Unmarshal(raw["node"], &node); err != nil {
		t.Fatalf("status lacks node object: %v\n%s", err, body)
	}
	for _, k := range []string{"failed", "panics", "reclaimed"} {
		if _, ok := node[k]; ok {
			t.Errorf("node restates %q outside node.jobs: %s", k, body)
		}
	}
	var jobs cluster.MetricsSnapshot
	if err := json.Unmarshal(node["jobs"], &jobs); err != nil {
		t.Fatalf("node.jobs is not the lifecycle snapshot: %v\n%s", err, body)
	}
	if want := m.Snapshot(); jobs != want {
		t.Errorf("node.jobs = %+v, want %+v", jobs, want)
	}
	if jobs.Claims != 2 || jobs.JobsOK != 1 || jobs.JobsFailed != 1 || jobs.Panics != 1 || jobs.Reclaims != 3 {
		t.Errorf("node.jobs lost counts: %+v", jobs)
	}
}

// TestCLITraceFlag runs `synth profile -trace` end to end and checks the
// written file is a Chrome trace with one span per computed stage.
func TestCLITraceFlag(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.json")
	var out, errBuf strings.Builder
	code := run(context.Background(),
		[]string{"profile", "-workload", "crc32/small", "-trace", path}, &out, &errBuf)
	if code != 0 {
		t.Fatalf("profile -trace exited %d: %s", code, errBuf.String())
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("trace file: %v", err)
	}
	var trace struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Dur  float64 `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &trace); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	seen := map[string]bool{}
	for _, ev := range trace.TraceEvents {
		if ev.Ph != "X" {
			t.Errorf("event %q has phase %q, want X", ev.Name, ev.Ph)
		}
		seen[ev.Name] = true
	}
	// A cold profile run computes the profile chain; each computed stage is
	// one span.
	for _, stage := range []string{"parse", "check", "compile", "profile"} {
		if !seen[stage] {
			t.Errorf("trace lacks a %q span (events: %v)", stage, seen)
		}
	}
}
