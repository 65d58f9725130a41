package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/pipeline"
	"repro/internal/workloads"
)

func testServer(t *testing.T) (*server, *pipeline.Pipeline) {
	t.Helper()
	p := pipeline.New(pipeline.Options{Workers: 4, Seed: 1})
	return newServer(p, serverOptions{maxQueue: 64}), p
}

func get(t *testing.T, h http.Handler, url string) (int, string) {
	t.Helper()
	req := httptest.NewRequest("GET", url, nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec.Code, rec.Body.String()
}

// TestServeProfileMatchesLibrary is the acceptance property: the profile
// endpoint answers byte-identical to the library API (and therefore to
// `synth profile`).
func TestServeProfileMatchesLibrary(t *testing.T) {
	s, p := testServer(t)
	h := s.handler()

	code, body := get(t, h, "/api/v1/profile?workload=crc32/small")
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, body)
	}

	w := workloads.ByName("crc32/small")
	prof, err := p.Profile(context.Background(), w)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := prof.Save(&want); err != nil {
		t.Fatal(err)
	}
	if body != want.String() {
		t.Error("profile endpoint differs from library profile.Save bytes")
	}
}

// TestServeSynthesizeMatchesLibrary checks both response formats against
// the library clone.
func TestServeSynthesizeMatchesLibrary(t *testing.T) {
	s, p := testServer(t)
	h := s.handler()

	cl, err := p.Synthesize(context.Background(), workloads.ByName("crc32/small"))
	if err != nil {
		t.Fatal(err)
	}

	code, body := get(t, h, "/api/v1/synthesize?workload=crc32/small&format=source")
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, body)
	}
	if body != cl.Source {
		t.Error("format=source body differs from library clone source")
	}

	code, body = get(t, h, "/api/v1/synthesize?workload=crc32/small")
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, body)
	}
	var resp synthesizeResponse
	if err := json.Unmarshal([]byte(body), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Source != cl.Source || resp.Workload != "crc32/small" || resp.Seed != 1 {
		t.Error("JSON envelope differs from library clone")
	}
	if resp.Report.Coverage != cl.Report.Coverage {
		t.Error("JSON envelope dropped the synthesis report")
	}
}

// TestServeConcurrentRequests fires many concurrent profile and synthesize
// requests at one shared Runner and requires every response to be
// identical (the artifact cache coalesces them onto single computations).
func TestServeConcurrentRequests(t *testing.T) {
	s, p := testServer(t)
	h := s.handler()

	const n = 16
	bodies := make([]string, 2*n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(2)
		go func(i int) {
			defer wg.Done()
			_, bodies[2*i] = get(t, h, "/api/v1/profile?workload=dijkstra/small")
		}(i)
		go func(i int) {
			defer wg.Done()
			_, bodies[2*i+1] = get(t, h, "/api/v1/synthesize?workload=dijkstra/small&format=source")
		}(i)
	}
	wg.Wait()
	for i := 2; i < 2*n; i += 2 {
		if bodies[i] != bodies[0] {
			t.Fatalf("profile response %d differs from response 0", i/2)
		}
		if bodies[i+1] != bodies[1] {
			t.Fatalf("synthesize response %d differs from response 0", i/2)
		}
	}
	if st := p.CacheStats(); st.ComputedFor(pipeline.StageProfile) != 1 ||
		st.ComputedFor(pipeline.StageSynthesize) != 1 {
		t.Errorf("concurrent requests did not coalesce: %+v", st)
	}
}

// TestServeExperimentsMatchesCLI checks the experiments endpoint renders
// exactly what `synth experiments` prints for the same suite.
func TestServeExperimentsMatchesCLI(t *testing.T) {
	s, _ := testServer(t)
	h := s.handler()

	code, body := get(t, h, "/api/v1/experiments?suite=tiny&only=table2")
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, body)
	}
	var resp struct {
		Suite  string `json:"suite"`
		Output string `json:"output"`
	}
	if err := json.Unmarshal([]byte(body), &resp); err != nil {
		t.Fatal(err)
	}

	var cliOut, cliErr bytes.Buffer
	if c := run(context.Background(), []string{"experiments", "-suite", "tiny", "-only", "table2", "-seed", "1"},
		&cliOut, &cliErr); c != 0 {
		t.Fatalf("CLI exited %d: %s", c, cliErr.String())
	}
	if resp.Output != cliOut.String() {
		t.Errorf("experiments endpoint differs from CLI output.\n--- serve ---\n%s\n--- CLI ---\n%s",
			resp.Output, cliOut.String())
	}
}

// TestServeConsolidate checks the consolidate endpoint merges profiles and
// optionally synthesizes the consolidated clone.
func TestServeConsolidate(t *testing.T) {
	s, _ := testServer(t)
	h := s.handler()

	code, body := get(t, h, "/api/v1/consolidate?workloads=crc32/small,dijkstra/small&name=duo")
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, body)
	}
	var merged struct {
		Workload string `json:"workload"`
		TotalDyn uint64 `json:"totalDyn"`
	}
	if err := json.Unmarshal([]byte(body), &merged); err != nil {
		t.Fatal(err)
	}
	if merged.Workload != "duo" || merged.TotalDyn == 0 {
		t.Errorf("unexpected merged profile: %+v", merged)
	}

	code, body = get(t, h, "/api/v1/consolidate?workloads=crc32/small,dijkstra/small&synthesize=1")
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, body)
	}
	var resp synthesizeResponse
	if err := json.Unmarshal([]byte(body), &resp); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(resp.Source, "void main()") {
		t.Error("consolidated clone source looks wrong")
	}
}

// TestServeStatsAndHealth covers the operational endpoints.
func TestServeStatsAndHealth(t *testing.T) {
	s, _ := testServer(t)
	h := s.handler()

	if code, body := get(t, h, "/healthz"); code != http.StatusOK || body != "ok\n" {
		t.Errorf("healthz: %d %q", code, body)
	}
	code, body := get(t, h, "/api/v1/workloads")
	if code != http.StatusOK || !strings.Contains(body, "crc32/small") {
		t.Errorf("workloads: %d %s", code, body)
	}
	code, body = get(t, h, "/api/v1/stats")
	if code != http.StatusOK {
		t.Fatalf("stats: %d", code)
	}
	var stats struct {
		Workers int `json:"workers"`
		Cache   struct {
			Hits uint64
		} `json:"cache"`
	}
	if err := json.Unmarshal([]byte(body), &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Workers != 4 {
		t.Errorf("stats workers = %d, want 4", stats.Workers)
	}
}

// TestServeErrors covers the request-validation paths.
func TestServeErrors(t *testing.T) {
	s, _ := testServer(t)
	h := s.handler()
	cases := []struct {
		url  string
		code int
	}{
		{"/api/v1/profile", http.StatusBadRequest},
		{"/api/v1/profile?workload=no/such", http.StatusNotFound},
		{"/api/v1/synthesize?workload=no/such", http.StatusNotFound},
		{"/api/v1/synthesize?workload=crc32/small&format=xml", http.StatusBadRequest},
		{"/api/v1/experiments?suite=bogus", http.StatusBadRequest},
		{"/api/v1/experiments?suite=tiny&only=fig99", http.StatusBadRequest},
		{"/api/v1/consolidate", http.StatusBadRequest},
		{"/api/v1/consolidate?workloads=no/such", http.StatusNotFound},
		{"/api/v1/consolidate?workloads=crc32/small&synthesize=banana", http.StatusBadRequest},
	}
	for _, c := range cases {
		code, body := get(t, h, c.url)
		if code != c.code {
			t.Errorf("%s: status %d, want %d (%s)", c.url, code, c.code, body)
		}
		var e struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal([]byte(body), &e); err != nil || e.Error == "" {
			t.Errorf("%s: error body is not JSON with an error field: %s", c.url, body)
		}
	}
}

// TestServeAuthToken checks the shared-secret satellite: with -token set,
// API requests without the exact bearer token get 401, /healthz stays
// open, and a correct token passes.
func TestServeAuthToken(t *testing.T) {
	p := pipeline.New(pipeline.Options{Workers: 2, Seed: 1})
	h := newServer(p, serverOptions{token: "s3cret"}).handler()

	cases := []struct {
		auth string
		code int
	}{
		{"", http.StatusUnauthorized},
		{"Bearer wrong", http.StatusUnauthorized},
		{"Bearer s3cret-but-longer", http.StatusUnauthorized},
		{"bearer s3cret", http.StatusUnauthorized}, // scheme is case-sensitive
		{"Bearer s3cret", http.StatusOK},
	}
	for _, c := range cases {
		req := httptest.NewRequest("GET", "/api/v1/workloads", nil)
		if c.auth != "" {
			req.Header.Set("Authorization", c.auth)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != c.code {
			t.Errorf("auth %q: status %d, want %d", c.auth, rec.Code, c.code)
		}
		if c.code == http.StatusUnauthorized && rec.Header().Get("WWW-Authenticate") == "" {
			t.Errorf("auth %q: 401 without a WWW-Authenticate challenge", c.auth)
		}
	}
	if code, body := get(t, h, "/healthz"); code != http.StatusOK || body != "ok\n" {
		t.Errorf("healthz must stay open under auth: %d %q", code, body)
	}
}

// TestServeBatchSynthesize checks the batch endpoint: every item matches
// the single-workload endpoint byte-for-byte, duplicates collapse, suites
// expand, and the whole batch coalesces onto single computations.
func TestServeBatchSynthesize(t *testing.T) {
	s, p := testServer(t)
	h := s.handler()

	post := func(body string) (int, string) {
		req := httptest.NewRequest("POST", "/api/v1/batch/synthesize", strings.NewReader(body))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return rec.Code, rec.Body.String()
	}

	code, body := post(`{"workloads": ["crc32/small", "dijkstra/small", "crc32/small"]}`)
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, body)
	}
	var resp batchResponse
	if err := json.Unmarshal([]byte(body), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != 2 || resp.Failed != 0 || resp.Seed != 1 {
		t.Fatalf("batch envelope: %+v", resp)
	}
	for _, item := range resp.Results {
		cl, err := p.Synthesize(context.Background(), workloads.ByName(item.Workload))
		if err != nil {
			t.Fatal(err)
		}
		if item.Source != cl.Source {
			t.Errorf("batch source for %s differs from library clone", item.Workload)
		}
		if item.Report == nil || item.Report.Coverage != cl.Report.Coverage {
			t.Errorf("batch report for %s missing or wrong", item.Workload)
		}
	}
	if st := p.CacheStats(); st.ComputedFor(pipeline.StageSynthesize) != 2 {
		t.Errorf("duplicate batch entries recomputed: %+v", st)
	}

	if code, body := post(`{"suite": "tiny"}`); code != http.StatusOK {
		t.Errorf("suite batch: %d %s", code, body)
	} else {
		var r batchResponse
		if err := json.Unmarshal([]byte(body), &r); err != nil || len(r.Results) != 3 {
			t.Errorf("tiny suite batch returned %d results (%v)", len(r.Results), err)
		}
	}

	// Named workloads come first, then the suite's, each once.
	if code, body := post(`{"workloads":["fft/small1","crc32/small"],"suite":"tiny"}`); code != http.StatusOK {
		t.Errorf("named+suite batch: %d %s", code, body)
	} else {
		var r batchResponse
		if err := json.Unmarshal([]byte(body), &r); err != nil {
			t.Fatal(err)
		}
		var got []string
		for _, item := range r.Results {
			got = append(got, item.Workload)
		}
		if want := []string{"fft/small1", "crc32/small", "dijkstra/small"}; !slices.Equal(got, want) {
			t.Errorf("named+suite batch order %v, want %v", got, want)
		}
	}

	errCases := []struct {
		method, body string
		code         int
	}{
		{"GET", "", http.StatusMethodNotAllowed},
		{"POST", `{`, http.StatusBadRequest},
		{"POST", `{}`, http.StatusBadRequest},
		{"POST", `{"workloads": ["no/such"]}`, http.StatusNotFound},
		{"POST", `{"suite": "bogus"}`, http.StatusBadRequest},
		{"POST", `{"suite":"tiny"} garbage`, http.StatusBadRequest},
	}
	for _, c := range errCases {
		req := httptest.NewRequest(c.method, "/api/v1/batch/synthesize", strings.NewReader(c.body))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != c.code {
			t.Errorf("%s %q: status %d, want %d (%s)", c.method, c.body, rec.Code, c.code, rec.Body.String())
		}
	}
}

// TestServeBackpressure checks the bounded admission queue: when every
// execution slot and queue position is taken, the next request is shed
// with 429 and a Retry-After hint instead of piling up.
func TestServeBackpressure(t *testing.T) {
	p := pipeline.New(pipeline.Options{Workers: 2, Seed: 1})
	s := newServer(p, serverOptions{maxInflight: 1, maxQueue: 1})
	h := s.handler()

	// Occupy the only execution slot and the only queue position.
	if !s.lim.acquire(context.Background()) {
		t.Fatal("could not take the execution slot")
	}
	queued := make(chan bool)
	go func() { queued <- s.lim.acquire(context.Background()) }()
	for s.lim.queued.Load() == 0 { // wait until the queue position is held
	}

	code, body := get(t, h, "/api/v1/synthesize?workload=crc32/small")
	if code != http.StatusTooManyRequests {
		t.Fatalf("saturated server answered %d: %s", code, body)
	}
	req := httptest.NewRequest("GET", "/api/v1/synthesize?workload=crc32/small", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Header().Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}

	// Freeing the slot lets the queued waiter in; traffic flows again.
	s.lim.release()
	if !<-queued {
		t.Fatal("queued waiter was shed")
	}
	s.lim.release()
	if code, body := get(t, h, "/api/v1/synthesize?workload=crc32/small&format=source"); code != http.StatusOK {
		t.Fatalf("drained server answered %d: %s", code, body)
	}

	// A canceled waiter gives its queue position back.
	ctx, cancel := context.WithCancel(context.Background())
	if !s.lim.acquire(context.Background()) {
		t.Fatal("could not retake the slot")
	}
	done := make(chan bool)
	go func() { done <- s.lim.acquire(ctx) }()
	for s.lim.queued.Load() == 0 {
	}
	cancel()
	if <-done {
		t.Fatal("canceled waiter acquired a slot")
	}
	if s.lim.queued.Load() != 0 {
		t.Errorf("canceled waiter leaked a queue position: %d", s.lim.queued.Load())
	}
	s.lim.release()
}

// TestServeClusterStatus checks the cluster endpoint over a real
// dispatched queue, and its 404s without one.
func TestServeClusterStatus(t *testing.T) {
	s, _ := testServer(t)
	if code, body := get(t, s.handler(), "/api/v1/cluster/status"); code != http.StatusNotFound {
		t.Fatalf("no-store status: %d %s", code, body)
	}

	dir := t.TempDir()
	q, err := openQueue(dir)
	if err != nil {
		t.Fatal(err)
	}
	p := pipeline.New(pipeline.Options{Workers: 2, Seed: 1, Store: q.Store()})
	withQueue := newServer(p, serverOptions{queue: q}).handler()
	if code, body := get(t, withQueue, "/api/v1/cluster/status"); code != http.StatusNotFound {
		t.Fatalf("pre-dispatch status: %d %s", code, body)
	}

	var out, errb bytes.Buffer
	if c := run(context.Background(), []string{"dispatch", "-suite", "tiny", "-seed", "1", "-store", dir}, &out, &errb); c != 0 {
		t.Fatalf("dispatch exited %d: %s", c, errb.String())
	}
	code, body := get(t, withQueue, "/api/v1/cluster/status")
	if code != http.StatusOK {
		t.Fatalf("status: %d %s", code, body)
	}
	var st clusterStatus
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatal(err)
	}
	if st.Suite != "tiny" || st.Total != 3 || st.Pending != 3 || st.Done != 0 {
		t.Fatalf("cluster status: %+v", st)
	}

	errb.Reset()
	if c := run(context.Background(), []string{"work", "-store", dir, "-id", "w1"}, &out, &errb); c != 0 {
		t.Fatalf("work exited %d: %s", c, errb.String())
	}
	code, body = get(t, withQueue, "/api/v1/cluster/status")
	if code != http.StatusOK {
		t.Fatalf("status: %d %s", code, body)
	}
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatal(err)
	}
	if st.Done != 3 || st.Pending != 0 || st.Leased != 0 || st.Failed != 0 {
		t.Fatalf("drained cluster status: %+v", st)
	}
}

// TestServeStatsConcurrentWithWork hammers the stats endpoint while
// synthesize and batch handlers are computing, so `go test -race` proves
// the snapshot accessor is synchronization-safe across batch handlers (the
// satellite fix: all stats reads go through one accessor over atomic
// counters).
func TestServeStatsConcurrentWithWork(t *testing.T) {
	s, _ := testServer(t)
	h := s.handler()

	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(3)
		go func() {
			defer wg.Done()
			get(t, h, "/api/v1/synthesize?workload=crc32/small")
		}()
		go func() {
			defer wg.Done()
			req := httptest.NewRequest("POST", "/api/v1/batch/synthesize",
				strings.NewReader(`{"workloads": ["dijkstra/small", "fft/small1"]}`))
			h.ServeHTTP(httptest.NewRecorder(), req)
		}()
		go func() {
			defer wg.Done()
			for j := 0; j < 20; j++ {
				code, body := get(t, h, "/api/v1/stats")
				if code != http.StatusOK {
					t.Errorf("stats under load: %d %s", code, body)
					return
				}
			}
		}()
	}
	wg.Wait()

	code, body := get(t, h, "/api/v1/stats")
	if code != http.StatusOK {
		t.Fatalf("stats after load: %d", code)
	}
	var stats struct {
		Cache pipeline.CacheStats `json:"cache"`
	}
	if err := json.Unmarshal([]byte(body), &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Cache.ComputedFor(pipeline.StageSynthesize) != 3 {
		t.Errorf("concurrent load did not coalesce: %+v", stats.Cache)
	}
}

// drainRun runs the CLI and returns stdout, requiring exit 0.
func drainRun(t *testing.T, args ...string) string {
	t.Helper()
	var out, errb bytes.Buffer
	if code := run(context.Background(), args, &out, &errb); code != 0 {
		t.Fatalf("synth %s exited %d: %s", strings.Join(args, " "), code, errb.String())
	}
	return out.String()
}

// TestRetryAfterSeconds pins the backlog-pricing rule behind the 429
// Retry-After hint.
func TestRetryAfterSeconds(t *testing.T) {
	cases := []struct {
		avg           float64
		queued, slots int
		want          int
	}{
		{0, 5, 2, 1},     // no job history yet: immediate retry
		{2.0, 0, 1, 2},   // just the draining slot ahead
		{2.0, 3, 2, 4},   // ceil(2s * 4 ahead / 2 slots)
		{0.01, 1, 4, 1},  // fast jobs clamp up to a whole second
		{600, 10, 2, 60}, // pathological jobs clamp at a minute
		{1.5, 0, 0, 2},   // a zero-slot limiter prices as one slot
	}
	for _, c := range cases {
		if got := retryAfterSeconds(c.avg, c.queued, c.slots); got != c.want {
			t.Errorf("retryAfterSeconds(%v, %d, %d) = %d, want %d",
				c.avg, c.queued, c.slots, got, c.want)
		}
	}
}

// TestServeRetryAfterTracksJobDuration checks the shed path end to end:
// once the server has observed real job durations, a 429's Retry-After
// prices the current backlog with their mean instead of a flat "1".
func TestServeRetryAfterTracksJobDuration(t *testing.T) {
	p := pipeline.New(pipeline.Options{Workers: 2, Seed: 1})
	s := newServer(p, serverOptions{maxInflight: 1, maxQueue: 1})
	h := s.handler()
	s.jobSeconds.Observe(10)
	s.jobSeconds.Observe(10)

	if !s.lim.acquire(context.Background()) {
		t.Fatal("could not take the execution slot")
	}
	queued := make(chan bool)
	go func() { queued <- s.lim.acquire(context.Background()) }()
	for s.lim.queued.Load() == 0 {
	}

	req := httptest.NewRequest("GET", "/api/v1/synthesize?workload=crc32/small", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("saturated server answered %d: %s", rec.Code, rec.Body.String())
	}
	// One queued request plus the needed slot, priced at 10s over 1 slot.
	if got := rec.Header().Get("Retry-After"); got != "20" {
		t.Errorf("Retry-After = %q, want \"20\"", got)
	}

	s.lim.release()
	if !<-queued {
		t.Fatal("queued waiter was shed")
	}
	s.lim.release()
}
