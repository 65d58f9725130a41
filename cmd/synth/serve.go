package main

import (
	"bytes"
	"context"
	"crypto/subtle"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"sort"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/explore"
	"repro/internal/generate"
	"repro/internal/pipeline"
	"repro/internal/profile"
	"repro/internal/store"
	"repro/internal/telemetry"
	"repro/internal/vm"
	"repro/internal/workloads"
)

// server is the HTTP face of one shared pipeline Runner: every request —
// however many are in flight — submits jobs to the same artifact cache, so
// concurrent clients coalesce onto single computations and a populated
// store (or a warm process) answers without recomputing anything. The
// response bytes for profiles and clone sources are exactly what the
// library API and the CLI produce. Expensive endpoints sit behind a
// bounded admission queue (429 beyond it), and with a token configured
// every /api/v1 route requires bearer authentication.
type server struct {
	p    *pipeline.Pipeline
	r    *experiments.Runner
	opts serverOptions
	lim  *limiter
	// jobSeconds records the wall-clock duration of every admitted
	// expensive-endpoint request; its running mean prices the Retry-After
	// hint shed clients receive.
	jobSeconds *telemetry.Histogram
}

// serverOptions configures the HTTP layer around the shared pipeline.
type serverOptions struct {
	// token, when non-empty, is the shared secret every /api/v1 request
	// must present as "Authorization: Bearer <token>".
	token string
	// maxInflight bounds concurrently executing expensive requests
	// (0 = 2× the pipeline's worker count); maxQueue bounds how many more
	// may wait for a slot before requests are shed with 429. maxQueue 0
	// means shed immediately whenever every slot is busy — it is a real
	// setting, not a sentinel.
	maxInflight int
	maxQueue    int
	// queue, when non-nil, exposes the store's cluster job queue on
	// /api/v1/cluster/status.
	queue *cluster.Queue
	// storeBackend, when non-nil, is served on /api/v1/store/ so remote
	// `synth work -remote` nodes can share this node's store and queue
	// without a shared filesystem.
	storeBackend store.Backend
	// sup, when non-nil, is the embedded worker pool whose status rides
	// along on /api/v1/cluster/status.
	sup *cluster.Supervisor
	// metrics is the node's telemetry registry, exposed on GET /metrics
	// (auth-exempt, like /healthz) and fed by the per-route HTTP
	// middleware. newServer creates one when nil, so the endpoint always
	// answers.
	metrics *telemetry.Registry
	// pprofEnabled mounts net/http/pprof under /debug/pprof/. Unlike
	// /metrics the profiling endpoints sit behind auth: heap and CPU
	// profiles leak far more than counters do.
	pprofEnabled bool
}

// newServer wraps a pipeline for HTTP serving.
func newServer(p *pipeline.Pipeline, opts serverOptions) *server {
	if opts.maxInflight <= 0 {
		opts.maxInflight = 2 * p.Workers()
	}
	if opts.maxQueue < 0 {
		opts.maxQueue = 0
	}
	if opts.metrics == nil {
		opts.metrics = telemetry.NewRegistry()
	}
	return &server{
		p:    p,
		r:    experiments.NewRunner(p),
		opts: opts,
		lim:  newLimiter(opts.maxInflight, opts.maxQueue),
		jobSeconds: opts.metrics.Histogram("synth_job_seconds",
			"Wall-clock seconds of admitted expensive-endpoint jobs.",
			telemetry.DefaultLatencyBuckets),
	}
}

// handler builds the service's route table: cheap introspection endpoints
// are direct, expensive pipeline endpoints go through the admission
// limiter, every route is wrapped in the telemetry middleware, and the
// whole API sits behind the auth check.
func (s *server) handler() http.Handler {
	mux := http.NewServeMux()
	route := func(pattern string, h http.Handler) {
		mux.Handle(pattern, s.instrumented(pattern, h))
	}
	route("/healthz", http.HandlerFunc(s.handleHealthz))
	route("/metrics", http.HandlerFunc(s.handleMetrics))
	route("/api/v1/workloads", http.HandlerFunc(s.handleWorkloads))
	route("/api/v1/profile", s.limited(s.handleProfile))
	route("/api/v1/synthesize", s.limited(s.handleSynthesize))
	route("/api/v1/consolidate", s.limited(s.handleConsolidate))
	route("/api/v1/experiments", s.limited(s.handleExperiments))
	route("/api/v1/explore", s.limited(s.handleExplore))
	route("/api/v1/generate", s.limited(s.handleGenerate))
	route("/api/v1/batch/synthesize", s.limited(s.handleBatchSynthesize))
	route("/api/v1/cluster/status", http.HandlerFunc(s.handleClusterStatus))
	route("/api/v1/stats", http.HandlerFunc(s.handleStats))
	if s.opts.storeBackend != nil {
		// Store ops are cheap I/O, so they bypass the admission limiter —
		// a busy pipeline must not starve the fabric's coordination traffic —
		// but sit behind auth like every other /api/v1 route.
		route("/api/v1/store/", http.StripPrefix("/api/v1/store", store.NewHandler(s.opts.storeBackend)))
	}
	if s.opts.pprofEnabled {
		// The profiling endpoints stay auth-required and unmetered; pprof's
		// own handlers manage their response lifecycle (streaming CPU
		// profiles), so no middleware between them and the client.
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return s.authenticated(mux)
}

// handleMetrics serves the registry in Prometheus text exposition format.
// Like /healthz it is reachable without the bearer token: scrapers are
// infrastructure, and the counters deliberately contain no payload data.
func (s *server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.opts.metrics.WritePrometheus(w)
}

// statusRecorder captures the status code a handler writes, for the
// middleware's status-class label. An unwritten status is the implicit 200.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

// instrumented wraps one route in the telemetry middleware: request count
// by status class, latency histogram, and a server-wide in-flight gauge.
func (s *server) instrumented(routeName string, h http.Handler) http.Handler {
	reg := s.opts.metrics
	seconds := reg.Histogram("synth_http_request_seconds",
		"HTTP request latency, by route.", telemetry.DefaultLatencyBuckets, "route", routeName)
	inFlight := reg.Gauge("synth_http_in_flight", "HTTP requests currently executing.")
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		inFlight.Add(1)
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		h.ServeHTTP(rec, r)
		inFlight.Add(-1)
		seconds.ObserveSince(start)
		reg.Counter("synth_http_requests_total", "HTTP requests served, by route and status class.",
			"route", routeName, "class", fmt.Sprintf("%dxx", rec.status/100)).Inc()
	})
}

// authenticated enforces the shared-secret token on every route except the
// liveness probe and the metrics scrape. Comparison is constant-time; a
// missing or wrong token is 401 with a WWW-Authenticate challenge.
func (s *server) authenticated(h http.Handler) http.Handler {
	if s.opts.token == "" {
		return h
	}
	want := []byte("Bearer " + s.opts.token)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" || r.URL.Path == "/metrics" {
			h.ServeHTTP(w, r)
			return
		}
		got := []byte(r.Header.Get("Authorization"))
		if len(got) != len(want) || subtle.ConstantTimeCompare(got, want) != 1 {
			w.Header().Set("WWW-Authenticate", `Bearer realm="synth"`)
			httpError(w, http.StatusUnauthorized, "missing or invalid bearer token")
			return
		}
		h.ServeHTTP(w, r)
	})
}

// limiter is the expensive-endpoint admission control: maxInflight
// requests execute, up to maxQueue more wait for a slot, and everything
// beyond that is shed immediately with 429 — bounded queueing instead of
// unbounded goroutine pile-up when simulation farms drive the service
// harder than the pipeline can absorb.
type limiter struct {
	slots    chan struct{}
	queued   atomic.Int64
	maxQueue int64
}

// newLimiter builds a limiter with the given execution and queue bounds.
func newLimiter(inflight, queue int) *limiter {
	return &limiter{slots: make(chan struct{}, inflight), maxQueue: int64(queue)}
}

// acquire takes an execution slot, waiting in the bounded queue if
// necessary. It reports false when the queue is full (shed the request) or
// the request was canceled while waiting.
func (l *limiter) acquire(ctx context.Context) bool {
	select {
	case l.slots <- struct{}{}:
		return true
	default:
	}
	if l.queued.Add(1) > l.maxQueue {
		l.queued.Add(-1)
		return false
	}
	defer l.queued.Add(-1)
	select {
	case l.slots <- struct{}{}:
		return true
	case <-ctx.Done():
		return false
	}
}

// release returns an execution slot.
func (l *limiter) release() { <-l.slots }

// limited wraps an expensive handler in the admission limiter. Shed
// requests carry a Retry-After hint derived from the observed mean job
// duration and the current backlog, instead of a flat "1" that makes
// clients hammer a queue that drains in minutes.
func (s *server) limited(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if !s.lim.acquire(r.Context()) {
			if r.Context().Err() != nil {
				return // client gone; nothing useful to write
			}
			avg := 0.0
			if n := s.jobSeconds.Count(); n > 0 {
				avg = s.jobSeconds.Sum() / float64(n)
			}
			ra := retryAfterSeconds(avg, int(s.lim.queued.Load()), cap(s.lim.slots))
			w.Header().Set("Retry-After", strconv.Itoa(ra))
			httpError(w, http.StatusTooManyRequests, "request queue full (%d executing, %d queued); retry later",
				cap(s.lim.slots), s.lim.maxQueue)
			return
		}
		start := time.Now()
		defer func() {
			s.jobSeconds.ObserveSince(start)
			s.lim.release()
		}()
		h(w, r)
	}
}

// retryAfterSeconds estimates how long a shed client should wait before
// retrying: the backlog ahead of it (everything queued plus the slot it
// still needs) divided across the execution slots, priced at the mean
// observed job duration. With no job history the estimate is one second,
// and the result is clamped to [1, 60] so a few pathological jobs never
// push clients into effectively-never retry loops.
func retryAfterSeconds(avgJobSeconds float64, queued, slots int) int {
	if slots < 1 {
		slots = 1
	}
	if avgJobSeconds <= 0 {
		return 1
	}
	est := int(math.Ceil(avgJobSeconds * float64(queued+1) / float64(slots)))
	return min(max(est, 1), 60)
}

// httpError renders an error as a JSON body with the given status.
func httpError(w http.ResponseWriter, status int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}

// writeJSON renders v indented, matching the CLI's JSON style.
func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	enc.Encode(v)
}

// parseBoolParam interprets an optional boolean query parameter: absent is
// false, otherwise strconv.ParseBool semantics (so synthesize=0 and
// synthesize=false mean no).
func parseBoolParam(v string) (bool, error) {
	if v == "" {
		return false, nil
	}
	b, err := strconv.ParseBool(v)
	if err != nil {
		return false, fmt.Errorf("bad boolean parameter %q", v)
	}
	return b, nil
}

// queryWorkload resolves the request's workload parameter.
func queryWorkload(r *http.Request) (*workloads.Workload, int, error) {
	name := r.URL.Query().Get("workload")
	if name == "" {
		return nil, http.StatusBadRequest, errors.New("missing workload parameter")
	}
	w, err := experiments.Lookup(name)
	if err != nil {
		return nil, http.StatusNotFound, err
	}
	return w, 0, nil
}

func (s *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	io.WriteString(w, "ok\n")
}

func (s *server) handleWorkloads(w http.ResponseWriter, r *http.Request) {
	type entry struct {
		Name  string `json:"name"`
		Bench string `json:"bench"`
	}
	var out []entry
	for _, wl := range workloads.All() {
		out = append(out, entry{Name: wl.Name, Bench: wl.Bench})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	writeJSON(w, out)
}

// handleProfile answers with the workload's statistical profile — the same
// bytes `synth profile` writes to stdout.
func (s *server) handleProfile(w http.ResponseWriter, r *http.Request) {
	wl, status, err := queryWorkload(r)
	if err != nil {
		httpError(w, status, "%v", err)
		return
	}
	prof, err := s.p.Profile(r.Context(), wl)
	if err != nil {
		httpError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	var buf bytes.Buffer
	if err := prof.Save(&buf); err != nil {
		httpError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(buf.Bytes())
}

// synthesizeResponse is the JSON envelope of a synthesize request.
type synthesizeResponse struct {
	Workload string      `json:"workload"`
	Seed     int64       `json:"seed"`
	Report   core.Report `json:"report"`
	Source   string      `json:"source"`
}

// handleSynthesize answers with the workload's synthesized clone. With
// format=source the body is the raw HLC source — the same bytes `synth
// synthesize` writes to stdout; the default JSON envelope carries the
// source plus the synthesis report.
func (s *server) handleSynthesize(w http.ResponseWriter, r *http.Request) {
	wl, status, err := queryWorkload(r)
	if err != nil {
		httpError(w, status, "%v", err)
		return
	}
	cl, err := s.p.Synthesize(r.Context(), wl)
	if err != nil {
		httpError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	switch format := r.URL.Query().Get("format"); format {
	case "", "json":
		writeJSON(w, synthesizeResponse{
			Workload: wl.Name,
			Seed:     s.p.Seed(),
			Report:   cl.Report,
			Source:   cl.Source,
		})
	case "source":
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		io.WriteString(w, cl.Source)
	default:
		httpError(w, http.StatusBadRequest, "unknown format %q (want json or source)", format)
	}
}

// handleConsolidate merges the profiles of the comma-separated workloads
// parameter into one proxy profile (core.Consolidate) and answers with the
// merged profile JSON, or — with synthesize=1 — the consolidated clone.
func (s *server) handleConsolidate(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	names := splitList(q.Get("workloads"))
	if len(names) == 0 {
		httpError(w, http.StatusBadRequest, "missing workloads parameter (comma-separated names)")
		return
	}
	name := q.Get("name")
	if name == "" {
		name = "consolidated"
	}
	doSynth, err := parseBoolParam(q.Get("synthesize"))
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	var wls []*workloads.Workload
	for _, n := range names {
		wl, err := experiments.Lookup(n)
		if err != nil {
			httpError(w, http.StatusNotFound, "%v", err)
			return
		}
		wls = append(wls, wl)
	}
	profs, err := pipeline.Map(r.Context(), s.p, wls,
		func(ctx context.Context, wl *workloads.Workload) (*profile.Profile, error) {
			return s.p.Profile(ctx, wl)
		})
	if err != nil {
		httpError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	merged, err := core.Consolidate(name, profs...)
	if err != nil {
		httpError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	if !doSynth {
		var buf bytes.Buffer
		if err := merged.Save(&buf); err != nil {
			httpError(w, http.StatusInternalServerError, "%v", err)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write(buf.Bytes())
		return
	}
	cl, err := s.p.SynthesizeProfile(r.Context(), merged)
	if err != nil {
		httpError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	writeJSON(w, synthesizeResponse{
		Workload: name,
		Seed:     s.p.Seed(),
		Report:   cl.Report,
		Source:   cl.Source,
	})
}

func (s *server) handleExperiments(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	suite := q.Get("suite")
	if suite == "" {
		suite = "quick"
	}
	ws, err := experiments.Suite(suite)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	selected, err := parseOnly(q.Get("only"))
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	var buf bytes.Buffer
	if err := renderExperiments(r.Context(), s.r, ws, selected, &buf); err != nil {
		httpError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	writeJSON(w, map[string]any{
		"suite":  suite,
		"only":   q.Get("only"),
		"output": buf.String(),
	})
}

// readPOST reads the body of a POST endpoint, capped at 1 MiB: a spec or a
// batch is a list of names and numbers, and without the cap one oversized
// POST would buffer unbounded memory while holding an admission slot. It
// answers any other method with 405 and hint, and a failed read with 400
// naming what the body is; ok is false when it has answered.
func readPOST(w http.ResponseWriter, r *http.Request, what, hint string) (body []byte, ok bool) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		httpError(w, http.StatusMethodNotAllowed, "%s", hint)
		return nil, false
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20))
	if err != nil {
		httpError(w, http.StatusBadRequest, "bad %s body: %v", what, err)
		return nil, false
	}
	return body, true
}

// handleExplore evaluates a design-space sweep: the POST body is the
// same JSON spec `synth explore -spec` consumes, and the response is the
// full ranked report. The whole sweep occupies one admission slot, and
// every simulation is a cached pipeline artifact, so repeated or
// overlapping sweep requests recompute only what no earlier request (or
// the store) has seen.
func (s *server) handleExplore(w http.ResponseWriter, r *http.Request) {
	body, ok := readPOST(w, r, "spec", "POST a sweep spec JSON body (see docs/explore.md)")
	if !ok {
		return
	}
	sw, err := explore.ParseSpec(body)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	rep, err := explore.Run(r.Context(), s.p, sw)
	if err != nil {
		if r.Context().Err() != nil {
			return // client gone mid-sweep
		}
		httpError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	writeJSON(w, rep)
}

// handleGenerate runs directed workload generation: the POST body is the
// same JSON spec `synth generate -spec` consumes, and the response is the
// full generate.Report (requested vs. achieved features per point,
// coverage before and after). The whole run occupies one admission slot;
// the report and every underlying synthesis are cached pipeline
// artifacts, so a repeated spec is answered from the store.
func (s *server) handleGenerate(w http.ResponseWriter, r *http.Request) {
	body, ok := readPOST(w, r, "spec", "POST a generation spec JSON body (see docs/generate.md)")
	if !ok {
		return
	}
	spec, err := generate.ParseSpec(body)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	rep, err := generate.Run(r.Context(), s.p, spec)
	if err != nil {
		if r.Context().Err() != nil {
			return // client gone mid-run
		}
		httpError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	writeJSON(w, rep)
}

// batchRequest is the POST body of /api/v1/batch/synthesize: an explicit
// workload list, a suite name, or both (the named workloads, then the
// suite's, each once).
type batchRequest struct {
	Workloads []string `json:"workloads"`
	Suite     string   `json:"suite"`
}

// batchItem is one workload's outcome in a batch response. Failures are
// per-item — one broken workload does not void the rest of the batch.
type batchItem struct {
	Workload string       `json:"workload"`
	Report   *core.Report `json:"report,omitempty"`
	Source   string       `json:"source,omitempty"`
	Error    string       `json:"error,omitempty"`
}

// batchResponse is the envelope of a batch synthesize call.
type batchResponse struct {
	Seed    int64       `json:"seed"`
	Results []batchItem `json:"results"`
	Failed  int         `json:"failed"`
}

// handleBatchSynthesize synthesizes many clones in one request, fanned out
// on the shared pipeline's worker pool. Each source in the response is
// byte-identical to the single-workload endpoint's; items come in
// batchRequest order. The whole batch occupies one admission slot, so a
// farm driving batches cannot starve interactive requests any worse than
// one request can.
func (s *server) handleBatchSynthesize(w http.ResponseWriter, r *http.Request) {
	body, ok := readPOST(w, r, "batch", "POST a JSON body {workloads:[...]} or {suite:\"quick\"}")
	if !ok {
		return
	}
	var req batchRequest
	if err := json.Unmarshal(body, &req); err != nil {
		httpError(w, http.StatusBadRequest, "bad batch body: %v", err)
		return
	}
	// The named workloads come first, then the suite's.
	wls, err := experiments.Resolve(req.Suite, req.Workloads, true)
	if err != nil {
		status := http.StatusBadRequest
		if errors.Is(err, experiments.ErrUnknownWorkload) {
			status = http.StatusNotFound
		}
		httpError(w, status, "%v", err)
		return
	}
	if len(wls) == 0 {
		httpError(w, http.StatusBadRequest, "empty batch: name workloads or a suite")
		return
	}
	// Failures are captured per item, never returned, so Map cannot cancel
	// the batch's siblings.
	items, _ := pipeline.Map(r.Context(), s.p, wls,
		func(ctx context.Context, wl *workloads.Workload) (batchItem, error) {
			cl, err := s.p.Synthesize(ctx, wl)
			if err != nil {
				return batchItem{Workload: wl.Name, Error: err.Error()}, nil
			}
			rep := cl.Report
			return batchItem{Workload: wl.Name, Report: &rep, Source: cl.Source}, nil
		})
	resp := batchResponse{Seed: s.p.Seed(), Results: items}
	for _, it := range items {
		if it.Error != "" {
			resp.Failed++
		}
	}
	if err := r.Context().Err(); err != nil {
		return // client gone mid-batch
	}
	writeJSON(w, resp)
}

// handleClusterStatus reports the store's cluster job queue — totals,
// per-state counts, active workers — plus the embedded pool's supervisor
// status when one is running. 404 without a store, or before any dispatch
// when there is no embedded pool to report either.
func (s *server) handleClusterStatus(w http.ResponseWriter, r *http.Request) {
	if s.opts.queue == nil {
		httpError(w, http.StatusNotFound, "no cluster queue (serve started without -store)")
		return
	}
	st, err := buildClusterStatus(s.opts.queue)
	if err != nil {
		httpError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	if s.opts.sup != nil {
		ns := s.opts.sup.Status()
		if st == nil {
			st = &clusterStatus{} // idle node awaiting its first dispatch
		}
		st.Node = &ns
	}
	if st == nil {
		httpError(w, http.StatusNotFound, "nothing dispatched (run \"synth dispatch -store ...\")")
		return
	}
	writeJSON(w, st)
}

// handleStats reports the shared pipeline's artifact-cache statistics.
func (s *server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, map[string]any{
		"cache":   s.p.CacheStats(),
		"workers": s.p.Workers(),
		"seed":    s.p.Seed(),
	})
}

// cmdServe runs the HTTP service until the context is canceled.
func cmdServe(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("synth serve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var c commonFlags
	addCommon(fs, &c)
	addr := fs.String("addr", "localhost:8091", "listen address")
	token := fs.String("token", "", "shared-secret bearer token required on every /api/v1 request (empty = unauthenticated)")
	maxInflight := fs.Int("max-inflight", 0, "concurrently executing expensive requests (0 = 2x worker pool)")
	maxQueue := fs.Int("max-queue", 64, "requests allowed to wait for a slot before 429s are shed (0 = shed immediately when all slots are busy)")
	node := fs.String("node", "", "node name for the embedded worker pool (default: node-<pid>)")
	poolMin := fs.Int("pool-min", 1, "embedded pool floor: workers kept alive even when the queue is idle (with -pool-max)")
	poolMax := fs.Int("pool-max", 0, "embedded pool ceiling: autoscale up to this many workers draining the cluster queue (0 = no embedded pool)")
	jobTimeout := fs.Duration("job-timeout", 0, "per-job execution bound for the embedded pool; an overrunning job is acked as failed (0 = unbounded)")
	leaseTTL := fs.Duration("lease-ttl", cluster.DefaultLeaseTTL, "lease expiry the embedded pool enforces and heartbeats within (with -pool-max)")
	pprofOn := fs.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/ (requires the bearer token when one is set)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	reg := telemetry.NewRegistry()
	c.metrics = reg // the shared pipeline's stage metrics land in the node registry
	opts := serverOptions{token: *token, maxInflight: *maxInflight, maxQueue: *maxQueue,
		metrics: reg, pprofEnabled: *pprofOn}
	registerVMMetrics(reg)
	var (
		p   *pipeline.Pipeline
		err error
	)
	if c.storeDir != "" {
		if opts.queue, err = openQueue(c.storeDir); err != nil {
			return err
		}
		opts.storeBackend = opts.queue.Store()
		cluster.RegisterQueueGauges(reg, opts.queue)
		p = c.pipelineWith(opts.storeBackend)
	} else if p, err = c.pipeline(); err != nil {
		return err
	}
	// Supervisor events from concurrent workers funnel through one writer
	// goroutine, so log lines never interleave mid-record.
	events := telemetry.NewSink(stderr, "synth serve: ")
	defer events.Close()
	var supDone chan error
	if *poolMax > 0 {
		if opts.queue == nil {
			return fmt.Errorf("-pool-max requires -store (the embedded pool drains the store's cluster queue)")
		}
		if *node == "" {
			*node = fmt.Sprintf("node-%d", os.Getpid())
		}
		opts.sup, err = cluster.NewSupervisor(opts.queue, cluster.SupervisorOptions{
			Node:            *node,
			Min:             *poolMin,
			Max:             *poolMax,
			TTL:             *leaseTTL,
			JobTimeout:      *jobTimeout,
			PipelineWorkers: c.workers,
			OnEvent:         func(e cluster.Event) { events.Emit(e) },
			Telemetry:       reg,
		})
		if err != nil {
			return err
		}
		supDone = make(chan error, 1)
		go func() { supDone <- opts.sup.Run(ctx) }()
	}
	srv := &http.Server{
		Addr:        *addr,
		Handler:     newServer(p, opts).handler(),
		BaseContext: func(net.Listener) context.Context { return ctx },
		// The admission limiter only bounds handler execution; connections
		// that never finish their headers would each pin a goroutine
		// forever without these.
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		<-ctx.Done()
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(shutdownCtx)
	}()
	pool := "none"
	if opts.sup != nil {
		pool = fmt.Sprintf("%s %d-%d", *node, *poolMin, *poolMax)
	}
	fmt.Fprintf(stderr, "synth serve: listening on http://%s (store: %s, pool: %s)\n",
		*addr, storeDesc(c.storeDir), pool)
	err = srv.ListenAndServe()
	if errors.Is(err, http.ErrServerClosed) {
		<-done
		if supDone != nil {
			// The serve context is canceled; wait for the pool to drain so
			// no lease outlives the process unreleased.
			<-supDone
		}
		return nil
	}
	return err
}

// registerVMMetrics exposes the process-wide interpreter counters: total
// dynamic instructions and a live MIPS gauge (the rate between scrapes).
func registerVMMetrics(reg *telemetry.Registry) {
	reg.CounterFunc("synth_vm_instrs_total",
		"Dynamic instructions executed by every VM run in this process.", vm.ExecutedInstrs)
	rate := telemetry.Rate(vm.ExecutedInstrs)
	reg.GaugeFunc("synth_vm_mips",
		"VM execution rate between scrapes, in millions of instructions per second.",
		func() float64 { return rate() / 1e6 })
}

// storeDesc renders the store configuration for the startup log line.
func storeDesc(dir string) string {
	if dir == "" {
		return "memory-only"
	}
	return dir
}
