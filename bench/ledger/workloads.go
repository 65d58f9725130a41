package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"repro/internal/compiler"
	"repro/internal/cpu"
	"repro/internal/experiments"
	"repro/internal/explore"
	"repro/internal/isa"
	"repro/internal/pipeline"
	"repro/internal/store"
	"repro/internal/telemetry"
	"repro/internal/workloads"
)

// workers is the pipeline pool size of every run, matching the two cores
// the benchmark was sized on. Each workload is a closed loop: one pass at a
// time, at most this many goroutines inside it.
const workers = 2

// workloadNames lists the workloads in the order a full run executes them.
var workloadNames = []string{"clone_cold", "paper_figs", "explore_cold", "explore_warm"}

// passResult is what one measured pass reports.
type passResult struct {
	ops   []float64          // operation latencies, seconds
	items int                // items completed (clones, simulations, artifacts read)
	wall  float64            // measured seconds of the pass
	layer map[string]float64 // per-layer raw values: counts, and seconds for *_pct
	extra map[string]float64 // deterministic outputs printed beside the metrics
}

// workload is one benchmark workload: a set-up the harness repeats and
// times, and a measured pass it repeats until the run's time is spent.
// Correctness gates live in pass: a pass returns an error when its outputs
// differ from the previous pass's or its counts are wrong.
type workload interface {
	setup(h *harness) error
	pass(h *harness) (passResult, error)
	close()
}

// newWorkload builds the named workload over suite (nil = its default).
func newWorkload(name string, suite []*workloads.Workload) (workload, error) {
	switch name {
	case "clone_cold":
		if suite == nil {
			suite = experiments.Quick()
		}
		return &cloneCold{suite: suite}, nil
	case "paper_figs":
		if suite == nil {
			suite = experiments.Quick()
		}
		return &paperFigs{suite: suite}, nil
	case "explore_cold", "explore_warm":
		sw, err := sweep(suite)
		if err != nil {
			return nil, err
		}
		if name == "explore_cold" {
			return &exploreCold{sw: sw}, nil
		}
		return &exploreWarm{sw: sw}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (known: %v)", name, workloadNames)
}

// sweep resolves the explore workloads' sweep: the calibration preset's 48
// design points over the tiny suite at -O2, so every program is simulated
// on 48 configurations while a cold pass stays near one second.
func sweep(suite []*workloads.Workload) (*explore.Sweep, error) {
	spec := explore.Calibration()
	spec.Suite = "tiny"
	if suite != nil {
		spec.Suite = ""
		for _, w := range suite {
			spec.Workloads = append(spec.Workloads, w.Name)
		}
	}
	return spec.Resolve()
}

// harness carries one run's settings and telemetry into the workloads.
type harness struct {
	ctx    context.Context
	seed   int64
	dir    string // scratch directory for stores
	reg    *telemetry.Registry
	tracer *telemetry.Tracer
	traced bool // the current pass records telemetry
	dirs   int
}

// tempDir returns a fresh directory path under the run's scratch directory.
func (h *harness) tempDir() string {
	h.dirs++
	return filepath.Join(h.dir, fmt.Sprint(h.dirs))
}

// options returns the pipeline options of a pass over st (nil = no store).
// Traced passes hand the program its registry and tracer.
func (h *harness) options(st store.Backend) pipeline.Options {
	o := pipeline.Options{Workers: workers, Seed: h.seed, Store: st}
	if h.traced {
		o.Metrics, o.Tracer = h.reg, h.tracer
	}
	return o
}

// span starts a benchmark span around one public call in traced passes.
func (h *harness) span(ctx context.Context, name string) (context.Context, *telemetry.Span) {
	if !h.traced {
		return ctx, nil
	}
	return h.tracer.Start(ctx, name)
}

// snapshot is the layer counters at one instant.
type snapshot struct {
	cache          pipeline.CacheStats
	stages         map[string]float64
	client, server storeCounts
	remote         store.RemoteStats
}

// snap reads the counters of a pass's pipeline and stores. client is the
// store the pipeline talks to, server the filesystem store behind it (the
// same decorator for a local store); remote is nil unless it goes over HTTP.
func (h *harness) snap(p *pipeline.Pipeline, client, server *timedBackend, remote *store.Remote) (snapshot, error) {
	s := snapshot{cache: p.CacheStats(), client: client.counts(), server: server.counts()}
	if remote != nil {
		s.remote = remote.Stats()
	}
	var err error
	if h.traced {
		s.stages, err = stageSeconds(h.reg)
	}
	return s, err
}

// layers turns two snapshots into the generic per-layer values of a pass.
func layers(a, b snapshot) map[string]float64 {
	c := b.cache.Sub(a.cache)
	m := map[string]float64{
		"pipeline.cache_hits":  float64(c.Hits),
		"pipeline.disk_hits":   float64(c.DiskHits),
		"pipeline.disk_errors": float64(c.DiskErrors),
	}
	for st := pipeline.StageParse; st <= pipeline.StageSimulate; st++ {
		m["pipeline.computed."+st.String()] = float64(c.ComputedFor(st))
	}
	stage := func(name string) float64 { return b.stages[name] - a.stages[name] }
	m["core.synthesize_pct"] = stage("synthesize")
	m["profile.collect_pct"] = stage("profile")
	m["compiler.compile_pct"] = stage("compile")
	m["pipeline.validate_pct"] = stage("validate")
	m["pipeline.simulate_pct"] = stage("simulate")
	cl, sv := b.client.sub(a.client), b.server.sub(a.server)
	m["store.put_count"] = float64(cl.putCount)
	m["store.put_bytes"] = float64(cl.putBytes)
	m["store.put_pct"] = cl.putSec
	m["store.wip_pct"] = cl.wipSec
	m["store.get_count"] = float64(cl.getCount)
	m["store.get_bytes"] = float64(cl.getBytes)
	m["store.get_pct"] = cl.getSec
	m["store.fs_get_pct"] = sv.getSec
	m["store.remote_get_count"] = float64(b.remote.Requests["get"] - a.remote.Requests["get"])
	_, errsB := b.remote.Total()
	_, errsA := a.remote.Total()
	m["store.remote_errors"] = float64(errsB - errsA)
	return m
}

// openLocal opens a fresh filesystem store wrapped in the timing decorator.
func openLocal(dir string) (*timedBackend, error) {
	fs, err := store.Open(dir)
	if err != nil {
		return nil, err
	}
	return &timedBackend{Backend: fs}, nil
}

// cloneChain runs the paper's per-workload flow in order — compile the
// original at the profiling point, profile it, synthesize the clone,
// validate it — and returns the clone.
func cloneChain(ctx context.Context, h *harness, p *pipeline.Pipeline, w *workloads.Workload) (*pipeline.Clone, uint64, error) {
	call := func(name string, f func(context.Context) error) error {
		ctx, span := h.span(ctx, "bench."+name)
		span.SetAttr("workload", w.Name)
		defer span.End()
		return f(ctx)
	}
	var dyn uint64
	var cl *pipeline.Clone
	err := call("compile", func(ctx context.Context) error {
		_, err := p.Compile(ctx, w, isa.AMD64, compiler.O0)
		return err
	})
	if err == nil {
		err = call("profile", func(ctx context.Context) error {
			prof, err := p.Profile(ctx, w)
			if err == nil {
				dyn = prof.TotalDyn
			}
			return err
		})
	}
	if err == nil {
		err = call("synthesize", func(ctx context.Context) (err error) {
			cl, err = p.Synthesize(ctx, w)
			return err
		})
	}
	if err == nil {
		err = call("validate", func(ctx context.Context) error { return p.Validate(ctx, w) })
	}
	return cl, dyn, err
}

// cloneCold clones the quick suite cold: every pass gets a fresh pipeline
// over a fresh local store and drives each workload's chain itself, two
// chains at a time. An operation is one workload's chain; an item is one
// clone.
type cloneCold struct {
	suite   []*workloads.Workload
	sources []string // previous pass's clone sources, suite order
}

// setup warms the process up with one cold chain over the tiny suite.
func (b *cloneCold) setup(h *harness) error {
	st, err := openLocal(h.tempDir())
	if err != nil {
		return err
	}
	p := pipeline.New(pipeline.Options{Workers: workers, Seed: h.seed, Store: st})
	return pipeline.ForEach(h.ctx, p, experiments.Tiny(), func(ctx context.Context, w *workloads.Workload) error {
		_, _, err := cloneChain(ctx, h, p, w)
		return err
	})
}

func (b *cloneCold) pass(h *harness) (passResult, error) {
	st, err := openLocal(h.tempDir())
	if err != nil {
		return passResult{}, err
	}
	p := pipeline.New(h.options(st))
	before, err := h.snap(p, st, st, nil)
	if err != nil {
		return passResult{}, err
	}
	n := len(b.suite)
	lat := make([]float64, n)
	sources := make([]string, n)
	var dyn, truncated atomic.Uint64
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	start := time.Now()
	err = pipeline.ForEach(h.ctx, p, idx, func(ctx context.Context, i int) error {
		t := time.Now()
		cl, d, err := cloneChain(ctx, h, p, b.suite[i])
		if err != nil {
			return err
		}
		lat[i] = time.Since(t).Seconds()
		sources[i] = cl.Source
		dyn.Add(d)
		if cl.Report.Truncated {
			truncated.Add(1)
		}
		return nil
	})
	wall := time.Since(start).Seconds()
	if err != nil {
		return passResult{}, err
	}
	after, err := h.snap(p, st, st, nil)
	if err != nil {
		return passResult{}, err
	}
	cs := after.cache.Sub(before.cache)
	if got := cs.ComputedFor(pipeline.StageSynthesize); got != uint64(n) {
		return passResult{}, fmt.Errorf("clone_cold: computed synthesize=%d, want %d", got, n)
	}
	if cs.DiskErrors != 0 {
		return passResult{}, fmt.Errorf("clone_cold: %d disk errors", cs.DiskErrors)
	}
	if b.sources != nil {
		for i, src := range sources {
			if src != b.sources[i] {
				return passResult{}, fmt.Errorf("clone_cold: %s clone source differs between passes", b.suite[i].Name)
			}
		}
	}
	b.sources = sources
	l := layers(before, after)
	l["core.truncated"] = float64(truncated.Load())
	l["profile.dyn"] = float64(dyn.Load())
	return passResult{ops: lat, items: n, wall: wall, layer: l}, nil
}

func (b *cloneCold) close() {}

// paperFigs regenerates Fig. 10 and Fig. 11 on the quick suite. Set-up
// compiles every original and clone the figures need, so a pass is the
// timing simulations alone, on both the out-of-order and the EPIC models.
// An operation is one Fig. 10 plus Fig. 11; an item is one simulation.
type paperFigs struct {
	suite []*workloads.Workload
	p     *pipeline.Pipeline
	prev  []byte // previous pass's figures, JSON
}

func (b *paperFigs) setup(h *harness) error {
	type job struct {
		w     *workloads.Workload
		isa   *isa.Desc
		level compiler.OptLevel
	}
	var jobs []job
	seen := map[*isa.Desc]bool{}
	for _, m := range cpu.Machines {
		if seen[m.ISA] {
			continue
		}
		seen[m.ISA] = true
		for _, l := range compiler.Levels {
			for _, w := range b.suite {
				jobs = append(jobs, job{w, m.ISA, l})
			}
		}
	}
	b.p = pipeline.New(pipeline.Options{Workers: workers, Seed: h.seed})
	return pipeline.ForEach(h.ctx, b.p, jobs, func(ctx context.Context, j job) error {
		_, err := b.p.PairAt(ctx, j.w, j.isa, j.level)
		return err
	})
}

func (b *paperFigs) pass(h *harness) (passResult, error) {
	r := experiments.NewRunner(b.p)
	before, err := h.snap(b.p, nil, nil, nil)
	if err != nil {
		return passResult{}, err
	}
	ctx := h.ctx
	start := time.Now()
	sctx, span := h.span(ctx, "experiments.Fig10")
	f10, err := r.Fig10(sctx, b.suite)
	span.End()
	t10 := time.Since(start).Seconds()
	if err != nil {
		return passResult{}, err
	}
	sctx, span = h.span(ctx, "experiments.Fig11")
	f11, err := r.Fig11(sctx, b.suite)
	span.End()
	wall := time.Since(start).Seconds()
	if err != nil {
		return passResult{}, err
	}
	after, err := h.snap(b.p, nil, nil, nil)
	if err != nil {
		return passResult{}, err
	}
	out, err := json.Marshal([]any{f10, f11})
	if err != nil {
		return passResult{}, err
	}
	if b.prev != nil && !bytes.Equal(out, b.prev) {
		return passResult{}, fmt.Errorf("paper_figs: figures differ between passes")
	}
	b.prev = out
	l := layers(before, after)
	l["experiments.fig10_pct"] = t10
	l["experiments.fig11_pct"] = wall - t10
	sims := 2 * len(b.suite) * (len(experiments.Fig10L1Sizes) + len(cpu.Machines)*len(compiler.Levels))
	return passResult{ops: []float64{wall}, items: sims, wall: wall, layer: l,
		extra: map[string]float64{
			"fig10_cpi_corr": f10.Correlation,
			"fig11_err_avg":  f11.AvgSpeedupErr,
			"fig11_err_max":  f11.MaxSpeedupErr,
		}}, nil
}

func (b *paperFigs) close() {}

// pairAll compiles every sweep workload and its clone at the sweep's ISA
// and levels, the work that precedes simulation.
func pairAll(ctx context.Context, p *pipeline.Pipeline, sw *explore.Sweep) error {
	target := sw.Points[0].Config().ISA
	type job struct {
		w     *workloads.Workload
		level compiler.OptLevel
	}
	var jobs []job
	for _, w := range sw.Workloads {
		for _, l := range sw.Levels {
			jobs = append(jobs, job{w, l})
		}
	}
	return pipeline.ForEach(ctx, p, jobs, func(ctx context.Context, j job) error {
		_, err := p.PairAt(ctx, j.w, target, j.level)
		return err
	})
}

// simInstrs sums the simulated instructions of every sweep cell, original
// and clone, from the pipeline's cache (the pass already computed them).
func simInstrs(ctx context.Context, p *pipeline.Pipeline, sw *explore.Sweep) (float64, error) {
	var total uint64
	for _, pt := range sw.Points {
		for _, w := range sw.Workloads {
			for _, l := range sw.Levels {
				sp, err := p.SimulatePair(ctx, w, pt.Config().ISA, l, pt.Config(), sw.Spec.MaxInstrs)
				if err != nil {
					return 0, err
				}
				total += sp.Orig.Instrs + sp.Syn.Instrs
			}
		}
	}
	return float64(total), nil
}

// sims is the number of simulations one sweep runs.
func sims(sw *explore.Sweep) int {
	return 2 * len(sw.Points) * len(sw.Workloads) * len(sw.Levels)
}

// runSweep times explore.Run inside a benchmark span and checks its report
// against want (nil = first pass); it returns the report's JSON.
func runSweep(h *harness, p *pipeline.Pipeline, sw *explore.Sweep, want []byte) ([]byte, float64, *explore.Report, error) {
	ctx, span := h.span(h.ctx, "explore.Run")
	start := time.Now()
	rep, err := explore.Run(ctx, p, sw)
	wall := time.Since(start).Seconds()
	span.End()
	if err != nil {
		return nil, 0, nil, err
	}
	out, err := json.Marshal(rep)
	if err != nil {
		return nil, 0, nil, err
	}
	if want != nil && !bytes.Equal(out, want) {
		return nil, 0, nil, fmt.Errorf("explore report differs from the first sweep's")
	}
	return out, wall, rep, nil
}

// exploreCold runs the sweep with nothing simulated yet: every pass gets a
// fresh pipeline over a fresh copy of the store set-up filled with the
// compiled originals and clones, so the pass is simulation and its store
// writes. An operation is one explore.Run; an item is one simulation.
type exploreCold struct {
	sw   *explore.Sweep
	base string // store directory holding the compiled pairs
	prev []byte
}

func (b *exploreCold) setup(h *harness) error {
	b.base = h.tempDir()
	st, err := store.Open(b.base)
	if err != nil {
		return err
	}
	return pairAll(h.ctx, pipeline.New(pipeline.Options{Workers: workers, Seed: h.seed, Store: st}), b.sw)
}

func (b *exploreCold) pass(h *harness) (passResult, error) {
	dir := h.tempDir()
	if err := copyDir(b.base, dir); err != nil {
		return passResult{}, err
	}
	st, err := openLocal(dir)
	if err != nil {
		return passResult{}, err
	}
	p := pipeline.New(h.options(st))
	if err := pairAll(h.ctx, p, b.sw); err != nil {
		return passResult{}, err
	}
	before, err := h.snap(p, st, st, nil)
	if err != nil {
		return passResult{}, err
	}
	out, wall, rep, err := runSweep(h, p, b.sw, b.prev)
	if err != nil {
		return passResult{}, fmt.Errorf("explore_cold: %w", err)
	}
	b.prev = out
	after, err := h.snap(p, st, st, nil)
	if err != nil {
		return passResult{}, err
	}
	cs := after.cache.Sub(before.cache)
	if got := cs.ComputedFor(pipeline.StageSimulate); got != uint64(sims(b.sw)) {
		return passResult{}, fmt.Errorf("explore_cold: computed simulate=%d, want %d", got, sims(b.sw))
	}
	if cs.DiskErrors != 0 {
		return passResult{}, fmt.Errorf("explore_cold: %d disk errors", cs.DiskErrors)
	}
	l := layers(before, after)
	l["explore.run_s"] = wall
	if h.traced {
		if l["explore.sim_instrs"], err = simInstrs(h.ctx, p, b.sw); err != nil {
			return passResult{}, err
		}
	}
	return passResult{ops: []float64{wall}, items: sims(b.sw), wall: wall, layer: l,
		extra: map[string]float64{"sweep_cpi_corr": rep.Correlation}}, nil
}

func (b *exploreCold) close() {}

// exploreWarm reads the sweep back from a store another node holds: set-up
// fills a local store with one cold sweep and serves it over HTTP the way
// `synth serve` mounts it; every pass is a fresh pipeline over a remote
// client, so every simulation comes back as a remote read and nothing is
// computed. An operation is one explore.Run; an item is one artifact read.
type exploreWarm struct {
	sw     *explore.Sweep
	fs     *timedBackend // the served store
	report []byte        // the cold fill's report
	srv    *httptest.Server
}

func (b *exploreWarm) setup(h *harness) error {
	fs, err := openLocal(h.tempDir())
	if err != nil {
		return err
	}
	p := pipeline.New(pipeline.Options{Workers: workers, Seed: h.seed, Store: fs})
	if err := pairAll(h.ctx, p, b.sw); err != nil {
		return err
	}
	out, _, _, err := runSweep(h, p, b.sw, nil)
	if err != nil {
		return err
	}
	b.fs, b.report = fs, out
	return nil
}

func (b *exploreWarm) pass(h *harness) (passResult, error) {
	if b.srv == nil {
		mux := http.NewServeMux()
		mux.Handle("/api/v1/store/", http.StripPrefix("/api/v1/store", store.NewHandler(b.fs)))
		b.srv = httptest.NewServer(mux)
	}
	remote, err := store.OpenRemote(b.srv.URL+"/api/v1/store", "")
	if err != nil {
		return passResult{}, err
	}
	client := &timedBackend{Backend: remote}
	p := pipeline.New(h.options(client))
	before, err := h.snap(p, client, b.fs, remote)
	if err != nil {
		return passResult{}, err
	}
	_, wall, rep, err := runSweep(h, p, b.sw, b.report)
	if err != nil {
		return passResult{}, fmt.Errorf("explore_warm: %w", err)
	}
	after, err := h.snap(p, client, b.fs, remote)
	if err != nil {
		return passResult{}, err
	}
	cs := after.cache.Sub(before.cache)
	var computed uint64
	for _, n := range cs.Computed {
		computed += n
	}
	if cs.DiskHits != uint64(sims(b.sw)) || computed != 0 || cs.DiskErrors != 0 {
		return passResult{}, fmt.Errorf("explore_warm: %d disk hits (want %d), %d computed, %d disk errors",
			cs.DiskHits, sims(b.sw), computed, cs.DiskErrors)
	}
	l := layers(before, after)
	if h.traced {
		if l["explore.sim_instrs"], err = simInstrs(h.ctx, p, b.sw); err != nil {
			return passResult{}, err
		}
	}
	return passResult{ops: []float64{wall}, items: int(cs.DiskHits), wall: wall, layer: l,
		extra: map[string]float64{"sweep_cpi_corr": rep.Correlation}}, nil
}

func (b *exploreWarm) close() {
	if b.srv != nil {
		b.srv.Close()
	}
}

// copyDir copies the regular files of a store directory tree.
func copyDir(from, to string) error {
	return filepath.WalkDir(from, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(from, path)
		if err != nil {
			return err
		}
		dst := filepath.Join(to, rel)
		if d.IsDir() {
			return os.MkdirAll(dst, 0o755)
		}
		src, err := os.Open(path)
		if err != nil {
			return err
		}
		defer src.Close()
		out, err := os.Create(dst)
		if err != nil {
			return err
		}
		if _, err := io.Copy(out, src); err != nil {
			out.Close()
			return err
		}
		return out.Close()
	})
}
