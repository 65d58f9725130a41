package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"repro/internal/telemetry"
	"repro/internal/workloads"
)

// setupReps is how many times a run repeats its set-up; setup_s is the
// median.
const setupReps = 3

// runConfig is one workload run inside a child process.
type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	workDir  string // parent of the run's scratch directory
	traceDir string // where a traced run writes its Chrome trace
	// suite and maxPasses shrink a run for tests: a non-nil suite replaces
	// the workload's, and a positive maxPasses stops after that many passes
	// whatever the time.
	suite     []*workloads.Workload
	maxPasses int
}

// report is what a child hands its parent: the result line plus the
// deterministic outputs and sample counts printed beside it.
type report struct {
	Result result             `json:"result"`
	Extra  map[string]float64 `json:"extra,omitempty"`
	Error  string             `json:"error,omitempty"`
}

// run executes one workload: set-up setupReps times, then measured passes
// until cfg.seconds have passed. An untraced run reports the end-to-end
// metrics; a traced run alternates untraced and traced passes and reports
// the per-layer metrics. Set-up and operation timings are scaled to
// reference-host time by the probes around them (see probe.go). A failing
// operation or correctness gate ends the run with Correct false and the
// error.
func run(ctx context.Context, cfg runConfig, log io.Writer) (report, error) {
	rep := report{Result: result{Metrics: map[string]metricValue{}}, Extra: map[string]float64{}}
	if err := os.MkdirAll(cfg.workDir, 0o755); err != nil {
		return rep, err
	}
	dir, err := os.MkdirTemp(cfg.workDir, cfg.workload+"-")
	if err != nil {
		return rep, err
	}
	defer os.RemoveAll(dir)
	h := &harness{ctx: ctx, seed: cfg.seed, dir: dir}
	if cfg.trace {
		h.reg = telemetry.NewRegistry()
		h.tracer = telemetry.NewTracer(1 << 16)
	}
	b, err := newWorkload(cfg.workload, cfg.suite)
	if err != nil {
		return rep, err
	}
	defer b.close()

	fail := func(err error) (report, error) {
		rep.Result.Attempted++
		rep.Result.Failed++
		rep.Error = err.Error()
		return rep, err
	}
	pb := newProber()
	var probes []float64
	probeNow := func() float64 {
		v := pb.measure()
		probes = append(probes, v)
		return v
	}
	// scaleAround converts a timing taken between two probes into
	// reference-host time.
	scaleAround := func(before, after float64) float64 {
		return probeRefSeconds * 2 / (before + after)
	}

	var setups, rawSetups []float64
	prev := probeNow()
	for i := 0; i < setupReps; i++ {
		start := time.Now()
		if err := b.setup(h); err != nil {
			return fail(fmt.Errorf("%s set-up: %w", cfg.workload, err))
		}
		raw := time.Since(start).Seconds()
		next := probeNow()
		rawSetups = append(rawSetups, raw)
		setups = append(setups, raw*scaleAround(prev, next))
		prev = next
	}
	fmt.Fprintf(log, "ledger: %s set-up %.3fs (median of %d)\n", cfg.workload, median(rawSetups), setupReps)

	type donePass struct {
		passResult
		traced bool
	}
	var (
		ops, rawOps, tracedOps []float64
		items                  int
		wall, tracedWall       float64 // reference-host seconds; raw seconds
		passes, tracedRuns     int
		layer                  = map[string]float64{}
		pending                []donePass // passes since the last probe
	)
	lastProbe := time.Now()
	settle := func() {
		next := probeNow()
		sc := scaleAround(prev, next)
		for _, d := range pending {
			for _, op := range d.ops {
				if d.traced {
					tracedOps = append(tracedOps, op*sc)
				} else {
					ops = append(ops, op*sc)
					rawOps = append(rawOps, op)
				}
			}
			if !d.traced {
				items += d.items
				wall += d.wall * sc
			}
		}
		pending, prev, lastProbe = nil, next, time.Now()
	}
	start := time.Now()
	for pass := 0; ; pass++ {
		if cfg.maxPasses > 0 && pass >= cfg.maxPasses {
			break
		}
		if cfg.maxPasses == 0 && time.Since(start).Seconds() >= cfg.seconds && (!cfg.trace || pass >= 2) {
			break
		}
		if err := ctx.Err(); err != nil {
			return fail(err)
		}
		if len(pending) > 0 && time.Since(lastProbe) >= probeInterval {
			settle()
		}
		h.traced = cfg.trace && pass%2 == 1
		pr, err := b.pass(h)
		if err != nil {
			return fail(err)
		}
		rep.Result.Attempted += len(pr.ops)
		for k, v := range pr.extra {
			rep.Extra[k] = v
		}
		if h.traced {
			tracedWall += pr.wall
			tracedRuns++
			for k, v := range pr.layer {
				layer[k] += v
			}
		} else {
			passes++
		}
		pending = append(pending, donePass{pr, h.traced})
	}
	if len(pending) > 0 {
		settle()
	}

	rep.Result.Correct = true
	rep.Extra["passes"] = float64(passes + tracedRuns)
	rep.Extra["ops"] = float64(len(ops))
	rep.Extra["probe_ms"] = median(probes) * 1e3
	rep.Extra["raw_setup_s"] = median(rawSetups)
	rep.Extra["raw_op_p50_ms"] = median(rawOps) * 1e3
	if p90, ok := percentile(ops, 0.9); ok {
		rep.Extra["op_p90_ms"] = p90 * 1e3
	}
	put := func(name string, v float64) {
		for _, d := range append(endToEnd, perLayer...) {
			if d.Name == name {
				rep.Result.Metrics[name] = metricValue{Value: v, Unit: d.Unit}
				return
			}
		}
		panic("metric " + name + " is not in the metric tables")
	}
	if !cfg.trace {
		put("setup_s", median(setups))
		put("op_p50_ms", median(ops)*1e3)
		put("items_per_s", float64(items)/wall)
		return rep, nil
	}

	busy := tracedWall * workers
	for _, d := range perLayer {
		v := layer[d.Name]
		switch {
		case d.Unit == "count":
			v /= float64(tracedRuns)
		case d.Unit == "%":
			v = v / busy * 100
		}
		put(d.Name, v)
	}
	if sec := layer["profile.collect_pct"]; sec > 0 {
		put("profile.mips", layer["profile.dyn"]/sec/1e6)
	}
	if sec := layer["explore.run_s"]; sec > 0 {
		put("explore.sim_mips", layer["explore.sim_instrs"]/sec/1e6)
	}
	put("trace.overhead", median(tracedOps)/median(ops)-1)
	micro := map[string]float64{}
	if err := microbench(ctx, micro); err != nil {
		rep.Result.Correct = false
		return fail(err)
	}
	for k, v := range micro {
		put(k, v)
	}
	if err := os.MkdirAll(cfg.traceDir, 0o755); err != nil {
		return rep, err
	}
	path := filepath.Join(cfg.traceDir, cfg.workload+".trace.json")
	f, err := os.Create(path)
	if err != nil {
		return rep, err
	}
	if err := h.tracer.Export(f); err != nil {
		f.Close()
		return rep, err
	}
	if err := f.Close(); err != nil {
		return rep, err
	}
	fmt.Fprintf(log, "ledger: %s trace written to %s (%d spans, %d dropped)\n",
		cfg.workload, path, h.tracer.Len(), h.tracer.Dropped())
	return rep, nil
}
