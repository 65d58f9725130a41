package main

// synth bench — the per-PR performance ratchet. It runs the cold
// profile+validate path of a suite through an in-memory pipeline (no
// store, so nothing is served from disk), times every stage, measures the
// interpreter's raw instructions-per-second on a fixed workload, and emits
// the numbers as a stable JSON report (BENCH_quick.json in CI). With
// -check it compares the report against a committed baseline and fails on
// regressions beyond -max-regress, the way coreblocks tracks Fmax per PR.

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"repro/internal/compiler"
	"repro/internal/experiments"
	"repro/internal/isa"
	"repro/internal/pipeline"
	"repro/internal/telemetry"
	"repro/internal/vm"
	"repro/internal/workloads"
)

// benchSchema versions the bench report format.
const benchSchema = 1

// benchReport is the JSON emitted by `synth bench` and consumed by its
// -check mode. All wall times are seconds; MIPS is millions of executed
// virtual instructions per wall second.
type benchReport struct {
	Schema    int    `json:"schema"`
	Suite     string `json:"suite"`
	Workers   int    `json:"workers"`
	GoVersion string `json:"goVersion"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	CPUs      int    `json:"cpus"`

	// Per-stage cold wall times over the whole suite, in pipeline order.
	CompileSec    float64 `json:"compileSec"`
	ProfileSec    float64 `json:"profileSec"`
	SynthesizeSec float64 `json:"synthesizeSec"`
	ValidateSec   float64 `json:"validateSec"`
	TotalSec      float64 `json:"totalSec"`

	// ProfileDyn is the dynamic instructions interpreted by the profile
	// stage; ProfileMIPS is its throughput (hooked interpretation plus
	// cache simulation and stream collection).
	ProfileDyn  uint64  `json:"profileDyn"`
	ProfileMIPS float64 `json:"profileMIPS"`

	// VM microbenchmark: raw interpreter throughput on one fixed workload
	// with no hook (the validate/calibration path) and with a counting
	// hook (the profiling path's lower bound).
	VMWorkload string  `json:"vmWorkload"`
	VMDyn      uint64  `json:"vmDyn"`
	VMFastMIPS float64 `json:"vmFastMIPS"`
	VMHookMIPS float64 `json:"vmHookMIPS"`
}

func cmdBench(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("synth bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	suite := fs.String("suite", "quick", "workload suite: tiny, quick, or full")
	out := fs.String("out", "", "write the JSON report to this file (default stdout)")
	check := fs.String("check", "", "compare against a baseline JSON report and fail on regression")
	maxRegress := fs.Float64("max-regress", 0.20, "allowed fractional regression against the baseline")
	workers := fs.Int("workers", 0, "worker pool size (0 = GOMAXPROCS)")
	seed := fs.Int64("seed", experiments.CloneSeed, "clone synthesis seed")
	trace := fs.String("trace", "", "write computed pipeline stages as a Chrome trace_event JSON file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	ws, err := suiteWorkloads(*suite)
	if err != nil {
		return err
	}
	var tracer *telemetry.Tracer
	if *trace != "" {
		tracer = telemetry.NewTracer(traceSpanCapacity)
		defer func() {
			if err := exportTrace(tracer, *trace); err != nil {
				fmt.Fprintf(stderr, "synth: trace: %v\n", err)
			}
		}()
	}
	rep, err := runBench(ctx, ws, *suite, *workers, *seed, tracer, stderr)
	if err != nil {
		return err
	}

	var w io.Writer = stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	if err := writeIndentedJSON(w, rep); err != nil {
		return err
	}
	if *check != "" {
		base, err := loadBenchReport(*check)
		if err != nil {
			return err
		}
		return compareBench(rep, base, *maxRegress, stderr)
	}
	return nil
}

// runBench executes the cold benchmark and builds the report.
func runBench(ctx context.Context, ws []*workloads.Workload, suite string, workers int, seed int64, tracer *telemetry.Tracer, stderr io.Writer) (*benchReport, error) {
	p := pipeline.New(pipeline.Options{Workers: workers, Seed: seed, Tracer: tracer})
	rep := &benchReport{
		Schema:    benchSchema,
		Suite:     suite,
		Workers:   p.Workers(),
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		CPUs:      runtime.NumCPU(),
	}

	stage := func(name string, f func(context.Context, *workloads.Workload) error) (float64, error) {
		start := time.Now()
		_, err := pipeline.Map(ctx, p, ws, func(ctx context.Context, w *workloads.Workload) (struct{}, error) {
			return struct{}{}, f(ctx, w)
		})
		sec := time.Since(start).Seconds()
		if err != nil {
			return 0, fmt.Errorf("bench %s stage: %w", name, err)
		}
		fmt.Fprintf(stderr, "bench: %-10s %6.2fs\n", name, sec)
		return sec, nil
	}

	var err error
	if rep.CompileSec, err = stage("compile", func(ctx context.Context, w *workloads.Workload) error {
		_, err := p.Compile(ctx, w, isa.AMD64, compiler.O0)
		return err
	}); err != nil {
		return nil, err
	}
	if rep.ProfileSec, err = stage("profile", func(ctx context.Context, w *workloads.Workload) error {
		_, err := p.Profile(ctx, w)
		return err
	}); err != nil {
		return nil, err
	}
	// Sum the interpreted volume from the (now cached) profiles serially.
	for _, w := range ws {
		prof, err := p.Profile(ctx, w)
		if err != nil {
			return nil, err
		}
		rep.ProfileDyn += prof.TotalDyn
	}
	if rep.ProfileSec > 0 {
		rep.ProfileMIPS = float64(rep.ProfileDyn) / rep.ProfileSec / 1e6
	}
	if rep.SynthesizeSec, err = stage("synthesize", func(ctx context.Context, w *workloads.Workload) error {
		_, err := p.Synthesize(ctx, w)
		return err
	}); err != nil {
		return nil, err
	}
	if rep.ValidateSec, err = stage("validate", p.Validate); err != nil {
		return nil, err
	}
	rep.TotalSec = rep.CompileSec + rep.ProfileSec + rep.SynthesizeSec + rep.ValidateSec

	if err := benchVM(ctx, p, rep, stderr); err != nil {
		return nil, err
	}
	return rep, nil
}

// vmBenchBudget bounds the VM microbenchmark's executions.
const vmBenchBudget = 30_000_000

// benchVM measures raw interpreter throughput on one fixed workload, with
// and without an instrumentation hook.
func benchVM(ctx context.Context, p *pipeline.Pipeline, rep *benchReport, stderr io.Writer) error {
	const name = "crc32/small"
	w := workloads.ByName(name)
	if w == nil {
		return fmt.Errorf("bench: workload %s not found", name)
	}
	prog, err := p.Compile(ctx, w, isa.AMD64, compiler.O0)
	if err != nil {
		return err
	}
	// The workload is much shorter than the measurement budget, so run it
	// repeatedly (fresh VM each time, as profiling does) until the budget's
	// worth of instructions has been interpreted.
	run := func(hook vm.Hook) (uint64, float64, error) {
		var dyn uint64
		var sec float64
		for dyn < vmBenchBudget {
			m := vm.New(prog)
			if err := w.Setup(m); err != nil {
				return 0, 0, err
			}
			start := time.Now()
			res, err := m.Run(vm.Config{MaxInstrs: vmBenchBudget, Hook: hook})
			sec += time.Since(start).Seconds()
			if err != nil {
				if t, ok := err.(*vm.Trap); !ok || t.Reason != vm.TrapBudgetExhausted {
					return 0, 0, err
				}
			}
			dyn += res.DynInstrs
		}
		return dyn, sec, nil
	}
	// Interpreter throughput on a shared machine is noisy, so take the
	// fastest of a few trials: best-of measures what the code can do and is
	// far less sensitive to a neighbour stealing the core mid-trial.
	const vmBenchTrials = 3
	best := func(hook vm.Hook) (dyn uint64, sec float64, err error) {
		for i := 0; i < vmBenchTrials; i++ {
			d, s, err := run(hook)
			if err != nil {
				return 0, 0, err
			}
			if i == 0 || float64(d)/s > float64(dyn)/sec {
				dyn, sec = d, s
			}
		}
		return dyn, sec, nil
	}
	dyn, fastSec, err := best(nil)
	if err != nil {
		return err
	}
	var count uint64
	hookDyn, hookSec, err := best(func(ev *vm.Event) { count++ })
	if err != nil {
		return err
	}
	if count != vmBenchTrials*hookDyn {
		return fmt.Errorf("bench: hook saw %d events for %d trials of %d instructions",
			count, vmBenchTrials, hookDyn)
	}
	rep.VMWorkload = name
	rep.VMDyn = dyn
	if fastSec > 0 {
		rep.VMFastMIPS = float64(dyn) / fastSec / 1e6
	}
	if hookSec > 0 {
		rep.VMHookMIPS = float64(hookDyn) / hookSec / 1e6
	}
	fmt.Fprintf(stderr, "bench: vm fast %.1f MIPS, hooked %.1f MIPS (%s, %d instrs)\n",
		rep.VMFastMIPS, rep.VMHookMIPS, name, dyn)
	return nil
}

// loadBenchReport reads a bench JSON report from disk.
func loadBenchReport(path string) (*benchReport, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep benchReport
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if rep.Schema != benchSchema {
		return nil, fmt.Errorf("%s: bench schema %d, want %d", path, rep.Schema, benchSchema)
	}
	return &rep, nil
}

// compareBench fails when the fresh report regresses beyond the allowed
// fraction against the baseline: wall time up, or throughput down.
func compareBench(fresh, base *benchReport, maxRegress float64, stderr io.Writer) error {
	if fresh.Suite != base.Suite {
		return fmt.Errorf("bench: suite %q vs baseline %q", fresh.Suite, base.Suite)
	}
	var failures []string
	slower := func(name string, got, want float64) {
		if want <= 0 {
			return
		}
		ratio := got / want
		status := "ok"
		if ratio > 1+maxRegress {
			status = "REGRESSION"
			failures = append(failures, name)
		}
		fmt.Fprintf(stderr, "bench check: %-14s %8.2f vs baseline %8.2f (%.2fx) %s\n",
			name, got, want, ratio, status)
	}
	faster := func(name string, got, want float64) {
		if want <= 0 {
			return
		}
		ratio := got / want
		status := "ok"
		if ratio < 1-maxRegress {
			status = "REGRESSION"
			failures = append(failures, name)
		}
		fmt.Fprintf(stderr, "bench check: %-14s %8.1f vs baseline %8.1f (%.2fx) %s\n",
			name, got, want, ratio, status)
	}
	slower("totalSec", fresh.TotalSec, base.TotalSec)
	slower("profileSec", fresh.ProfileSec, base.ProfileSec)
	slower("validateSec", fresh.ValidateSec, base.ValidateSec)
	faster("profileMIPS", fresh.ProfileMIPS, base.ProfileMIPS)
	faster("vmFastMIPS", fresh.VMFastMIPS, base.VMFastMIPS)
	faster("vmHookMIPS", fresh.VMHookMIPS, base.VMHookMIPS)
	if len(failures) > 0 {
		return fmt.Errorf("bench: regression beyond %.0f%% in: %v", maxRegress*100, failures)
	}
	return nil
}
