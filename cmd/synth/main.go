// Command synth is the framework's command-line front end: it profiles
// workloads, synthesizes benchmark clones, regenerates the paper's
// evaluation, consolidates profiles, and serves the whole flow over HTTP,
// all through the internal/pipeline orchestration layer.
//
// Usage:
//
//	synth profile -workload NAME [-workers N] [-store DIR]
//	synth synthesize {-workload NAME | -from PROFILE.json} [-seed N] [-report] [-validate]
//	synth consolidate [-name NAME] [-synthesize] WORKLOAD-OR-PROFILE.json...
//	synth experiments [-suite tiny|quick|full] [-only LIST] [-stats] [-store DIR]
//	synth explore {-spec FILE | -preset NAME} [-store DIR] [-top K] [-json] [-dispatch [-wait]] [-generate FILE]
//	synth generate [-n N] [-spec FILE] [-suite quick] [-seed N] [-json] [-out DIR] [-dispatch [-wait]]
//	synth dispatch -store DIR [-suite quick] [-isas LIST] [-levels LIST] [-wait] [-force]
//	synth work {-store DIR | -remote URL [-token SECRET]} [-id NAME] [-lease-ttl D] [-workers N]
//	synth store-gc -store DIR [-max-age D] [-max-bytes N] [-wip-max-age D] [-dry-run]
//	synth serve [-addr HOST:PORT] [-store DIR] [-token SECRET] [-pool-max N [-pool-min N] [-job-timeout D]]
//	synth workloads
//
// `synth experiments` renders the same rows as the library API in
// internal/experiments (it calls the same Runner), so the CLI and `go
// test` agree by construction. See docs/cli.md for the full reference.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"slices"
	"sort"
	"strings"

	"repro/internal/compiler"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/pipeline"
	"repro/internal/profile"
	"repro/internal/store"
	"repro/internal/telemetry"
	"repro/internal/workloads"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

// commonFlags are shared by every subcommand.
type commonFlags struct {
	workers  int
	seed     int64
	storeDir string
	// tracePath is the -trace flag: where to write the pipeline span trace
	// (empty = tracing off). metrics and tracer are the telemetry handles
	// pipelineWith plumbs into the pipeline; commands that own a registry
	// (serve) set metrics directly, and pipelineWith creates the tracer
	// lazily from tracePath.
	tracePath string
	metrics   *telemetry.Registry
	tracer    *telemetry.Tracer
}

// traceSpanCapacity bounds the -trace ring: a full-suite experiments run
// is a few thousand stage computations; beyond that the oldest spans are
// dropped (and reported).
const traceSpanCapacity = 65536

func addCommon(fs *flag.FlagSet, c *commonFlags) {
	fs.IntVar(&c.workers, "workers", 0, "worker pool size (0 = GOMAXPROCS)")
	fs.Int64Var(&c.seed, "seed", experiments.CloneSeed, "clone synthesis seed")
	fs.StringVar(&c.storeDir, "store", "", "persistent artifact store directory (empty = memory-only)")
	fs.StringVar(&c.tracePath, "trace", "", "write computed pipeline stages as a Chrome trace_event JSON file (load in chrome://tracing or ui.perfetto.dev)")
}

func (c *commonFlags) pipeline() (*pipeline.Pipeline, error) {
	if c.storeDir == "" {
		// A literal nil: wrapping a nil *store.Store in the Backend
		// interface would read as non-nil inside the pipeline.
		return c.pipelineWith(nil), nil
	}
	st, err := store.Open(c.storeDir)
	if err != nil {
		return nil, err
	}
	return c.pipelineWith(st), nil
}

// pipelineWith builds the pipeline over an already-opened store backend
// (nil = memory-only), for commands that also hold the backend's cluster
// queue and must share one instance between both.
func (c *commonFlags) pipelineWith(st store.Backend) *pipeline.Pipeline {
	if c.tracePath != "" && c.tracer == nil {
		c.tracer = telemetry.NewTracer(traceSpanCapacity)
	}
	return pipeline.New(pipeline.Options{
		Workers: c.workers,
		Seed:    c.seed,
		Store:   st,
		Metrics: c.metrics,
		Tracer:  c.tracer,
	})
}

// writeTrace flushes the -trace span ring to its file. It runs deferred
// after the command's work — including failed runs, which are exactly the
// ones worth inspecting — and logs rather than fails: the command's own
// result must win the exit code.
func (c *commonFlags) writeTrace(stderr io.Writer) {
	if c.tracer == nil || c.tracePath == "" {
		return
	}
	if err := exportTrace(c.tracer, c.tracePath); err != nil {
		fmt.Fprintf(stderr, "synth: trace: %v\n", err)
		return
	}
	if n := c.tracer.Dropped(); n > 0 {
		fmt.Fprintf(stderr, "synth: trace: ring full, oldest %d span(s) dropped from %s\n", n, c.tracePath)
	}
}

// exportTrace writes one tracer's spans as Chrome trace JSON at path.
func exportTrace(t *telemetry.Tracer, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := t.Export(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// printStats renders the artifact-cache statistics line. The format is
// stable: CI greps the per-stage computed counts to assert that a
// warm-store run redoes no compile or profile work.
func printStats(w io.Writer, p *pipeline.Pipeline) {
	cs := p.CacheStats()
	total := cs.Hits + cs.Misses + cs.DiskHits
	rate := 0.0
	if total > 0 {
		rate = float64(cs.Hits+cs.DiskHits) / float64(total)
	}
	fmt.Fprintf(w, "artifact cache: %d hits, %d disk hits, %d misses (%.1f%% hit rate), %d disk errors, %d workers; computed parse=%d check=%d compile=%d profile=%d synthesize=%d validate=%d simulate=%d generate=%d\n",
		cs.Hits, cs.DiskHits, cs.Misses, rate*100, cs.DiskErrors, p.Workers(),
		cs.ComputedFor(pipeline.StageParse), cs.ComputedFor(pipeline.StageCheck),
		cs.ComputedFor(pipeline.StageCompile), cs.ComputedFor(pipeline.StageProfile),
		cs.ComputedFor(pipeline.StageSynthesize), cs.ComputedFor(pipeline.StageValidate),
		cs.ComputedFor(pipeline.StageSimulate), cs.ComputedFor(pipeline.StageGenerate))
}

// writeIndentedJSON renders v as indented JSON, the CLI's JSON style.
func writeIndentedJSON(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(v)
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	if len(args) == 0 {
		usage(stderr)
		return 2
	}
	var err error
	switch args[0] {
	case "profile":
		err = cmdProfile(ctx, args[1:], stdout, stderr)
	case "synthesize":
		err = cmdSynthesize(ctx, args[1:], stdout, stderr)
	case "consolidate":
		err = cmdConsolidate(ctx, args[1:], stdout, stderr)
	case "experiments":
		err = cmdExperiments(ctx, args[1:], stdout, stderr)
	case "explore":
		err = cmdExplore(ctx, args[1:], stdout, stderr)
	case "generate":
		err = cmdGenerate(ctx, args[1:], stdout, stderr)
	case "dispatch":
		err = cmdDispatch(ctx, args[1:], stdout, stderr)
	case "work":
		err = cmdWork(ctx, args[1:], stdout, stderr)
	case "store-gc":
		err = cmdStoreGC(ctx, args[1:], stdout, stderr)
	case "serve":
		err = cmdServe(ctx, args[1:], stdout, stderr)
	case "workloads":
		err = cmdWorkloads(args[1:], stdout)
	case "help", "-h", "-help", "--help":
		usage(stdout)
		return 0
	default:
		fmt.Fprintf(stderr, "synth: unknown command %q\n", args[0])
		usage(stderr)
		return 2
	}
	if err != nil {
		if err == flag.ErrHelp {
			return 2
		}
		fmt.Fprintf(stderr, "synth: %v\n", err)
		return 1
	}
	return 0
}

func usage(w io.Writer) {
	fmt.Fprint(w, `synth — benchmark synthesis for architecture and compiler exploration

Commands:
  profile      profile a workload and emit its statistical profile as JSON
  synthesize   synthesize a clone (from a workload or -from a saved profile)
  consolidate  merge several profiles into one consolidated proxy profile
  experiments  regenerate the paper's tables and figures
  explore      sweep a microarchitecture design space and rank the points
  generate     sample and realize synthetic workloads targeting coverage holes
  dispatch     enqueue a suite's jobs into a shared store's cluster queue
  work         run one cluster worker (-store DIR, or -remote URL of a serve node)
  store-gc     evict old entries from a persistent artifact store
  serve        expose the HTTP service; -pool-max N embeds a self-scaling worker pool
  workloads    list available workload/input pairs

Common flags: -workers N  -seed N  -store DIR
Run "synth <command> -h" for command-specific flags; see docs/cli.md and
docs/cluster.md.
`)
}

func lookupWorkload(name string) (*workloads.Workload, error) {
	if name == "" {
		return nil, fmt.Errorf("missing -workload (try \"synth workloads\")")
	}
	w, err := experiments.Lookup(name)
	if err != nil {
		return nil, fmt.Errorf("%w (try \"synth workloads\")", err)
	}
	return w, nil
}

func cmdProfile(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("synth profile", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var c commonFlags
	addCommon(fs, &c)
	name := fs.String("workload", "", "workload/input pair to profile (e.g. crc32/small)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	w, err := lookupWorkload(*name)
	if err != nil {
		return err
	}
	p, err := c.pipeline()
	if err != nil {
		return err
	}
	defer c.writeTrace(stderr)
	prof, err := p.Profile(ctx, w)
	if err != nil {
		return err
	}
	return prof.Save(stdout)
}

// loadProfileFile reads a saved statistical profile (the JSON that `synth
// profile` emits).
func loadProfileFile(path string) (*profile.Profile, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	prof, err := profile.Load(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return prof, nil
}

func cmdSynthesize(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("synth synthesize", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var c commonFlags
	addCommon(fs, &c)
	name := fs.String("workload", "", "workload/input pair to clone (e.g. crc32/small)")
	from := fs.String("from", "", "synthesize from a saved profile JSON file instead of a workload")
	report := fs.Bool("report", false, "print the synthesis report to stderr")
	validate := fs.Bool("validate", false, "run the Validate stage on the clone")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *name != "" && *from != "" {
		return fmt.Errorf("-workload and -from are mutually exclusive")
	}
	p, err := c.pipeline()
	if err != nil {
		return err
	}
	defer c.writeTrace(stderr)

	var cl *pipeline.Clone
	switch {
	case *from != "":
		if *validate {
			return fmt.Errorf("-validate requires -workload (the Validate stage is keyed by workload)")
		}
		prof, err := loadProfileFile(*from)
		if err != nil {
			return err
		}
		if cl, err = p.SynthesizeProfile(ctx, prof); err != nil {
			return err
		}
	default:
		w, err := lookupWorkload(*name)
		if err != nil {
			return err
		}
		if cl, err = p.Synthesize(ctx, w); err != nil {
			return err
		}
		if *validate {
			if err := p.Validate(ctx, w); err != nil {
				return err
			}
		}
	}
	if *report {
		rep := cl.Report
		fmt.Fprintf(stderr, "workload %s: R=%d coverage=%.3f functions=%d walkers=%d\n",
			rep.Workload, rep.Reduction, rep.Coverage, rep.Functions, rep.StreamWalkers)
	}
	fmt.Fprint(stdout, cl.Source)
	return nil
}

// cmdConsolidate merges several profiles (Section II.B.e, "benchmark
// consolidation") into one proxy profile. Each argument is either a path
// to a saved profile JSON file or a workload name to profile in-process.
func cmdConsolidate(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("synth consolidate", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var c commonFlags
	addCommon(fs, &c)
	name := fs.String("name", "consolidated", "name of the merged profile")
	synth := fs.Bool("synthesize", false, "emit the consolidated clone's HLC source instead of the merged profile JSON")
	report := fs.Bool("report", false, "with -synthesize, print the synthesis report to stderr")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() == 0 {
		return fmt.Errorf("nothing to consolidate: pass workload names and/or profile JSON files")
	}
	p, err := c.pipeline()
	if err != nil {
		return err
	}
	defer c.writeTrace(stderr)
	// Resolve every input first (cheap), then profile the workload-named
	// ones on the pipeline's worker pool; Map preserves argument order, so
	// the merge is deterministic.
	profs, err := pipeline.Map(ctx, p, fs.Args(),
		func(ctx context.Context, arg string) (*profile.Profile, error) {
			if _, statErr := os.Stat(arg); statErr == nil {
				return loadProfileFile(arg)
			}
			w, err := lookupWorkload(arg)
			if err != nil {
				return nil, fmt.Errorf("%q is neither a file nor a workload: %w", arg, err)
			}
			return p.Profile(ctx, w)
		})
	if err != nil {
		return err
	}
	merged, err := core.Consolidate(*name, profs...)
	if err != nil {
		return err
	}
	if !*synth {
		return merged.Save(stdout)
	}
	cl, err := p.SynthesizeProfile(ctx, merged)
	if err != nil {
		return err
	}
	if *report {
		rep := cl.Report
		fmt.Fprintf(stderr, "consolidated %s (%d profiles): R=%d coverage=%.3f functions=%d\n",
			*name, len(profs), rep.Reduction, rep.Coverage, rep.Functions)
	}
	fmt.Fprint(stdout, cl.Source)
	return nil
}

// experimentNames is the render order of `synth experiments`.
var experimentNames = []string{
	"table1", "table2", "table3",
	"fig4", "fig5", "fig6a", "fig6b", "fig7", "fig8", "fig9", "fig10", "fig11",
	"obfuscation",
}

// parseOnly parses the -only experiment subset; an empty string selects
// everything.
func parseOnly(only string) (map[string]bool, error) {
	selected := map[string]bool{}
	for _, n := range splitList(strings.ToLower(only)) {
		if !slices.Contains(experimentNames, n) {
			return nil, fmt.Errorf("unknown experiment %q (known: %s)", n, strings.Join(experimentNames, ", "))
		}
		selected[n] = true
	}
	return selected, nil
}

// renderExperiments writes the selected experiments for a suite to out,
// in the fixed experimentNames order. It is the single rendering path
// behind both `synth experiments` and the serve endpoint, so the CLI, the
// service, and the library API agree by construction.
func renderExperiments(ctx context.Context, r *experiments.Runner, ws []*workloads.Workload, selected map[string]bool, out io.Writer) error {
	want := func(n string) bool { return len(selected) == 0 || selected[n] }

	type printable interface{ Print(io.Writer) }
	render := func(name string, run func() (printable, error)) error {
		if !want(name) {
			return nil
		}
		res, err := run()
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		res.Print(out)
		fmt.Fprintln(out)
		return nil
	}

	if want("table1") {
		experiments.PrintTableI(out, experiments.TableI())
		fmt.Fprintln(out)
	}
	if err := render("table2", func() (printable, error) { return r.TableII(ctx, ws) }); err != nil {
		return err
	}
	if want("table3") {
		experiments.PrintTableIII(out)
		fmt.Fprintln(out)
	}
	steps := []struct {
		name string
		run  func() (printable, error)
	}{
		{"fig4", func() (printable, error) { return r.Fig4(ctx, ws) }},
		{"fig5", func() (printable, error) { return r.Fig5(ctx, ws) }},
		{"fig6a", func() (printable, error) { return r.Fig6(ctx, ws, compiler.O0) }},
		{"fig6b", func() (printable, error) { return r.Fig6(ctx, ws, compiler.O2) }},
		{"fig7", func() (printable, error) { return r.FigCache(ctx, ws, compiler.O0) }},
		{"fig8", func() (printable, error) { return r.FigCache(ctx, ws, compiler.O2) }},
		{"fig9", func() (printable, error) { return r.Fig9(ctx, ws) }},
		{"fig10", func() (printable, error) { return r.Fig10(ctx, ws) }},
		{"fig11", func() (printable, error) { return r.Fig11(ctx, ws) }},
		{"obfuscation", func() (printable, error) { return r.Obfuscation(ctx, ws) }},
	}
	for _, s := range steps {
		if err := render(s.name, s.run); err != nil {
			return err
		}
	}
	return nil
}

func cmdExperiments(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("synth experiments", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var c commonFlags
	addCommon(fs, &c)
	suite := fs.String("suite", "quick", "workload suite: tiny, quick, or full")
	only := fs.String("only", "", "comma-separated experiment subset (e.g. fig4,fig11); empty = all")
	stats := fs.Bool("stats", false, "print artifact-cache statistics to stderr afterwards")
	if err := fs.Parse(args); err != nil {
		return err
	}
	ws, err := experiments.Suite(*suite)
	if err != nil {
		return err
	}
	selected, err := parseOnly(*only)
	if err != nil {
		return err
	}
	p, err := c.pipeline()
	if err != nil {
		return err
	}
	defer c.writeTrace(stderr)
	if err := renderExperiments(ctx, experiments.NewRunner(p), ws, selected, stdout); err != nil {
		return err
	}
	if *stats {
		printStats(stderr, p)
	}
	return nil
}

func cmdWorkloads(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("synth workloads", flag.ContinueOnError)
	if err := fs.Parse(args); err != nil {
		return err
	}
	byBench := map[string][]string{}
	var benches []string
	for _, w := range workloads.All() {
		if _, ok := byBench[w.Bench]; !ok {
			benches = append(benches, w.Bench)
		}
		byBench[w.Bench] = append(byBench[w.Bench], w.Name)
	}
	sort.Strings(benches)
	for _, b := range benches {
		fmt.Fprintf(stdout, "%-14s %s\n", b, strings.Join(byBench[b], " "))
	}
	return nil
}
