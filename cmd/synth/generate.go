package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/cluster"
	"repro/internal/generate"
	"repro/internal/pipeline"
)

// cmdGenerate runs directed workload generation: analyze the baseline
// suite's feature-space coverage, sample -n synthetic profiles aimed at
// the holes, realize each through Synthesize → Validate, and report
// requested vs. achieved features. With -dispatch the realization fans out
// over the cluster queue instead of the local worker pool.
func cmdGenerate(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("synth generate", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var c commonFlags
	addOneShot(fs, &c)
	n := fs.Int("n", 0, "number of synthetic workloads to generate (overrides -spec)")
	specFile := fs.String("spec", "", "generation spec JSON file (see docs/generate.md)")
	suite := fs.String("suite", "", "baseline suite whose coverage to extend: tiny, quick, or full (overrides -spec; default quick)")
	name := fs.String("name", "", "corpus name (overrides -spec; default gen)")
	jsonOut := fs.Bool("json", false, "emit the full generation report as JSON")
	outDir := fs.String("out", "", "write each accepted clone's HLC source (and report.json) into this directory")
	dispatch := fs.Bool("dispatch", false, "enqueue one cluster job per point instead of realizing locally (requires -store)")
	var df dispatchFlags
	addDispatchFlags(fs, &df)
	if err := fs.Parse(args); err != nil {
		return err
	}
	defer c.writeTrace(stderr)

	spec, err := buildGenerateSpec(fs, &c, *specFile, *n, *suite, *name)
	if err != nil {
		return err
	}

	var p *pipeline.Pipeline
	if *dispatch {
		// One job per sampled point. After the queue drains (with -wait),
		// the closing generate.Run finds every synthesis warm in the shared
		// store and only computes the report.
		cspec := cluster.Spec{Suite: spec.Suite, Seed: c.seed, Generate: spec}
		if p, _, err = df.dispatch(ctx, &c, "generate", "one per point", cspec, stderr); err != nil || !df.wait {
			return err
		}
	} else if p, err = c.pipeline(); err != nil {
		return err
	}
	rep, err := generate.Run(ctx, p, spec)
	if err != nil {
		return err
	}
	if err := renderGenerateReport(stdout, rep, *jsonOut); err != nil {
		return err
	}
	if *outDir != "" {
		if err := writeCorpus(*outDir, rep); err != nil {
			return err
		}
	}
	if c.stats {
		printStats(stderr, p)
	}
	return nil
}

// buildGenerateSpec assembles the effective generation spec: the -spec
// file (if any) overridden by explicit flags. The sampler seed follows the
// CLI determinism contract (docs/generate.md): an explicit -seed always
// wins; otherwise a seed from the spec file is kept; otherwise the common
// default seed applies. Same seed + same spec ⇒ byte-identical corpus.
func buildGenerateSpec(fs *flag.FlagSet, c *commonFlags, specFile string, n int, suite, name string) (*generate.Spec, error) {
	spec := &generate.Spec{}
	if specFile != "" {
		data, err := os.ReadFile(specFile)
		if err != nil {
			return nil, err
		}
		if spec, err = generate.ParseSpec(data); err != nil {
			return nil, err
		}
	}
	if n > 0 {
		spec.N = n
	}
	if spec.N == 0 {
		spec.N = 8
	}
	if suite != "" {
		spec.Suite = suite
	}
	if name != "" {
		spec.Name = name
	}
	seedSet := false
	fs.Visit(func(f *flag.Flag) {
		if f.Name == "seed" {
			seedSet = true
		}
	})
	if seedSet || spec.Seed == 0 {
		spec.Seed = c.seed
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	return spec, nil
}

// renderGenerateReport prints a generation report: the full JSON document
// under -json, otherwise a fixed-format text summary.
func renderGenerateReport(w io.Writer, rep *generate.Report, asJSON bool) error {
	if asJSON {
		return writeIndentedJSON(w, rep)
	}
	fmt.Fprintf(w, "generate %s (spec %s, seed %d): %d accepted, %d rejected\n",
		rep.Name, rep.SpecDigest, rep.Seed, rep.Accepted, rep.Rejected)
	fmt.Fprintf(w, "baseline coverage: %d points, min pair distance %.4f, mean %.4f (closest: %s ~ %s)\n",
		rep.Baseline.Points, rep.Baseline.MinPairDist, rep.Baseline.MeanPairDist,
		rep.Baseline.ClosestPair[0], rep.Baseline.ClosestPair[1])
	fmt.Fprintf(w, "generated separation: min %.4f, feature error mean %.4f max %.4f\n",
		rep.MinSeparation, rep.MeanErr, rep.MaxErr)
	for _, pt := range rep.Points {
		if pt.Reject != "" {
			fmt.Fprintf(w, "  %-12s base=%-20s REJECTED: %s\n", pt.Name, pt.Base, pt.Reject)
			continue
		}
		fmt.Fprintf(w, "  %-12s base=%-20s axes=%v err=%.4f sep=%.4f dyn=%d\n",
			pt.Name, pt.Base, pt.Axes, pt.Err, pt.Separation, pt.CloneDyn)
	}
	return nil
}

// writeCorpus materializes a report's accepted clones as .hlc files plus
// the report itself, making the generated corpus a directory artifact.
func writeCorpus(dir string, rep *generate.Report) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, pt := range rep.Points {
		if pt.Reject != "" || pt.Source == "" {
			continue
		}
		if err := os.WriteFile(filepath.Join(dir, pt.Name+".hlc"), []byte(pt.Source), 0o644); err != nil {
			return err
		}
	}
	f, err := os.Create(filepath.Join(dir, "report.json"))
	if err != nil {
		return err
	}
	defer f.Close()
	return writeIndentedJSON(f, rep)
}
