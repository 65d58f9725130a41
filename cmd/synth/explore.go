package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/explore"
	"repro/internal/generate"
	"repro/internal/pipeline"
)

// cmdExplore runs a design-space exploration sweep: a declarative spec
// (file or built-in preset) expands into machine-configuration design
// points, every (point, workload, level) cell simulates the original and
// its synthetic clone through the cached Simulate stage, and the ranked
// report — per-point CPI error, speedup-prediction error, Pareto
// frontier — lands on stdout. With -dispatch the sweep's cells are
// instead sharded through the store's cluster queue for `synth work`
// fleets; -wait blocks for the drain and then aggregates the report from
// the warm store, or exits nonzero naming every failed job.
func cmdExplore(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("synth explore", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var c commonFlags
	addOneShot(fs, &c)
	specFile := fs.String("spec", "", "sweep specification JSON file (see docs/explore.md)")
	preset := fs.String("preset", "", "built-in sweep preset (calibration); alternative to -spec")
	genFile := fs.String("generate", "", "generation spec JSON file whose accepted corpus joins the sweep's workloads (local runs only)")
	top := fs.Int("top", 0, "ranked-table rows to print (0 = the spec's topK, default 10)")
	asJSON := fs.Bool("json", false, "emit the full report as JSON instead of the table")
	dispatch := fs.Bool("dispatch", false, "enqueue the sweep into the store's cluster queue instead of simulating locally")
	var df dispatchFlags
	addDispatchFlags(fs, &df)
	if err := fs.Parse(args); err != nil {
		return err
	}
	defer c.writeTrace(stderr)

	sw, err := loadSweep(*specFile, *preset)
	if err != nil {
		return err
	}
	if *top > 0 {
		sw.Spec.TopK = *top
	}

	var p *pipeline.Pipeline
	if *dispatch {
		if *genFile != "" {
			// Workers rebuild their pipelines from the dispatch manifest and
			// resolve workloads by name from the static registry; a generated
			// corpus only exists in the dispatching process, so it cannot
			// ride a cluster sweep.
			return fmt.Errorf("-generate is local-only; it cannot be combined with -dispatch")
		}
		shape := fmt.Sprintf("%d points × %d levels per workload", len(sw.Points), len(sw.Levels))
		spec := sw.ClusterSpec(c.seed)
		if p, _, err = df.dispatch(ctx, &c, "explore", shape, spec, stderr); err != nil || !df.wait {
			return err
		}
	} else if p, err = c.pipeline(); err != nil {
		return err
	}

	if *genFile != "" {
		if err := addGeneratedWorkloads(ctx, p, sw, *genFile, stderr); err != nil {
			return err
		}
	}

	rep, err := explore.Run(ctx, p, sw)
	if err != nil {
		return err
	}
	if *asJSON {
		if err := writeIndentedJSON(stdout, rep); err != nil {
			return err
		}
	} else {
		rep.Print(stdout)
	}
	if c.stats {
		printStats(stderr, p)
	}
	return nil
}

// addGeneratedWorkloads realizes the generation spec in genFile through the
// sweep's pipeline and appends every accepted clone to the sweep's workload
// set, so one `synth explore -generate` invocation evaluates design points
// against the baseline suite plus the directed synthetic corpus. The
// corpus lives only in the sweep, never in the process-wide workload
// registry; with a warm store the generation step computes nothing.
func addGeneratedWorkloads(ctx context.Context, p *pipeline.Pipeline, sw *explore.Sweep, genFile string, stderr io.Writer) error {
	data, err := os.ReadFile(genFile)
	if err != nil {
		return err
	}
	spec, err := generate.ParseSpec(data)
	if err != nil {
		return fmt.Errorf("%s: %w", genFile, err)
	}
	corpus, err := generate.Corpus(ctx, p, spec)
	if err != nil {
		return err
	}
	if len(corpus) == 0 {
		return fmt.Errorf("%s: generation spec produced no accepted workloads", genFile)
	}
	sw.Workloads = append(sw.Workloads, corpus...)
	fmt.Fprintf(stderr, "synth explore: generated corpus %s joins the sweep: %d workloads\n", spec.Name, len(corpus))
	return nil
}

// loadSweep resolves the -spec/-preset pair into a validated sweep.
func loadSweep(specFile, preset string) (*explore.Sweep, error) {
	switch {
	case specFile != "" && preset != "":
		return nil, fmt.Errorf("-spec and -preset are mutually exclusive")
	case specFile != "":
		data, err := os.ReadFile(specFile)
		if err != nil {
			return nil, err
		}
		sw, err := explore.ParseSpec(data)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", specFile, err)
		}
		return sw, nil
	case preset != "":
		spec, err := explore.Preset(preset)
		if err != nil {
			return nil, err
		}
		return spec.Resolve()
	}
	return nil, fmt.Errorf("missing -spec FILE or -preset NAME")
}
