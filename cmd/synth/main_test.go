package main

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/experiments"
	"repro/internal/pipeline"
	"repro/internal/workloads"
)

// TestExperimentsMatchesLibrary verifies the CLI acceptance property: the
// rows `synth experiments` renders are exactly the rows the library API
// produces for the same suite and seed.
func TestExperimentsMatchesLibrary(t *testing.T) {
	var cliOut, cliErr bytes.Buffer
	code := run(context.Background(),
		[]string{"experiments", "-suite", "tiny", "-only", "table2,fig4", "-workers", "4"},
		&cliOut, &cliErr)
	if code != 0 {
		t.Fatalf("synth experiments exited %d: %s", code, cliErr.String())
	}

	r := experiments.NewRunner(pipeline.New(pipeline.Options{Seed: experiments.CloneSeed}))
	var tiny []*workloads.Workload
	for _, n := range []string{"crc32/small", "dijkstra/small", "fft/small1"} {
		tiny = append(tiny, workloads.ByName(n))
	}
	ctx := context.Background()
	var lib bytes.Buffer
	t2, err := r.TableII(ctx, tiny)
	if err != nil {
		t.Fatal(err)
	}
	t2.Print(&lib)
	fmt.Fprintln(&lib)
	f4, err := r.Fig4(ctx, tiny)
	if err != nil {
		t.Fatal(err)
	}
	f4.Print(&lib)
	fmt.Fprintln(&lib)

	if cliOut.String() != lib.String() {
		t.Errorf("CLI output differs from library output.\n--- CLI ---\n%s\n--- library ---\n%s",
			cliOut.String(), lib.String())
	}
}

// TestCLIErrors covers the argument-validation paths.
func TestCLIErrors(t *testing.T) {
	cases := [][]string{
		{},
		{"frobnicate"},
		{"profile", "-workload", "no/such"},
		{"profile"},
		{"synthesize", "-workload", "crc32/small", "-isa", "amd64v"}, // the profiling point is not a flag
		{"experiments", "-suite", "nope"},
		{"experiments", "-only", "fig99"},
		{"profile", "-workload", "crc32/small", "-O", "0"},
	}
	for _, args := range cases {
		var out, errBuf bytes.Buffer
		if code := run(context.Background(), args, &out, &errBuf); code == 0 {
			t.Errorf("args %v: expected nonzero exit", args)
		}
	}
}

// TestWorkloadsListsFullSuite sanity-checks the workloads subcommand.
func TestWorkloadsListsFullSuite(t *testing.T) {
	var out, errBuf bytes.Buffer
	if code := run(context.Background(), []string{"workloads"}, &out, &errBuf); code != 0 {
		t.Fatalf("exit %d: %s", code, errBuf.String())
	}
	for _, want := range []string{"crc32/small", "fft/small1", "susan/large3"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("workload listing missing %s", want)
		}
	}
}
