package pipeline_test

import (
	"bytes"
	"context"
	"testing"

	"repro/internal/pipeline"
	"repro/internal/workloads"
)

// quickSuite returns the quick-suite workloads for determinism runs
// (duplicated from internal/experiments to avoid an import cycle risk;
// the suite's exact membership is irrelevant here).
func quickSuite(t *testing.T) []*workloads.Workload {
	t.Helper()
	names := []string{
		"adpcm/small1", "basicmath/small", "bitcount/small", "crc32/small",
		"dijkstra/small", "fft/small1", "gsm/small1", "jpeg/large1",
		"patricia/small", "qsort/large", "sha/small", "stringsearch/small",
		"susan/small2",
	}
	var out []*workloads.Workload
	for _, n := range names {
		w := workloads.ByName(n)
		if w == nil {
			t.Fatalf("missing workload %s", n)
		}
		out = append(out, w)
	}
	return out
}

// TestPipelineProfileDeterminism profiles the quick suite through two
// pipelines — one serial, one with full worker fan-out — and requires the
// serialized stream profiles to be byte-identical. Profiles are
// content-addressed cache artifacts, and the stride-stream profiler keeps
// online per-site state (space-saving stride counters, reuse windows):
// any ordering sensitivity there would poison shared stores. Mirrors
// TestSimulateDeterminism; run under -race it also proves Collect shares
// no hidden state across the pool.
func TestPipelineProfileDeterminism(t *testing.T) {
	ctx := context.Background()
	suite := quickSuite(t)

	serial := pipeline.New(pipeline.Options{Workers: 1, Seed: 7})
	fanout := pipeline.New(pipeline.Options{Workers: 8, Seed: 7})

	type keyed struct {
		name    string
		payload []byte
	}
	collect := func(p *pipeline.Pipeline) []keyed {
		rows, err := pipeline.Map(ctx, p, suite, func(ctx context.Context, w *workloads.Workload) (keyed, error) {
			prof, err := p.Profile(ctx, w)
			if err != nil {
				return keyed{}, err
			}
			payload, err := pipeline.EncodeProfile(prof)
			if err != nil {
				return keyed{}, err
			}
			return keyed{name: w.Name, payload: payload}, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return rows
	}

	a := collect(serial)
	b := collect(fanout)
	if len(a) != len(b) {
		t.Fatalf("row counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].name != b[i].name {
			t.Fatalf("row %d order differs: %s vs %s", i, a[i].name, b[i].name)
		}
		if !bytes.Equal(a[i].payload, b[i].payload) {
			t.Errorf("%s: serialized profile differs between workers=1 and workers=8", a[i].name)
		}
	}

	// The profiles must actually carry stream descriptors — a silent
	// regression to class-only profiles would make this test vacuous.
	prof, err := serial.Profile(ctx, suite[0])
	if err != nil {
		t.Fatal(err)
	}
	streams := 0
	for _, n := range prof.Graph.Nodes {
		for i := range n.Instrs {
			if n.Instrs[i].Stream != nil {
				streams++
			}
		}
	}
	if streams == 0 {
		t.Error("quick-suite profile carries no stream descriptors")
	}
}
