package core_test

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/compiler"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/hlc"
	"repro/internal/profile"
	"repro/internal/vm"
	"repro/internal/workloads"
)

// TestLinkedBuildsMatchWhole checks calibration's per-function builds
// against whole-program ones. Every candidate one Synthesize call runs
// for each quick-suite workload, and every clone it returns, is checked
// and compiled per function and linked (functions reused from the
// previous candidate included) and also by hlc.Check and
// compiler.Compile. The two must give equal programs, and the
// measurement calibration used, reused ones included, must equal one of
// the whole program.
func TestLinkedBuildsMatchWhole(t *testing.T) {
	if testing.Short() {
		t.Skip("synthesizes the quick suite and runs every candidate again")
	}
	var total core.BuildStats
	funcs := 0
	for _, prof := range quickProfiles(t) {
		var cands []core.Candidate
		clone, _, stats, err := core.SynthesizeObserved(prof, core.Config{Seed: experiments.CloneSeed},
			func(c core.Candidate) { cands = append(cands, c) })
		if err != nil {
			t.Fatal(err)
		}
		total.Measurements += stats.Measurements
		total.Reused += stats.Reused
		total.FuncsRebuilt += stats.FuncsRebuilt
		for i, c := range cands {
			if c.Linked != nil {
				funcs += len(c.Prog.Funcs)
			}
			checkLinked(t, fmt.Sprintf("%s candidate %d", prof.Workload, i), c)
		}
		c, err := core.MeasureLinked(clone.Prog, cands[0].Budget)
		if err != nil {
			t.Fatal(err)
		}
		checkLinked(t, prof.Workload+" clone", c)
	}
	// The comparison means something only if calibration did reuse work.
	if total.Reused == 0 || total.FuncsRebuilt >= funcs {
		t.Errorf("builds reused nothing: %+v over %d candidate functions", total, funcs)
	}
	t.Logf("%+v over %d candidate functions", total, funcs)
}

// checkLinked compares one linked candidate with its whole-program build.
func checkLinked(t *testing.T, name string, c core.Candidate) {
	t.Helper()
	cp, err := hlc.Check(c.Prog)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	whole, err := compiler.Compile(cp, profile.Target, profile.Level)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if c.Linked != nil && !reflect.DeepEqual(c.Linked, whole) {
		t.Errorf("%s: linked program differs from compiler.Compile's", name)
	}
	m, err := core.MeasureVM(vm.New(whole), c.Budget)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if m != c.Meas {
		t.Errorf("%s: measured %+v, whole program %+v", name, c.Meas, m)
	}
}

// TestSynthesizeConcurrent synthesizes several profiles, some of them
// more than once, at the same time and requires every clone and report to
// equal a sequential run's: no calibration state is shared between calls.
func TestSynthesizeConcurrent(t *testing.T) {
	var ws []*workloads.Workload
	for _, name := range []string{"sha/small", "crc32/small", "gsm/small1"} {
		ws = append(ws, workloads.ByName(name))
	}
	profs := profiles(t, ws)
	// Each profile twice or three times, the copies apart.
	jobs := []*profile.Profile{profs[0], profs[1], profs[0], profs[2], profs[1], profs[0]}
	type result struct {
		src string
		rep core.Report
	}
	synth := func(p *profile.Profile) (result, error) {
		cp, rep, err := core.Synthesize(p, core.Config{Seed: experiments.CloneSeed})
		if err != nil {
			return result{}, err
		}
		return result{hlc.Print(cp.Prog), rep}, nil
	}
	want := make(map[string]result)
	for _, p := range jobs {
		if _, ok := want[p.Workload]; !ok {
			r, err := synth(p)
			if err != nil {
				t.Fatal(err)
			}
			want[p.Workload] = r
		}
	}
	got := make([]result, len(jobs))
	errs := make([]error, len(jobs))
	var wg sync.WaitGroup
	for i, p := range jobs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], errs[i] = synth(p)
		}()
	}
	wg.Wait()
	for i, p := range jobs {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if got[i] != want[p.Workload] {
			t.Errorf("job %d (%s): concurrent clone or report differs from the sequential one", i, p.Workload)
		}
	}
}
