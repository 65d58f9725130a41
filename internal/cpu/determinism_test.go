package cpu_test

import (
	"encoding/json"
	"sync"
	"testing"

	"repro/internal/compiler"
	"repro/internal/cpu"
	"repro/internal/experiments"
	"repro/internal/hlc"
	"repro/internal/workloads"
)

// simBudget bounds each determinism simulation so the full machine ×
// workload grid stays test-sized; truncated runs are valid measurements
// (see Simulate) and just as deterministic as complete ones.
const simBudget = 200_000

// TestSimulateDeterminism runs every quick-suite workload on every
// Table III machine twice — concurrently, so `-race` also proves the
// models share no hidden state — and requires the two results to be
// byte-identical once serialized. Simulation summaries are
// content-addressed cache artifacts: any nondeterminism here would
// poison shared stores, so this is a contract, not a smoke test.
func TestSimulateDeterminism(t *testing.T) {
	suite := experiments.Quick()
	if len(suite) == 0 {
		t.Fatal("empty quick suite")
	}
	for _, m := range cpu.Machines {
		m := m
		t.Run(m.Name, func(t *testing.T) {
			progs := make(map[string]func() ([]byte, error), len(suite))
			for _, w := range suite {
				w := w
				cp, err := hlc.Check(mustParse(t, w))
				if err != nil {
					t.Fatalf("%s: %v", w.Name, err)
				}
				prog, err := compiler.Compile(cp, m.ISA, compiler.O2)
				if err != nil {
					t.Fatalf("%s: %v", w.Name, err)
				}
				progs[w.Name] = func() ([]byte, error) {
					res, err := cpu.Simulate(prog, w.Setup, m, simBudget)
					if err != nil {
						return nil, err
					}
					return json.Marshal(res)
				}
			}
			for _, w := range suite {
				w := w
				run := progs[w.Name]
				t.Run(w.Name, func(t *testing.T) {
					t.Parallel()
					var wg sync.WaitGroup
					out := make([][]byte, 2)
					errs := make([]error, 2)
					for i := range out {
						wg.Add(1)
						go func(i int) {
							defer wg.Done()
							out[i], errs[i] = run()
						}(i)
					}
					wg.Wait()
					for i, err := range errs {
						if err != nil {
							t.Fatalf("run %d: %v", i, err)
						}
					}
					if string(out[0]) != string(out[1]) {
						t.Errorf("simulation is nondeterministic:\nrun 0: %s\nrun 1: %s", out[0], out[1])
					}
				})
			}
		})
	}
}

// mustParse parses a workload's HLC source.
func mustParse(t testing.TB, w *workloads.Workload) *hlc.Program {
	t.Helper()
	prog, err := hlc.Parse(w.Source)
	if err != nil {
		t.Fatalf("%s: %v", w.Name, err)
	}
	return prog
}
