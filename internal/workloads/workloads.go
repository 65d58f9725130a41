// Package workloads provides the MiBench-equivalent benchmark suite: the
// thirteen embedded kernels of the paper's evaluation (Guthaus et al.,
// WWC 2001), re-implemented in HLC, with deterministic synthetic inputs in
// small and large variants — the same 32 workload/input pairs that label
// the x-axis of the paper's Fig. 4.
//
// Substitution note (recorded in DESIGN.md): MiBench's C sources and input
// files are not redistributable here, so each kernel re-implements the same
// algorithm (ADPCM codec, CRC-32, Dijkstra, FFT, SHA-1 style hashing, …)
// and inputs are generated pseudo-randomly from fixed seeds. What matters
// for the paper's claims is that the suite spans the same behavioural
// range: integer vs floating point, regular vs irregular control flow,
// cache-friendly vs cache-hostile access patterns.
package workloads

import (
	"fmt"
	"math/rand"

	"repro/internal/vm"
)

// Input is one global-variable initialization.
type Input struct {
	Name   string
	Ints   []int64
	Floats []float64
}

// Workload is one benchmark/input pair.
type Workload struct {
	Name   string // e.g. "adpcm/large1"
	Bench  string // e.g. "adpcm"
	Source string // HLC source text
	Inputs []Input
}

// Setup installs the workload's inputs into a VM.
func (w *Workload) Setup(m *vm.VM) error {
	for _, in := range w.Inputs {
		if in.Floats != nil {
			if err := m.SetFloats(in.Name, in.Floats); err != nil {
				return fmt.Errorf("workload %s: %w", w.Name, err)
			}
			continue
		}
		if err := m.SetInts(in.Name, in.Ints); err != nil {
			return fmt.Errorf("workload %s: %w", w.Name, err)
		}
	}
	return nil
}

func scalar(name string, v int64) Input { return Input{Name: name, Ints: []int64{v}} }

// randInts generates a deterministic pseudo-random int array with values in
// [0, mod).
func randInts(seed int64, n int, mod int64) []int64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]int64, n)
	for i := range out {
		out[i] = rng.Int63n(mod)
	}
	return out
}

// randFloats generates a deterministic pseudo-random float array in [lo,hi).
func randFloats(seed int64, n int, lo, hi float64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]float64, n)
	for i := range out {
		out[i] = lo + rng.Float64()*(hi-lo)
	}
	return out
}

var registry []*Workload

func register(w *Workload) *Workload {
	registry = append(registry, w)
	return w
}

// All returns the full suite in the paper's Fig. 4 order. The slice is
// shared; callers must not mutate it.
func All() []*Workload { return registry }

// ByName returns the named workload, or nil.
func ByName(name string) *Workload {
	for _, w := range registry {
		if w.Name == name {
			return w
		}
	}
	return nil
}
