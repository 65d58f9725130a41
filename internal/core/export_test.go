package core

import (
	"repro/internal/hlc"
	"repro/internal/isa"
	"repro/internal/profile"
	"repro/internal/vm"
)

// Internals driven by the external tests in package core_test. Those
// tests profile the quick suite through the pipeline, and an internal
// test importing the pipeline would be an import cycle.

// BuildStats is the work one Synthesize call's builder did.
type BuildStats struct {
	Measurements int // candidates run
	Reused       int // candidates served a measurement run before
	FuncsRebuilt int // functions compiled
}

// Measurement is what one calibration run observed.
type Measurement struct {
	Dyn    uint64
	Mix    [isa.NumClasses]uint64
	MissPI float64
}

// Candidate is a candidate clone as a builder measured it: Linked is the
// program compiler.Link assembled from the functions' objects, or nil
// when the candidate was served the previous run's measurement.
type Candidate struct {
	Prog   *hlc.Program
	Linked *isa.Program
	Budget uint64
	Meas   Measurement
}

func exportCandidate(c *candidate) Candidate {
	return Candidate{Prog: c.prog, Linked: c.linked, Budget: c.budget,
		Meas: Measurement{Dyn: c.meas.dyn, Mix: c.meas.mix, MissPI: c.meas.missPI}}
}

// SynthesizeObserved is Synthesize, also returning its builder's work and
// handing every candidate it measures to observe when that is non-nil.
func SynthesizeObserved(p *profile.Profile, cfg Config, observe func(Candidate)) (*hlc.CheckedProgram, Report, BuildStats, error) {
	b := newBuilder()
	if observe != nil {
		b.observe = func(c *candidate) { observe(exportCandidate(c)) }
	}
	cp, rep, err := synthesize(p, cfg, b)
	s := b.stats
	return cp, rep, BuildStats{s.measurements, s.reused, s.funcsRebuilt}, err
}

// MeasureLinked builds prog per function, links it and runs it under
// budget, as a fresh builder does.
func MeasureLinked(prog *hlc.Program, budget uint64) (Candidate, error) {
	var c Candidate
	b := newBuilder()
	b.observe = func(bc *candidate) { c = exportCandidate(bc) }
	_, err := b.measure(prog, budget)
	return c, err
}

// MeasureVM runs a loaded clone under budget as calibration runs a
// candidate.
func MeasureVM(m *vm.VM, budget uint64) (Measurement, error) {
	obs, err := measureRun(m, budget)
	return Measurement{Dyn: obs.dyn, Mix: obs.mix, MissPI: obs.missPI}, err
}
