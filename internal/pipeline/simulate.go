package pipeline

import (
	"context"
	"fmt"

	"repro/internal/compiler"
	"repro/internal/cpu"
	"repro/internal/isa"
	"repro/internal/workloads"
)

// This file is the Simulate stage: timing simulation of a compiled
// program — original or clone — on one machine configuration, as a
// first-class cached pipeline artifact, and the column calls that time
// one program on many configurations per interpretation. The key carries
// the machine config's content fingerprint (cpu.Config.Fingerprint)
// alongside the usual workload/ISA/level coordinates, so a design-space
// sweep that revisits a (workload, level, config) point — a warm `synth
// explore` rerun, a cluster worker re-leasing a shard, an overlapping
// sweep — recomputes nothing.

// simKey builds the Simulate-stage cache key. Clone simulations extend
// the clone-artifact key (seed, profiling point) so that clones
// synthesized under different seeds never share simulation artifacts;
// original simulations are keyed by the compile point alone. The
// simulation bound rides inside Sim.
func (p *Pipeline) simKey(w *workloads.Workload, target *isa.Desc, level compiler.OptLevel, cfg cpu.Config, clone bool, maxInstrs uint64) Key {
	var k Key
	if clone {
		k = p.cloneKey(StageSimulate, w)
	} else {
		k = Key{Stage: StageSimulate, Workload: w.Name, Src: srcID(w)}
	}
	k.ISA, k.Level = target.Name, level
	k.Sim = fmt.Sprintf("%s:%d", cfg.Fingerprint(), maxInstrs)
	return k
}

// simGroup bounds how many timing models one traced interpretation
// drives. A group pays for interpretation once instead of once per design
// point, and for each distinct cache geometry and predictor once (the
// shared front end), but each of its timing back ends (ROB, store queue,
// register table), and the caches and predictor tables of every geometry
// and predictor it mixes, stay live for the whole run, so a pool worker
// holds up to simGroup models at a time. On the 48-point calibration sweep with two
// workers (2-vCPU Xeon), eight ran it about twice as fast as one point at
// a time at the same peak memory; 16 and 48 ran no faster and raised peak
// memory by 17% and 26%. The width changes speed and memory, never
// results, so it is a constant rather than an option.
const simGroup = 8

// Simulate runs the Simulate stage: execute the workload (clone=false)
// or its synthetic clone (clone=true), compiled at (target, level), on
// the machine configuration cfg, bounded by maxInstrs dynamic
// instructions (0 = unbounded). Results are cached and persisted under
// the config's fingerprint.
func (p *Pipeline) Simulate(ctx context.Context, w *workloads.Workload, target *isa.Desc, level compiler.OptLevel, cfg cpu.Config, clone bool, maxInstrs uint64) (cpu.Summary, error) {
	sums, err := p.SimulateColumn(ctx, w, target, level, []cpu.Config{cfg}, clone, maxInstrs)
	if err != nil {
		return cpu.Summary{}, err
	}
	return sums[0], nil
}

// SimulateColumn runs the Simulate stage for one program — the workload
// (clone=false) or its clone, compiled at (target, level) — on every
// configuration in cfgs and returns the summaries in cfgs order. Each
// summary is cached and persisted under the key Simulate files it under,
// with one cache lookup per key in cfgs order, so a column costs the same
// store traffic and computed-artifact counts as len(cfgs) Simulate calls.
// What changes is the interpretation: the first key that misses times the
// program on its own config and up to simGroup-1 following ones in a
// single cpu.SimulateMany run, and those keys' computations then return
// the precomputed summaries.
func (p *Pipeline) SimulateColumn(ctx context.Context, w *workloads.Workload, target *isa.Desc, level compiler.OptLevel, cfgs []cpu.Config, clone bool, maxInstrs uint64) ([]cpu.Summary, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	stageErr := func(err error) error {
		return &StageError{Stage: StageSimulate, Workload: w.Name,
			ISA: target.Name, Level: level, Clone: clone, Err: err}
	}
	keys := make([]Key, len(cfgs))
	for i, cfg := range cfgs {
		if err := cfg.Validate(); err != nil {
			return nil, stageErr(err)
		}
		keys[i] = p.simKey(w, target, level, cfg, clone, maxInstrs)
	}
	out := make([]cpu.Summary, len(cfgs))
	var group []cpu.Summary // summaries of cfgs[at:at+len(group)]
	at := 0
	for i, key := range keys {
		v, err := p.cache.do(ctx, key, func(ctx context.Context) (any, error) {
			if i >= at && i < at+len(group) {
				return group[i-at], nil
			}
			var (
				prog *isa.Program
				err  error
			)
			if clone {
				prog, err = p.CompileClone(ctx, w, target, level)
			} else {
				prog, err = p.Compile(ctx, w, target, level)
			}
			if err != nil {
				return nil, err
			}
			setup := w.Setup
			if clone {
				setup = nil // clones are self-contained and need no inputs
			}
			res, err := cpu.SimulateMany(prog, setup, cfgs[i:min(i+simGroup, len(cfgs))], maxInstrs)
			if err != nil {
				return nil, stageErr(err)
			}
			group, at = res, i
			return group[0], nil
		})
		if err != nil {
			return nil, err
		}
		out[i] = v.(cpu.Summary)
	}
	return out, nil
}

// Column names one program a design-space sweep times: a workload or its
// clone, compiled at one optimization level. The ISA comes from each
// configuration it is timed on.
type Column struct {
	// Workload is the workload timed, or the one whose clone is.
	Workload *workloads.Workload
	// Level is the optimization level the program is compiled at.
	Level compiler.OptLevel
	// Clone selects the synthetic clone instead of the original.
	Clone bool
}

// SimulateColumns times every column on every configuration through
// SimulateColumn and returns the summaries indexed [column][config]. The
// configurations are split into batches of at most simGroup sharing an
// ISA, in cfgs order, and each (column, batch) is one job on the
// pipeline's worker pool: a cold batch is one interpretation, a sweep over
// few programs still spreads over every worker, and no worker holds more
// than simGroup timing models. Jobs run batch-major (every column's first
// batch, then every column's second), so concurrent workers usually time
// different programs; column-major order ran the same program's batches
// side by side and raised a calibration sweep's peak memory by about 8%.
// This is the one loop explore.Run and the cluster's exploration jobs
// share.
func (p *Pipeline) SimulateColumns(ctx context.Context, cols []Column, cfgs []cpu.Config, maxInstrs uint64) ([][]cpu.Summary, error) {
	var batches [][]int // indices into cfgs
	open := map[*isa.Desc]int{}
	for i, cfg := range cfgs {
		if err := cfg.Validate(); err != nil {
			return nil, err
		}
		b, ok := open[cfg.ISA]
		if !ok || len(batches[b]) == simGroup {
			b = len(batches)
			batches = append(batches, nil)
			open[cfg.ISA] = b
		}
		batches[b] = append(batches[b], i)
	}
	type job struct{ col, batch int }
	jobs := make([]job, 0, len(cols)*len(batches))
	for b := range batches {
		for c := range cols {
			jobs = append(jobs, job{c, b})
		}
	}
	res, err := Map(ctx, p, jobs, func(ctx context.Context, j job) ([]cpu.Summary, error) {
		col, idx := cols[j.col], batches[j.batch]
		bc := make([]cpu.Config, len(idx))
		for k, i := range idx {
			bc[k] = cfgs[i]
		}
		return p.SimulateColumn(ctx, col.Workload, bc[0].ISA, col.Level, bc, col.Clone, maxInstrs)
	})
	if err != nil {
		return nil, err
	}
	out := make([][]cpu.Summary, len(cols))
	for c := range out {
		out[c] = make([]cpu.Summary, len(cfgs))
	}
	for k, j := range jobs {
		for n, i := range batches[j.batch] {
			out[j.col][i] = res[k][n]
		}
	}
	return out, nil
}

// SimPair holds the original's and the clone's simulation summaries at
// one (workload, level, machine configuration) design point.
type SimPair struct {
	// Orig and Syn are the original's and clone's summaries.
	Orig cpu.Summary `json:"orig"`
	Syn  cpu.Summary `json:"syn"`
}

// SimulatePair simulates both the original and the synthetic clone at
// one design point, sharing compile/profile/synthesis work through the
// cache. It is the unit of work one exploration cell costs.
func (p *Pipeline) SimulatePair(ctx context.Context, w *workloads.Workload, target *isa.Desc, level compiler.OptLevel, cfg cpu.Config, maxInstrs uint64) (SimPair, error) {
	orig, err := p.Simulate(ctx, w, target, level, cfg, false, maxInstrs)
	if err != nil {
		return SimPair{}, err
	}
	syn, err := p.Simulate(ctx, w, target, level, cfg, true, maxInstrs)
	if err != nil {
		return SimPair{}, err
	}
	return SimPair{Orig: orig, Syn: syn}, nil
}

// SimKeys returns the keys of the two simulation artifacts a
// SimulatePair call persists (original first, clone second), mirroring
// Simulate's key construction the way PairKeys mirrors PairAt's. The
// cluster coordinator probes these (on top of PairKeys) to deduplicate
// exploration jobs against already-stored sweeps;
// TestSimKeysMatchStoredDigests guards against drift.
func (p *Pipeline) SimKeys(w *workloads.Workload, target *isa.Desc, level compiler.OptLevel, cfg cpu.Config, maxInstrs uint64) []Key {
	return []Key{
		p.simKey(w, target, level, cfg, false, maxInstrs),
		p.simKey(w, target, level, cfg, true, maxInstrs),
	}
}
