// Package core implements the paper's primary contribution: synthesizing a
// benchmark in a high-level language from a statistical profile
// (Section III.B). The pipeline is
//
//  1. scale the SFGL down by a reduction factor R (Fig. 2),
//  2. build a skeleton of loops, conditionals, and straight-line blocks by
//     weighted random walks over the scaled SFGL,
//  3. group the skeleton into synthetic functions (which deliberately do
//     not correspond to the original program's functions),
//  4. populate basic blocks with C statements through pattern recognition
//     over the profiled instruction sequences (Table II), compensating for
//     uncovered instructions,
//  5. model branches (easy branches become always/never-taken tests whose
//     dead arm prints results; hard branches become modulo tests on loop
//     iterators) and memory accesses (stride walks over pre-allocated
//     arrays, Table I).
//
// The emitted program is an hlc.Program: it can be pretty-printed for
// distribution, compiled at any optimization level for any ISA, executed,
// profiled, and fingerprinted exactly like a hand-written workload.
package core

import (
	"fmt"
	"math/rand"

	"repro/internal/cache"
	"repro/internal/compiler"
	"repro/internal/hlc"
	"repro/internal/isa"
	"repro/internal/profile"
	"repro/internal/sfgl"
	"repro/internal/vm"
)

// Config controls synthesis.
type Config struct {
	// Reduction is the factor R of Section III.B.1. Zero selects it
	// automatically so the clone executes roughly TargetDyn instructions.
	Reduction uint64
	// TargetDyn is the clone's intended dynamic instruction count when
	// Reduction is 0 (default 150k; the paper targets 10M on MiBench-scale
	// inputs — the repo's workloads are scaled down ~60x to keep `go
	// test` fast, and so is this default).
	TargetDyn uint64
	// Seed drives the semi-random binary-to-source translation that
	// obfuscates proprietary structure. Equal seeds reproduce clones
	// exactly.
	Seed int64
	// MaxSkeletonItems caps generated top-level code size as a safety
	// valve (default 4096).
	MaxSkeletonItems int
}

// debugSynth enables synthesis calibration tracing (tests only).
var debugSynth = false

// DefaultTargetDyn is the default synthetic dynamic instruction target.
const DefaultTargetDyn = 150_000

// Report summarizes a synthesis run.
type Report struct {
	Workload     string
	Reduction    uint64
	OriginalDyn  uint64
	ScaledBlocks int
	ScaledLoops  int
	// Coverage is the fraction of scaled-profile instructions consumed by
	// Table II patterns (the paper reports >95%).
	Coverage float64
	// Functions is the number of synthetic functions emitted.
	Functions int
	// StreamClasses lists the Table I classes that received stride arrays
	// (legacy-profile sites and always-hit fallbacks).
	StreamClasses []int
	// StreamWalkers counts the stream walkers materialized from per-site
	// stride descriptors; ChaseWalkers is the pointer-chase subset.
	StreamWalkers int
	// ChaseWalkers counts the pointer-chase walkers among StreamWalkers.
	ChaseWalkers int
	// HardBranchSites counts the profiled branches modeled with per-site
	// entropy streams.
	HardBranchSites int
	// MissScale is the final miss-rate feedback factor applied to walker
	// strides (1 = the profile's site miss rates were used unscaled).
	MissScale float64
	// Truncated reports that the skeleton hit MaxSkeletonItems.
	Truncated bool
}

// Synthesize generates a benchmark clone from a statistical profile and
// returns it type-checked.
func Synthesize(p *profile.Profile, cfg Config) (*hlc.CheckedProgram, Report, error) {
	if p == nil || p.Graph == nil {
		return nil, Report{}, fmt.Errorf("core: nil profile")
	}
	if cfg.TargetDyn == 0 {
		cfg.TargetDyn = DefaultTargetDyn
	}
	// Small originals get proportionally smaller clones: a proxy that runs
	// nearly as long as its original defeats the simulation-time-reduction
	// purpose (the paper's R ranges from 1 to 250 for the same reason).
	if cap := p.TotalDyn / 4; cfg.TargetDyn > cap && cap > 0 {
		cfg.TargetDyn = cap
	}
	if cfg.MaxSkeletonItems == 0 {
		cfg.MaxSkeletonItems = 4096
	}
	r := cfg.Reduction
	if r == 0 {
		r = p.TotalDyn / cfg.TargetDyn
		if r == 0 {
			r = 1
		}
	}

	// The paper picks R empirically so the clone hits a fixed dynamic
	// size; we automate that by generating, executing the candidate clone
	// (cheap — it is the reduced benchmark), and correcting R. A second
	// feedback phase then drives mix compensation: the observed load
	// fraction is compared against the profile's, and the compensation
	// loop's budget grows or shrinks until the clone's mix tracks the
	// original's (Fig. 6). A third phase retargets the stream walkers: the
	// clone's aggregate miss rate at the profiling cache is measured and
	// the per-stream miss rates are scaled until it matches the profile's.
	var prog *hlc.Program
	var rep Report
	var compDyn float64
	missScale := 1.0
	fpShare := 0.0
	brPerIter := 0.0
	generate := func() *generator {
		rng := rand.New(rand.NewSource(cfg.Seed ^ 0x5FC9))
		scaled := p.Graph.ScaleDown(r)
		sk := buildSkeleton(scaled, rng, cfg.MaxSkeletonItems)
		gen := newGenerator(scaled, rng)
		gen.compDyn = compDyn
		gen.missScale = missScale
		gen.fpShare = fpShare
		gen.brPerIter = brPerIter
		// Chase-permutation shuffles run before the work functions; cap
		// their total footprint (~7 instructions per element) so small
		// clones stay mostly work.
		gen.chaseBudget = float64(cfg.TargetDyn) / 28
		// A third of FP-compensation multiplies become divides when the
		// profile's own FP traffic is divide-heavy.
		fpTotal := p.Mix[isa.ClassFPAdd] + p.Mix[isa.ClassFPMul] + p.Mix[isa.ClassFPDiv]
		gen.fpDivThird = fpTotal > 0 && float64(p.Mix[isa.ClassFPDiv]) > 0.15*float64(fpTotal)
		prog = gen.program(sk.items)
		chases := 0
		for _, w := range gen.walkers {
			if w.kind == walkChase {
				chases++
			}
		}
		rep = Report{
			Workload:        p.Workload,
			Reduction:       r,
			OriginalDyn:     p.TotalDyn,
			ScaledBlocks:    len(scaled.Nodes),
			ScaledLoops:     len(scaled.Loops),
			Coverage:        gen.coverage(),
			Functions:       len(prog.Funcs) - 1, // excluding main
			StreamClasses:   gen.usedClasses(),
			StreamWalkers:   len(gen.walkers),
			ChaseWalkers:    chases,
			HardBranchSites: len(gen.hardBranches),
			MissScale:       missScale,
			Truncated:       sk.truncated,
		}
		return gen
	}
	gen := generate()
	profCache := p.CacheCfg
	if profCache == (cache.Config{}) {
		profCache = profile.DefaultCache
	}
	if cfg.Reduction == 0 {
		// Phase 1: calibrate R so the base clone (no compensation yet)
		// lands near TargetDyn.
		for attempt := 0; attempt < 3; attempt++ {
			actual, err := measureCloneDyn(prog, 16*cfg.TargetDyn)
			if err != nil {
				return nil, rep, fmt.Errorf("core: calibration run: %w", err)
			}
			ratio := float64(actual) / float64(cfg.TargetDyn)
			if ratio < 1.4 && ratio > 0.7 {
				break
			}
			nr := uint64(float64(r) * ratio)
			if nr < 1 {
				nr = 1
			}
			if nr == r {
				break
			}
			r = nr
			gen = generate()
		}
		// Phase 2: jointly fit the compensation budget and the miss scale.
		// The two knobs are near-orthogonal — compDyn sets the load
		// fraction (the compensation loop's size), missScale sets walker
		// strides and chase working sets (which leave instruction counts
		// almost untouched) — but each regeneration perturbs the other's
		// measurement, so both are updated from one shared measurement per
		// iteration until both land in band.
		//
		// Mix: solving (L + d*X)/(T + X) = f for the extra instructions X,
		// where d is the loop's load density, f the profile's load
		// fraction. The density bounds the reachable fraction, so f backs
		// off just under d, and the budget is capped so the clone keeps a
		// healthy reduction factor over the original (Fig. 4).
		//
		// Miss: the profile's misses per dynamic instruction at the
		// profiling cache vs. the clone's. The clone spends extra
		// instructions on translation overhead (iterators, indices, the
		// compensation loop), which dilutes per-instruction miss volume;
		// the scale concentrates the per-site miss rates until the clone
		// stalls like the original.
		targetLoadFrac := float64(p.Mix[isa.ClassLoad]) / float64(p.TotalDyn)
		targetFPFrac := float64(p.Mix[isa.ClassFPAdd]+p.Mix[isa.ClassFPMul]+p.Mix[isa.ClassFPDiv]) / float64(p.TotalDyn)
		targetBrFrac := float64(p.Mix[isa.ClassBranch]) / float64(p.TotalDyn)
		targetMiss := profileMissPerInstr(p)
		// The clone must stay well under the original's dynamic size or
		// the Fig. 4 reduction factor inverts — and near its configured
		// target, or the proxy stops being cheap; compensation never
		// grows the total beyond this ceiling.
		maxTotal := min(0.75*float64(p.TotalDyn), 3.8*float64(cfg.TargetDyn))
		// The measurement must be able to see past the ceiling, or the
		// loop would keep growing compDyn against a truncated reading
		// and the ceiling guard could never fire.
		budget := 16 * cfg.TargetDyn
		if mb := uint64(2 * maxTotal); budget < mb {
			budget = mb
		}
		for attempt := 0; attempt < 7; attempt++ {
			actual, mix, miss, err := measureClone(prog, budget, profCache)
			if err != nil {
				return nil, rep, fmt.Errorf("core: mix calibration: %w", err)
			}
			if debugSynth {
				fmt.Printf("[cal] attempt=%d dyn=%d loadFrac=%.3f/%.3f brFrac=%.3f/%.3f missPI=%.5f/%.5f compDyn=%.0f scale=%.2f brPI=%.1f fp=%.2f\n",
					attempt, actual, float64(mix[isa.ClassLoad])/float64(actual), targetLoadFrac,
					float64(mix[isa.ClassBranch])/float64(actual), targetBrFrac,
					miss, targetMiss, compDyn, missScale, brPerIter, fpShare)
			}
			if float64(actual) > maxTotal && compDyn > 0 {
				compDyn -= float64(actual) - maxTotal
				if compDyn < 0 {
					compDyn = 0
				}
				gen = generate()
				continue
			}
			changed := false
			density := gen.compDensity
			if density == 0 {
				density = compDensityEstimate
			}
			f := targetLoadFrac
			if f > density-0.05 {
				f = density - 0.05
			}
			loadFrac := float64(mix[isa.ClassLoad]) / float64(actual)
			if f > 0 && (loadFrac <= f-0.02 || loadFrac >= f+0.02) {
				delta := (f*float64(actual) - float64(mix[isa.ClassLoad])) / (density - f)
				if room := maxTotal - float64(actual); delta > room {
					delta = room
				}
				next := compDyn + delta
				if next < 0 {
					next = 0
				}
				if next != compDyn {
					compDyn = next
					changed = true
				}
			}
			// Branch density: the compensation mass must carry the
			// profile's conditional-branch fraction (with its hardness
			// mix) or the clone's mispredict density dilutes toward zero.
			// Branch statements are load-poor, so they only grow while the
			// load fraction is within reach of its own target — loads are
			// the paper's headline mix metric (Fig. 6) and win ties.
			// Branches may trade against loads only down to the Fig. 6
			// band (load fraction within 15 points of the original, kept
			// with margin); below that, loads win and branch mass sheds.
			if targetBrFrac > 0.01 && gen.compTrips > 0 {
				if loadFrac > targetLoadFrac-0.14 {
					brNeed := targetBrFrac*float64(actual) - float64(mix[isa.ClassBranch])
					delta := brNeed / float64(gen.compTrips)
					next := min(max(brPerIter+delta, 0), 64)
					if d := next - brPerIter; d > 0.5 || d < -0.5 {
						brPerIter = next
						changed = true
					}
				} else if brPerIter > 0 && loadFrac < targetLoadFrac-0.155 {
					// Load fraction sank well below its target: shed branch
					// mass back to load-dense statements. Loads are the
					// paper's headline mix metric and win the trade.
					brPerIter = max(brPerIter-2, 0)
					changed = true
				}
			}
			// FP share: size the float slice of the compensation loop so
			// the clone's FP fraction tracks the profile's (float comp
			// statements average fpCompDensity FP ops per instruction).
			if targetFPFrac > 0.02 && compDyn > 1 {
				const fpCompDensity = 0.16
				fpMeas := float64(mix[isa.ClassFPAdd] + mix[isa.ClassFPMul] + mix[isa.ClassFPDiv])
				fpNeed := targetFPFrac*float64(actual) - fpMeas
				share := min(max(fpShare+fpNeed/fpCompDensity/compDyn, 0), 0.9)
				if d := share - fpShare; d > 0.04 || d < -0.04 {
					fpShare = share
					changed = true
				}
			}
			if targetMiss > 0.002 && miss > 0 {
				ratio := targetMiss / miss
				if ratio <= 0.85 || ratio >= 1.15 {
					ratio = min(max(ratio, 0.5), 3)
					next := min(max(missScale*ratio, 0.25), 4)
					if next != missScale {
						missScale = next
						changed = true
					}
				}
			}
			if !changed {
				break
			}
			gen = generate()
		}
	}

	// The clone must be a valid HLC program; a failure here is a bug in
	// the generator, surfaced as an error for the caller.
	cp, err := hlc.Check(prog)
	if err != nil {
		return nil, rep, fmt.Errorf("core: generated clone does not type-check: %w", err)
	}
	return cp, rep, nil
}

// measureClone compiles a candidate clone at -O0 and executes it to obtain
// its true dynamic instruction count, class mix, and per-access miss rate
// at the given profiling cache. The clone is self-contained (stride arrays
// start zeroed), so no input setup is needed.
func measureClone(prog *hlc.Program, budget uint64, cacheCfg cache.Config) (uint64, [isa.NumClasses]uint64, float64, error) {
	var mix [isa.NumClasses]uint64
	cp, err := hlc.Check(prog)
	if err != nil {
		return 0, mix, 0, err
	}
	mp, err := compiler.Compile(cp, isa.AMD64, compiler.O0)
	if err != nil {
		return 0, mix, 0, err
	}
	// Per-site class table: the hook indexes it by the event's dense
	// static-site ID instead of classifying the opcode per instruction.
	lay := vm.LayoutOf(mp)
	classBySite := make([]uint8, lay.NumSites())
	for s := range classBySite {
		classBySite[s] = uint8(lay.Instr(s).Class())
	}
	c := cache.New(cacheCfg)
	var misses uint64
	res, err := vm.New(mp).Run(vm.Config{
		MaxInstrs: budget,
		Hook: func(ev *vm.Event) {
			mix[classBySite[ev.Site]]++
			if ev.IsMem && !c.Access(ev.Addr) {
				misses++
			}
		},
	})
	missPI := 0.0
	if res.DynInstrs > 0 {
		missPI = float64(misses) / float64(res.DynInstrs)
	}
	if err != nil {
		if t, ok := err.(*vm.Trap); ok && t.Reason == vm.TrapBudgetExhausted {
			return res.DynInstrs, mix, missPI, nil // budget exhausted: report the cap
		}
		return 0, mix, 0, err
	}
	return res.DynInstrs, mix, missPI, nil
}

// measureCloneDyn is measureClone without instrumentation: it compiles the
// candidate and executes it through the VM's no-hook fast path, returning
// only the dynamic instruction count. Phase-1 R calibration needs nothing
// else, and the fast path interprets several times quicker than a hooked
// run.
func measureCloneDyn(prog *hlc.Program, budget uint64) (uint64, error) {
	cp, err := hlc.Check(prog)
	if err != nil {
		return 0, err
	}
	mp, err := compiler.Compile(cp, isa.AMD64, compiler.O0)
	if err != nil {
		return 0, err
	}
	res, err := vm.New(mp).Run(vm.Config{MaxInstrs: budget})
	if err != nil {
		if t, ok := err.(*vm.Trap); ok && t.Reason == vm.TrapBudgetExhausted {
			return res.DynInstrs, nil // budget exhausted: report the cap
		}
		return 0, err
	}
	return res.DynInstrs, nil
}

// profileMissPerInstr returns the profile's misses per dynamic instruction
// at the profiling cache, computed from its stream descriptors. Misses per
// instruction — not per access — is the retargeting metric because the
// clone's access population includes index and iterator overhead the
// original does not have, while both sides execute comparable instruction
// volumes per unit of profiled work. Profiles without streams report 0,
// which disables the miss-retargeting phase.
func profileMissPerInstr(p *profile.Profile) float64 {
	if p.TotalDyn == 0 {
		return 0
	}
	var missVol float64
	for _, n := range p.Graph.Nodes {
		for i := range n.Instrs {
			if s := n.Instrs[i].Stream; s != nil {
				missVol += float64(s.Accesses) * s.MissRate
			}
		}
	}
	return missVol / float64(p.TotalDyn)
}

// Consolidate merges several profiles into one (Section II.B.e, "benchmark
// consolidation"): node/edge/loop sets are concatenated with function
// indices re-based, and dynamic totals added. Synthesizing from the merged
// profile yields a single proxy representative of the whole set.
func Consolidate(name string, profiles ...*profile.Profile) (*profile.Profile, error) {
	if len(profiles) == 0 {
		return nil, fmt.Errorf("core: nothing to consolidate")
	}
	out := &profile.Profile{Workload: name, Graph: &sfgl.Graph{}}
	nodeBase, funcBase, loopBase := 0, 0, 0
	for _, p := range profiles {
		out.TotalDyn += p.TotalDyn
		for i, c := range p.Mix {
			out.Mix[i] += c
		}
		g := p.Graph
		for i, fn := range g.FuncNames {
			out.Graph.FuncNames = append(out.Graph.FuncNames, fmt.Sprintf("%s.%s", p.Workload, fn))
			out.Graph.FuncCalls = append(out.Graph.FuncCalls, g.FuncCalls[i])
		}
		for _, n := range g.Nodes {
			nn := *n
			nn.ID += nodeBase
			nn.Func += funcBase
			out.Graph.Nodes = append(out.Graph.Nodes, &nn)
		}
		for _, e := range g.Edges {
			out.Graph.Edges = append(out.Graph.Edges,
				&sfgl.Edge{From: e.From + nodeBase, To: e.To + nodeBase, Count: e.Count})
		}
		for _, l := range g.Loops {
			nl := *l
			nl.ID += loopBase
			nl.Func += funcBase
			nl.Header += nodeBase
			if nl.Parent >= 0 {
				nl.Parent += loopBase
			}
			nl.Nodes = nil
			for _, id := range l.Nodes {
				nl.Nodes = append(nl.Nodes, id+nodeBase)
			}
			out.Graph.Loops = append(out.Graph.Loops, &nl)
		}
		nodeBase += len(g.Nodes)
		funcBase += len(g.FuncNames)
		loopBase += len(g.Loops)
	}
	out.CacheCfg = profiles[0].CacheCfg
	return out, nil
}
