package generate

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/isa"
	"repro/internal/profile"
	"repro/internal/sfgl"
)

// MutableAxes lists the feature axes the sampler can perturb. Each axis
// mutates the underlying profile statistics the synthesizer actually
// consumes — mix counts, stream descriptors, branch rates — never the
// embedding directly, so every sampled point remains a realizable profile.
var MutableAxes = []string{
	"load", "store", "branch", "fp", "fpdiv", "intmuldiv",
	"hardbranch", "taken", "miss", "chase", "stridetop", "reuse",
}

// axisKnown reports whether name is a mutable axis.
func axisKnown(name string) bool {
	for _, a := range MutableAxes {
		if a == name {
			return true
		}
	}
	return false
}

// axisBounds maps each mutable axis to the range its perturbations aim
// for, index-aligned with MutableAxes. The bounds stay inside what the
// synthesizer can express (a clone cannot be 90% loads), so directed
// points remain realizable instead of piling up rejects.
var axisBounds = map[string][2]float64{
	"load":       {0.02, 0.45},
	"store":      {0.01, 0.30},
	"branch":     {0.02, 0.35},
	"fp":         {0.00, 0.40},
	"fpdiv":      {0.00, 0.60}, // share of FP ops
	"intmuldiv":  {0.00, 0.25},
	"hardbranch": {0.02, 0.98}, // realized via transition-rate mutation
	"taken":      {0.05, 0.95},
	"miss":       {0.00, 0.65},
	"chase":      {0.05, 0.95}, // realized via stream regularity
	"stridetop":  {0.15, 1.00},
	"reuse":      {0.00, 0.90},
}

// SampledPoint is one directed sample: the synthetic profile and the
// metadata the report carries.
type SampledPoint struct {
	// Name is the point's corpus-unique name (e.g. "gen-003").
	Name string
	// Base names the real workload the point was perturbed from.
	Base string
	// Axes lists the perturbed feature axes.
	Axes []string
	// Profile is the synthetic profile, ready for SynthesizeProfile.
	Profile *profile.Profile
	// Requested is the profile's embedding — the point the sampler asked
	// the synthesizer to realize.
	Requested Features
}

// Sample runs the directed sampler: for each of spec.N points it scores
// spec.Candidates() candidate mutants — a random baseline profile
// perturbed along 2-4 random axes — by their distance to the nearest
// already-covered point (baseline plus earlier samples) and keeps the
// farthest. The sampler is sequential and seeded, so the same spec and
// baseline produce the identical corpus on any machine or worker count.
func Sample(spec *Spec, baseline []*profile.Profile) ([]SampledPoint, error) {
	if len(baseline) == 0 {
		return nil, fmt.Errorf("generate: no baseline profiles to perturb")
	}
	covered := make([]Features, 0, len(baseline)+spec.N)
	for _, p := range baseline {
		covered = append(covered, FromProfile(p))
	}
	rng := rand.New(rand.NewSource(spec.Seed))
	axes := spec.axes()
	out := make([]SampledPoint, 0, spec.N)
	usedBase := make(map[string]bool)
	for i := 0; i < spec.N; i++ {
		name := fmt.Sprintf("%s-%03d", spec.name(), i)
		var best SampledPoint
		bestScore := math.Inf(-1)
		for c := 0; c < spec.candidates(); c++ {
			base := baseline[rng.Intn(len(baseline))]
			picked := pickAxes(rng, axes, 2+rng.Intn(3))
			mutant := cloneProfile(base)
			mutant.Workload = name
			for _, axis := range picked {
				mutateAxis(rng, mutant, axis, spec.strength())
			}
			if err := mutant.Validate(); err != nil {
				continue // a mutation drove the profile out of bounds
			}
			feats := FromProfile(mutant)
			score := nearestDistance(feats, covered)
			// Synthesis can saturate mutations, so two mutants of one base
			// may realize to near-identical clones even when their requested
			// vectors differ. Discount repeat bases to spread the corpus
			// across distinct source behaviors.
			if usedBase[base.Workload] {
				score *= 0.9
			}
			if score > bestScore {
				bestScore = score
				best = SampledPoint{Name: name, Base: base.Workload, Axes: picked,
					Profile: mutant, Requested: feats}
			}
		}
		if best.Profile == nil {
			return nil, fmt.Errorf("generate: point %s: every candidate mutation was invalid", name)
		}
		covered = append(covered, best.Requested)
		usedBase[best.Base] = true
		out = append(out, best)
	}
	return out, nil
}

// pickAxes selects n distinct axes in deterministic (rng-driven) order.
func pickAxes(rng *rand.Rand, axes []string, n int) []string {
	if n > len(axes) {
		n = len(axes)
	}
	perm := rng.Perm(len(axes))
	out := make([]string, n)
	for i := 0; i < n; i++ {
		out[i] = axes[perm[i]]
	}
	return out
}

// lerp moves v a fraction s of the way toward target.
func lerp(v, target, s float64) float64 { return v + (target-v)*s }

// mutateAxis perturbs one axis of the profile toward a random end of its
// bound, scaled by strength. Every mutation preserves the profile
// invariants profile.Profile.Validate enforces.
func mutateAxis(rng *rand.Rand, p *profile.Profile, axis string, strength float64) {
	b := axisBounds[axis]
	target := b[0]
	if rng.Intn(2) == 1 {
		target = b[1]
	}
	// Randomize the step so candidate mutants spread along the axis
	// instead of piling onto one point.
	s := strength * (0.5 + 0.5*rng.Float64())
	switch axis {
	case "load":
		setMixFraction(p, isa.ClassLoad, lerpFrac(p, isa.ClassLoad, target, s))
	case "store":
		setMixFraction(p, isa.ClassStore, lerpFrac(p, isa.ClassStore, target, s))
	case "branch":
		setMixFraction(p, isa.ClassBranch, lerpFrac(p, isa.ClassBranch, target, s))
	case "intmuldiv":
		cur := mixFrac(p, isa.ClassIntMul) + mixFrac(p, isa.ClassIntDiv)
		setMixFraction(p, isa.ClassIntMul, lerp(cur, target, s))
	case "fp":
		mutateFPShare(p, target, s)
	case "fpdiv":
		mutateFPDivShare(p, target, s)
	case "taken":
		forEachBranch(p, func(bi *sfgl.BranchInfo) {
			bi.TakenRate = clamp01(lerp(bi.TakenRate, target, s))
			bi.Taken = uint64(bi.TakenRate * float64(bi.Total))
		})
	case "hardbranch":
		// Hard sites have mid-range transition rates (0.15 < t < 0.85).
		// Pull every site's transition rate toward 0.5 to harden the
		// mixture, or toward its nearest extreme to soften it.
		harden := target >= 0.5
		forEachBranch(p, func(bi *sfgl.BranchInfo) {
			goal := 0.5
			if !harden {
				goal = 0.02
				if bi.TransRate >= 0.5 {
					goal = 0.98
				}
			}
			bi.TransRate = clamp01(lerp(bi.TransRate, goal, s))
			bi.Transitions = uint64(bi.TransRate * float64(bi.Total))
			bi.Hard = bi.TransRate > 0.15 && bi.TransRate < 0.85
		})
	case "miss":
		forEachStream(p, func(st *sfgl.Stream) {
			st.MissRate = clamp01(lerp(st.MissRate, target, s))
			st.MissWide = math.Min(st.MissWide, st.MissRate)
			if target > 0.3 {
				// Streaming misses escape the wide cache too.
				st.MissWide = clamp01(lerp(st.MissWide, st.MissRate, s))
			}
		})
	case "chase":
		// Chase sites are irregular (regularity < 0.5) with scattered
		// strides; regular walks are the opposite.
		irregular := target >= 0.5
		forEachStream(p, func(st *sfgl.Stream) {
			goal := 0.95
			if irregular {
				goal = 0.05
			}
			st.Regularity = clamp01(lerp(st.Regularity, goal, s))
		})
	case "stridetop":
		forEachStream(p, func(st *sfgl.Stream) {
			reshapeStrides(st, target, s)
		})
	case "reuse":
		forEachStream(p, func(st *sfgl.Stream) {
			st.ShortReuse = clamp01(lerp(st.ShortReuse, target, s))
		})
	}
}

// mixFrac returns one class's dynamic fraction.
func mixFrac(p *profile.Profile, class isa.Class) float64 {
	if p.TotalDyn == 0 {
		return 0
	}
	return float64(p.Mix[class]) / float64(p.TotalDyn)
}

// lerpFrac interpolates a class's fraction toward target.
func lerpFrac(p *profile.Profile, class isa.Class, target, s float64) float64 {
	return lerp(mixFrac(p, class), target, s)
}

// setMixFraction sets one class's dynamic fraction, compensating the
// difference out of the filler classes (int ALU, then other) so the mix
// still sums to TotalDyn. The move saturates when the filler classes run
// dry rather than going negative.
func setMixFraction(p *profile.Profile, class isa.Class, frac float64) {
	want := uint64(clamp01(frac) * float64(p.TotalDyn))
	moveMixCount(p, class, want)
}

// moveMixCount sets Mix[class] = want, balancing against the fillers.
func moveMixCount(p *profile.Profile, class isa.Class, want uint64) {
	cur := p.Mix[class]
	if want > cur {
		need := want - cur
		for _, filler := range []isa.Class{isa.ClassIntALU, isa.ClassOther} {
			take := min(need, p.Mix[filler])
			p.Mix[filler] -= take
			p.Mix[class] += take
			need -= take
			if need == 0 {
				break
			}
		}
	} else {
		p.Mix[isa.ClassIntALU] += cur - want
		p.Mix[class] = want
	}
}

// mutateFPShare moves the total FP-operation fraction toward target,
// distributing the change over the FP classes proportionally (all into
// FPAdd when the profile had none).
func mutateFPShare(p *profile.Profile, target, s float64) {
	cur := mixFrac(p, isa.ClassFPAdd) + mixFrac(p, isa.ClassFPMul) + mixFrac(p, isa.ClassFPDiv)
	want := uint64(clamp01(lerp(cur, target, s)) * float64(p.TotalDyn))
	have := p.Mix[isa.ClassFPAdd] + p.Mix[isa.ClassFPMul] + p.Mix[isa.ClassFPDiv]
	if want > have {
		need := want - have
		for _, filler := range []isa.Class{isa.ClassIntALU, isa.ClassOther} {
			take := min(need, p.Mix[filler])
			p.Mix[filler] -= take
			p.Mix[isa.ClassFPAdd] += take
			need -= take
			if need == 0 {
				break
			}
		}
		return
	}
	// Shrink proportionally, largest class first to absorb rounding.
	give := have - want
	for _, cls := range []isa.Class{isa.ClassFPAdd, isa.ClassFPMul, isa.ClassFPDiv} {
		take := min(give, p.Mix[cls])
		p.Mix[cls] -= take
		p.Mix[isa.ClassIntALU] += take
		give -= take
		if give == 0 {
			break
		}
	}
}

// mutateFPDivShare moves the divide share of FP operations toward target,
// keeping the FP total constant by trading FPDiv against FPAdd/FPMul.
func mutateFPDivShare(p *profile.Profile, target, s float64) {
	fpTotal := p.Mix[isa.ClassFPAdd] + p.Mix[isa.ClassFPMul] + p.Mix[isa.ClassFPDiv]
	if fpTotal == 0 {
		return // no FP work to reshape; the fp axis creates some first
	}
	cur := float64(p.Mix[isa.ClassFPDiv]) / float64(fpTotal)
	want := uint64(clamp01(lerp(cur, target, s)) * float64(fpTotal))
	if want > p.Mix[isa.ClassFPDiv] {
		need := want - p.Mix[isa.ClassFPDiv]
		for _, cls := range []isa.Class{isa.ClassFPAdd, isa.ClassFPMul} {
			take := min(need, p.Mix[cls])
			p.Mix[cls] -= take
			p.Mix[isa.ClassFPDiv] += take
			need -= take
			if need == 0 {
				break
			}
		}
	} else {
		give := p.Mix[isa.ClassFPDiv] - want
		p.Mix[isa.ClassFPDiv] -= give
		p.Mix[isa.ClassFPAdd] += give
	}
}

// reshapeStrides moves a site's dominant-stride concentration toward
// target while preserving the total stride mass, so the stream stays a
// valid histogram.
func reshapeStrides(st *sfgl.Stream, target, s float64) {
	if len(st.Strides) == 0 {
		return
	}
	var mass float64
	for _, b := range st.Strides {
		mass += b.Frac
	}
	if mass <= 0 {
		return
	}
	topShare := st.Strides[0].Frac / mass
	wantShare := clamp01(lerp(topShare, target, s))
	if len(st.Strides) == 1 {
		return // a single bin is always 100% concentrated
	}
	// Rescale: the top bin takes wantShare of the mass, the tail splits
	// the rest in its existing proportions.
	tail := mass - st.Strides[0].Frac
	st.Strides[0].Frac = wantShare * mass
	rest := mass - st.Strides[0].Frac
	for i := 1; i < len(st.Strides); i++ {
		if tail > 0 {
			st.Strides[i].Frac = rest * (st.Strides[i].Frac / tail)
		} else {
			st.Strides[i].Frac = rest / float64(len(st.Strides)-1)
		}
	}
}

// forEachBranch applies fn to every conditional-branch site.
func forEachBranch(p *profile.Profile, fn func(*sfgl.BranchInfo)) {
	for _, n := range p.Graph.Nodes {
		if n != nil && n.Branch != nil && n.Branch.Total > 0 {
			fn(n.Branch)
		}
	}
}

// forEachStream applies fn to every memory-access stream descriptor.
func forEachStream(p *profile.Profile, fn func(*sfgl.Stream)) {
	for _, n := range p.Graph.Nodes {
		if n == nil {
			continue
		}
		for i := range n.Instrs {
			if s := n.Instrs[i].Stream; s != nil {
				fn(s)
			}
		}
	}
}

// cloneProfile deep-copies a profile so mutations never alias the cached
// baseline artifact (the pipeline shares cached profiles by pointer).
func cloneProfile(p *profile.Profile) *profile.Profile {
	out := *p
	g := p.Graph
	ng := &sfgl.Graph{
		FuncNames: append([]string(nil), g.FuncNames...),
		FuncCalls: append([]uint64(nil), g.FuncCalls...),
	}
	for _, n := range g.Nodes {
		if n == nil {
			continue
		}
		nn := *n
		nn.Instrs = make([]sfgl.InstrInfo, len(n.Instrs))
		for i, ins := range n.Instrs {
			nn.Instrs[i] = ins
			if ins.Stream != nil {
				st := *ins.Stream
				st.Strides = append([]sfgl.StrideBin(nil), ins.Stream.Strides...)
				nn.Instrs[i].Stream = &st
			}
		}
		if n.Branch != nil {
			b := *n.Branch
			nn.Branch = &b
		}
		ng.Nodes = append(ng.Nodes, &nn)
	}
	for _, e := range g.Edges {
		ne := *e
		ng.Edges = append(ng.Edges, &ne)
	}
	for _, l := range g.Loops {
		nl := *l
		nl.Nodes = append([]int(nil), l.Nodes...)
		ng.Loops = append(ng.Loops, &nl)
	}
	out.Graph = ng
	return &out
}
