// Package generate turns the synthesis framework from "clone these
// thirteen programs" into an open-ended benchmark-suite factory: it
// embeds statistical profiles into a fixed-length feature space, analyzes
// how well the existing suite covers that space, samples new synthetic
// profiles directed at the coverage holes, and realizes each one through
// the pipeline's Synthesize → Validate path, measuring the achieved
// features of the realized clone against the requested ones.
//
// The feature space is the profile vocabulary the paper's synthesizer
// consumes (Section III.A): instruction-mix fractions, the per-site
// stride-stream summary (miss curve, stride concentration, pointer-chase
// fraction, short reuse), and the branch hard/easy mixture. Because the
// sampler only ever perturbs real profiles along these axes — under the
// same invariants profile.Load enforces — every generated point is a
// profile the synthesizer can realize, not an arbitrary vector.
package generate

import (
	"math"

	"repro/internal/isa"
	"repro/internal/profile"
)

// NumFeatures is the embedding dimension. Every Features vector has
// exactly this length.
const NumFeatures = 16

// FeatureNames labels the embedding dimensions, index-aligned with
// Features.Vec. All dimensions are normalized to [0, 1], so the unweighted
// distance metric treats them comparably.
var FeatureNames = [NumFeatures]string{
	"load",       // dynamic load fraction
	"store",      // dynamic store fraction
	"branch",     // dynamic conditional-branch fraction
	"fp",         // FP operation fraction (add+mul+div classes)
	"fpdiv",      // divide/sqrt share of FP operations
	"intmuldiv",  // integer multiply/divide fraction
	"hardbranch", // execution-weighted share of hard-to-predict branch sites
	"taken",      // execution-weighted mean branch taken rate
	"trans",      // execution-weighted mean branch transition rate
	"entropy",    // execution-weighted mean branch outcome entropy
	"miss",       // access-weighted mean miss rate at the profiling cache
	"misswide",   // access-weighted mean miss rate at the wide (8x) cache
	"chase",      // access-weighted share of irregular (pointer-chase) sites
	"stridetop",  // access-weighted mean dominant-stride concentration
	"reuse",      // access-weighted mean short-reuse fraction
	"block",      // mean dynamic basic-block size, normalized
}

// blockSizeScale normalizes the mean dynamic basic-block size (in
// instructions) into [0, 1]; blocks at or beyond this size saturate the
// dimension. The suite's blocks run from ~4 to ~20 instructions.
const blockSizeScale = 24.0

// Features is one profile's embedding: a fixed-length point in the
// generation feature space. Vectors are built in-process by FromProfile
// and persisted only inside a stored generate report, whose key carries
// the pipeline's artifact version.
type Features struct {
	// Workload names the profile the vector embeds.
	Workload string `json:"workload"`
	// Vec is the feature vector, index-aligned with FeatureNames.
	Vec []float64 `json:"vec"`
}

// FromProfile embeds a profile into the feature space. The embedding is a
// pure function of the profile's statistics, so equal profiles embed to
// equal vectors regardless of how they were produced.
func FromProfile(p *profile.Profile) Features {
	f := Features{Workload: p.Workload, Vec: make([]float64, NumFeatures)}
	total := float64(p.TotalDyn)
	if total <= 0 {
		return f
	}
	f.Vec[0] = float64(p.Mix[isa.ClassLoad]) / total
	f.Vec[1] = float64(p.Mix[isa.ClassStore]) / total
	f.Vec[2] = float64(p.Mix[isa.ClassBranch]) / total
	fpOps := float64(p.Mix[isa.ClassFPAdd] + p.Mix[isa.ClassFPMul] + p.Mix[isa.ClassFPDiv])
	f.Vec[3] = fpOps / total
	if fpOps > 0 {
		f.Vec[4] = float64(p.Mix[isa.ClassFPDiv]) / fpOps
	}
	f.Vec[5] = float64(p.Mix[isa.ClassIntMul]+p.Mix[isa.ClassIntDiv]) / total

	// Branch dimensions: weighted by each site's dynamic execution count,
	// so one hot inner-loop branch dominates a hundred cold ones.
	var brTotal, brHard, takenSum, transSum, entSum float64
	var blockInstrs, blockCount float64
	for _, n := range p.Graph.Nodes {
		if n == nil {
			continue
		}
		blockInstrs += float64(n.Count) * float64(len(n.Instrs))
		blockCount += float64(n.Count)
		b := n.Branch
		if b == nil || b.Total == 0 {
			continue
		}
		w := float64(b.Total)
		brTotal += w
		if b.Hard {
			brHard += w
		}
		takenSum += w * b.TakenRate
		transSum += w * b.TransRate
		entSum += w * binaryEntropy(b.TakenRate)
	}
	if brTotal > 0 {
		f.Vec[6] = brHard / brTotal
		f.Vec[7] = takenSum / brTotal
		f.Vec[8] = transSum / brTotal
		f.Vec[9] = entSum / brTotal
	}

	// Stream dimensions: weighted by each site's dynamic access count.
	var acc, missSum, wideSum, chaseSum, strideSum, reuseSum float64
	for _, n := range p.Graph.Nodes {
		if n == nil {
			continue
		}
		for i := range n.Instrs {
			s := n.Instrs[i].Stream
			if s == nil || s.Accesses == 0 {
				continue
			}
			w := float64(s.Accesses)
			acc += w
			missSum += w * s.MissRate
			wideSum += w * s.MissWide
			if s.Regularity < 0.5 {
				chaseSum += w
			}
			strideSum += w * s.TopFrac(1)
			reuseSum += w * s.ShortReuse
		}
	}
	if acc > 0 {
		f.Vec[10] = missSum / acc
		f.Vec[11] = wideSum / acc
		f.Vec[12] = chaseSum / acc
		f.Vec[13] = strideSum / acc
		f.Vec[14] = reuseSum / acc
	}

	if blockCount > 0 {
		f.Vec[15] = math.Min(blockInstrs/blockCount/blockSizeScale, 1)
	}
	for i, v := range f.Vec {
		f.Vec[i] = clamp01(v)
	}
	return f
}

// binaryEntropy is H(p) in bits, normalized to [0, 1] (max at p = 0.5).
func binaryEntropy(p float64) float64 {
	if p <= 0 || p >= 1 {
		return 0
	}
	return -(p*math.Log2(p) + (1-p)*math.Log2(1-p))
}

func clamp01(v float64) float64 {
	switch {
	case v < 0:
		return 0
	case v > 1:
		return 1
	}
	return v
}

// Distance is the root-mean-square distance between two feature vectors —
// the metric coverage analysis, hole detection, and the requested-vs-
// achieved error all share. Vectors of different lengths are infinitely
// far apart rather than silently comparable.
func Distance(a, b Features) float64 {
	if len(a.Vec) != len(b.Vec) || len(a.Vec) == 0 {
		return math.Inf(1)
	}
	var sum float64
	for i := range a.Vec {
		d := a.Vec[i] - b.Vec[i]
		sum += d * d
	}
	return math.Sqrt(sum / float64(len(a.Vec)))
}
