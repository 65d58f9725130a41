package explore

import (
	"repro/internal/cluster"
	"repro/internal/cpu"
)

// ClusterSpec translates a resolved sweep into a cluster dispatch spec:
// one exploration job per workload, each simulating every design point
// at every level. seed pins the one pipeline option every worker must
// share, so the fleet's simulation keys match the dispatcher's by
// construction.
//
// After the queue drains, Run over the same store aggregates the report
// without recomputing anything — every cell is a warm simulate hit.
func (sw *Sweep) ClusterSpec(seed int64) cluster.Spec {
	names := make([]string, len(sw.Workloads))
	for i, w := range sw.Workloads {
		names[i] = w.Name
	}
	// The compile grid's ISAs are the distinct point ISAs, in point
	// order (a sweep normally has exactly one: the baseline's).
	var isas []string
	seen := map[string]bool{}
	points := make([]cpu.Config, len(sw.Points))
	for i, pt := range sw.Points {
		points[i] = pt.Spec
		if name := pt.Spec.ISA.Name; !seen[name] {
			seen[name] = true
			isas = append(isas, name)
		}
	}
	levels := make([]int, len(sw.Levels))
	for i, l := range sw.Levels {
		levels[i] = int(l)
	}
	suite := sw.Spec.Suite
	if suite == "" {
		suite = "explore"
	}
	return cluster.Spec{
		Suite:        suite,
		Workloads:    names,
		ISAs:         isas,
		Levels:       levels,
		Seed:         seed,
		Explore:      points,
		SimMaxInstrs: sw.Spec.MaxInstrs,
	}
}
