// Package explore is the design-space exploration engine: it takes a
// declarative sweep specification — a baseline machine configuration,
// value lists over cpu.Config's JSON fields, and workload ×
// optimization-level selectors — expands it into concrete design points,
// evaluates every (point, workload, level) cell through the pipeline's
// cached Simulate stage, and ranks the points by how faithfully the
// synthetic clones track the originals and how fast the design runs.
//
// This is the purpose the source paper builds toward: synthetic clones
// exist so that architects can sweep microarchitectures without
// distributing proprietary workloads. The engine makes that sweep a
// first-class, resumable computation: every simulation is a pipeline
// artifact keyed by the machine configuration's content fingerprint, so
// a warm rerun of the same spec recomputes nothing, and large grids can
// be sharded across a worker fleet through the cluster queue (one
// exploration job per workload — simulation keys are workload-scoped,
// so shards stay artifact-disjoint and the cluster's zero-duplication
// guarantee carries over unchanged).
package explore

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"repro/internal/compiler"
	"repro/internal/cpu"
	"repro/internal/experiments"
	"repro/internal/workloads"
)

// MaxPoints bounds a spec's expanded design-point count, so a fat-
// fingered axis list fails fast instead of enqueueing a million
// simulations.
const MaxPoints = 1024

// Spec is the declarative sweep specification `synth explore` and
// POST /api/v1/explore consume as JSON.
type Spec struct {
	// Name labels the sweep in reports.
	Name string `json:"name,omitempty"`
	// Suite selects a workload suite (tiny, quick, full); Workloads
	// names additional workload/input pairs. The union, deduplicated in
	// listed order, is the evaluation suite.
	Suite     string   `json:"suite,omitempty"`
	Workloads []string `json:"workloads,omitempty"`
	// Levels lists the optimization levels to evaluate at (default: O2,
	// the paper's performance-measurement level).
	Levels []int `json:"levels,omitempty"`
	// Base names the baseline machine (a Table III name or "2-wide
	// OoO"; default "2-wide OoO"). Config, when non-nil, is an explicit
	// baseline overriding Base.
	Base   string      `json:"base,omitempty"`
	Config *cpu.Config `json:"config,omitempty"`
	// Axes maps sweep axes — cpu.Config JSON fields other than name and
	// isa — to the values to cross. The design points are the baseline
	// plus the full cross product of all axis value lists; each point is
	// the baseline with the point's values decoded over it.
	Axes map[string][]any `json:"axes,omitempty"`
	// MaxInstrs bounds each simulation's dynamic instruction count
	// (0 = run to completion). It is part of the simulation cache key.
	MaxInstrs uint64 `json:"maxInstrs,omitempty"`
	// TopK bounds the ranked table in the printed report (0 = 10).
	TopK int `json:"topK,omitempty"`
}

// ParseSpec decodes and resolves a JSON sweep specification. Unknown
// fields and data after the spec are rejected, so a typoed axis name
// outside "axes" fails loudly instead of silently sweeping nothing.
func ParseSpec(data []byte) (*Sweep, error) {
	var s Spec
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("explore: bad spec: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, fmt.Errorf("explore: bad spec: data after the spec")
	}
	return s.Resolve()
}

// Sweep is a resolved, validated specification: concrete workloads,
// levels, and design points, ready for Run or for cluster dispatch.
type Sweep struct {
	// Spec is the specification the sweep was resolved from.
	Spec Spec
	// Workloads is the evaluation suite in deterministic order.
	Workloads []*workloads.Workload
	// Levels is the optimization-level list.
	Levels []compiler.OptLevel
	// Points is the design-point list; Points[0] is always the
	// baseline configuration (the speedup reference).
	Points []Point
}

// Point is one concrete design point of a sweep.
type Point struct {
	// Name renders the point's axis assignment ("base" for the
	// baseline).
	Name string `json:"name"`
	// Spec is the point's validated machine configuration.
	Spec cpu.Config `json:"spec"`
	// Fingerprint is the configuration's content address, the identity
	// its simulation artifacts are cached under.
	Fingerprint string `json:"fingerprint"`
}

// Config returns the point's machine configuration.
func (p Point) Config() cpu.Config { return p.Spec }

// Resolve validates the spec and expands it into a Sweep.
func (s Spec) Resolve() (*Sweep, error) {
	sw := &Sweep{Spec: s}

	// Evaluation suite: the named suite, then the extra workloads.
	var err error
	if sw.Workloads, err = experiments.Resolve(s.Suite, s.Workloads, false); err != nil {
		return nil, fmt.Errorf("explore: %w", err)
	}
	if len(sw.Workloads) == 0 {
		return nil, fmt.Errorf("explore: no workloads (set suite and/or workloads)")
	}

	// Levels: default to the paper's performance-measurement level.
	levels := s.Levels
	if len(levels) == 0 {
		levels = []int{int(compiler.O2)}
	}
	for _, l := range levels {
		if l < 0 || l >= len(compiler.Levels) {
			return nil, fmt.Errorf("explore: optimization level %d out of range 0-%d", l, len(compiler.Levels)-1)
		}
		sw.Levels = append(sw.Levels, compiler.Levels[l])
	}

	// Baseline: explicit config wins, then the named machine.
	var base cpu.Config
	switch {
	case s.Config != nil:
		base = *s.Config
	default:
		name := s.Base
		if name == "" {
			name = "2-wide OoO"
		}
		m, ok := cpu.MachineByName(name)
		if !ok {
			return nil, fmt.Errorf("explore: unknown baseline machine %q", name)
		}
		base = m
	}
	if err := base.Validate(); err != nil {
		return nil, fmt.Errorf("explore: baseline: %w", err)
	}

	points, err := expandPoints(base, s.Axes)
	if err != nil {
		return nil, err
	}
	sw.Points = points
	return sw, nil
}

// expandPoints crosses the axis value lists over the baseline. The
// baseline itself is always point 0; axis-derived points that collapse
// onto an already-seen configuration (including the baseline) are
// deduplicated by fingerprint.
func expandPoints(base cpu.Config, axes map[string][]any) ([]Point, error) {
	names := make([]string, 0, len(axes))
	for n := range axes {
		names = append(names, n)
	}
	sort.Strings(names)

	// The axes are the config's JSON fields but name and isa, matched
	// exactly (decoding alone would match them case-insensitively).
	var fields map[string]json.RawMessage
	data, err := json.Marshal(base)
	if err == nil {
		err = json.Unmarshal(data, &fields)
	}
	if err != nil {
		return nil, fmt.Errorf("explore: baseline: %w", err)
	}
	total := 1
	for _, n := range names {
		if _, ok := fields[n]; !ok || n == "name" || n == "isa" {
			return nil, fmt.Errorf("explore: unknown axis %q (the axes are the config fields but name and isa)", n)
		}
		if len(axes[n]) == 0 {
			return nil, fmt.Errorf("explore: axis %q has no values", n)
		}
		total *= len(axes[n])
		if total > MaxPoints {
			return nil, fmt.Errorf("explore: sweep expands to more than %d points", MaxPoints)
		}
	}

	basePoint, err := makePoint("base", base)
	if err != nil {
		return nil, err
	}
	points := []Point{basePoint}
	seen := map[string]bool{basePoint.Fingerprint: true}

	// Odometer enumeration keeps the order deterministic: the last axis
	// varies fastest, mirroring nested loops over the sorted names.
	idx := make([]int, len(names))
	values := make(map[string]any, len(names))
	for n := 0; n < total; n++ {
		label := ""
		for i, name := range names {
			v := axes[name][idx[i]]
			values[name] = v
			if label != "" {
				label += ","
			}
			label += fmt.Sprintf("%s=%v", name, v)
		}
		cfg := base
		data, err := json.Marshal(values)
		if err == nil {
			err = json.Unmarshal(data, &cfg)
		}
		if err != nil {
			return nil, fmt.Errorf("explore: point %s: %w", label, err)
		}
		pt, err := makePoint(label, cfg)
		if err != nil {
			return nil, fmt.Errorf("explore: point %s: %w", label, err)
		}
		if !seen[pt.Fingerprint] {
			seen[pt.Fingerprint] = true
			points = append(points, pt)
		}
		for i := len(idx) - 1; i >= 0; i-- {
			idx[i]++
			if idx[i] < len(axes[names[i]]) {
				break
			}
			idx[i] = 0
		}
	}
	return points, nil
}

// makePoint validates a configuration and packages it as a design point.
func makePoint(name string, cfg cpu.Config) (Point, error) {
	if err := cfg.Validate(); err != nil {
		return Point{}, err
	}
	cfg.Name = name
	return Point{Name: name, Spec: cfg, Fingerprint: cfg.Fingerprint()}, nil
}
