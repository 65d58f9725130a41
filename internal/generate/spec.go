package generate

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"repro/internal/store"
)

// MaxPoints bounds a spec's corpus size, so a fat-fingered count fails
// fast instead of enqueueing a thousand syntheses.
const MaxPoints = 256

// Spec declares one generation run: the baseline suite whose coverage to
// extend, how many synthetic points to sample, the seed, and the sampler
// knobs. It is the JSON body `synth generate -spec` and
// POST /api/v1/generate consume.
type Spec struct {
	// Name labels the generated corpus; point names are derived from it.
	// Empty means "gen".
	Name string `json:"name,omitempty"`
	// Suite selects the baseline workload suite (tiny, quick, full;
	// default quick); Workloads names additional workload/input pairs.
	// The union, deduplicated in listed order, is the baseline whose
	// profiles seed the sampler and define current coverage.
	Suite     string   `json:"suite,omitempty"`
	Workloads []string `json:"workloads,omitempty"`
	// N is the number of synthetic points to generate (1..MaxPoints).
	N int `json:"n"`
	// Seed drives the sampler. Same seed + same spec ⇒ byte-identical
	// corpus, regardless of worker count (see docs/generate.md).
	Seed int64 `json:"seed"`
	// Axes restricts which feature axes the sampler may perturb (names
	// from MutableAxes); empty means all of them.
	Axes []string `json:"axes,omitempty"`
	// Strength scales how far a perturbation moves along an axis toward
	// its bound, in (0, 1]. 0 selects DefaultStrength.
	Strength float64 `json:"strength,omitempty"`
	// Candidates is how many candidate mutants the sampler scores per
	// emitted point (farthest-point selection); 0 selects
	// DefaultCandidates.
	Candidates int `json:"candidates,omitempty"`
}

// Sampler defaults. Strength is deliberately aggressive: synthesis pulls
// realized clones back toward the feature-space region the suite already
// occupies (requested-vs-achieved error runs ~0.2-0.3 RMS), so sampling
// must overshoot the coverage holes for the achieved points to land in
// them.
const (
	DefaultStrength   = 0.9
	DefaultCandidates = 48
)

// ParseSpec decodes and validates a JSON generation spec. Unknown fields
// and data after the spec are rejected, so a typoed knob fails loudly
// instead of silently running the defaults.
func ParseSpec(data []byte) (*Spec, error) {
	var s Spec
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("generate: bad spec: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, fmt.Errorf("generate: bad spec: data after the spec")
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// Validate checks the spec's bounds and axis names.
func (s *Spec) Validate() error {
	if s.N < 1 || s.N > MaxPoints {
		return fmt.Errorf("generate: n=%d out of range 1-%d", s.N, MaxPoints)
	}
	if s.Strength < 0 || s.Strength > 1 {
		return fmt.Errorf("generate: strength=%v out of range (0, 1]", s.Strength)
	}
	if s.Candidates < 0 || s.Candidates > 1024 {
		return fmt.Errorf("generate: candidates=%d out of range 0-1024", s.Candidates)
	}
	for _, a := range s.Axes {
		if !axisKnown(a) {
			return fmt.Errorf("generate: unknown axis %q (known: %s)", a, strings.Join(MutableAxes, ", "))
		}
	}
	return nil
}

// name returns the corpus label ("gen" when unnamed).
func (s *Spec) name() string {
	if s.Name == "" {
		return "gen"
	}
	return s.Name
}

// strength returns the effective perturbation strength.
func (s *Spec) strength() float64 {
	if s.Strength == 0 {
		return DefaultStrength
	}
	return s.Strength
}

// candidates returns the effective candidate pool size.
func (s *Spec) candidates() int {
	if s.Candidates == 0 {
		return DefaultCandidates
	}
	return s.Candidates
}

// axes returns the effective perturbation axis list.
func (s *Spec) axes() []string {
	if len(s.Axes) == 0 {
		return MutableAxes
	}
	return s.Axes
}

// Canonical returns the versioned, unambiguous encoding of the spec. Two
// runs with equal canonicals generate the same corpus; the generation
// report is cached under its fingerprint.
func (s *Spec) Canonical() string {
	return fmt.Sprintf("gen-v1|%s|%s|%s|%d|%d|%s|%g|%d",
		s.name(), s.Suite, strings.Join(s.Workloads, ","), s.N, s.Seed,
		strings.Join(s.Axes, ","), s.Strength, s.Candidates)
}

// Fingerprint returns the spec's content address — the digest of its
// canonical encoding — used to key the cached generation report.
func (s *Spec) Fingerprint() string {
	return store.Fingerprint([]byte(s.Canonical()))
}
