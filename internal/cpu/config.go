package cpu

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"strings"

	"repro/internal/bpred"
	"repro/internal/isa"
)

// This file is the design-space face of the timing models: structural
// validation of machine configurations, a canonical encoding and content
// fingerprint (the identity simulation artifacts are cached under), and
// the JSON wire form specs, reports and job queues carry machines in.

// Validate checks a machine configuration for structural soundness: an
// out-of-order machine must have a positive dispatch width, cache sizes
// must be powers of two, and every latency in the hierarchy must be
// positive. Simulate rejects invalid configurations before running, and
// the exploration spec parser rejects them before any point is enqueued.
func (c Config) Validate() error {
	if c.ISA == nil {
		return fmt.Errorf("cpu: config %q: nil ISA", c.Name)
	}
	if !c.ISA.EPIC && c.Width <= 0 {
		return fmt.Errorf("cpu: config %q: out-of-order machine needs Width >= 1, got %d", c.Name, c.Width)
	}
	for _, kb := range []struct {
		name string
		v    int
	}{{"L1KB", c.L1KB}, {"L2KB", c.L2KB}} {
		if kb.v <= 0 || kb.v&(kb.v-1) != 0 {
			return fmt.Errorf("cpu: config %q: %s=%d is not a positive power of two", c.Name, kb.name, kb.v)
		}
	}
	for _, lat := range []struct {
		name string
		v    int
	}{{"L1Lat", c.L1Lat}, {"L2Lat", c.L2Lat}, {"MemLat", c.MemLat}} {
		if lat.v <= 0 {
			return fmt.Errorf("cpu: config %q: %s=%d must be positive", c.Name, lat.name, lat.v)
		}
	}
	if c.L1Assoc <= 0 || c.L2Assoc <= 0 {
		return fmt.Errorf("cpu: config %q: associativity must be >= 1 (L1=%d, L2=%d)", c.Name, c.L1Assoc, c.L2Assoc)
	}
	if c.MispredictPenalty < 0 {
		return fmt.Errorf("cpu: config %q: negative mispredict penalty %d", c.Name, c.MispredictPenalty)
	}
	if c.StoreQueue < 0 {
		return fmt.Errorf("cpu: config %q: negative store queue %d", c.Name, c.StoreQueue)
	}
	if c.FreqGHz < 0 || math.IsNaN(c.FreqGHz) || math.IsInf(c.FreqGHz, 0) {
		return fmt.Errorf("cpu: config %q: bad frequency %v", c.Name, c.FreqGHz)
	}
	if PredictorByName(c.Predictor) == nil {
		return fmt.Errorf("cpu: config %q: unknown predictor %q (want %s, %s, or %s)",
			c.Name, c.Predictor, PredictorHybrid, PredictorBimodal, PredictorGShare)
	}
	return nil
}

// CanonicalConfig returns the versioned, unambiguous encoding of every
// field that shapes a simulation's outcome. The Name is deliberately
// excluded: two configs that differ only in display name are the same
// machine. Changing this format invalidates every cached simulation
// artifact; bump pipeline.ArtifactVersion alongside it. The %t slot is the
// ISA's EPIC flag, which the ISA name already implies; it stays so every
// fingerprint keeps its bytes.
func (c Config) CanonicalConfig() string {
	return fmt.Sprintf("v2|%s|%016x|%d|%d|%d|%d|%d|%d|%d|%d|%d|%d|%d|%t|%s",
		c.isaName(), math.Float64bits(c.FreqGHz),
		c.Width, c.ROB, c.MispredictPenalty, c.StoreQueue,
		c.L1KB, c.L1Assoc, c.L1Lat,
		c.L2KB, c.L2Assoc, c.L2Lat, c.MemLat,
		c.ISA != nil && c.ISA.EPIC, c.predictorName())
}

// Fingerprint returns the printable 64-bit FNV-1a hash of the config's
// canonical encoding — the content address simulation results are cached
// and persisted under.
func (c Config) Fingerprint() string {
	h := fnv.New64a()
	h.Write([]byte(c.CanonicalConfig()))
	return fmt.Sprintf("%016x", h.Sum64())
}

// Predictor names a Config accepts. The empty name selects the default
// hybrid predictor.
const (
	PredictorHybrid  = "hybrid"
	PredictorBimodal = "bimodal"
	PredictorGShare  = "gshare"
)

// predictorName returns the name of the config's branch predictor, the
// one its predictor's Name method reports: "" means the default hybrid.
func (c Config) predictorName() string {
	if c.Predictor == "" {
		return PredictorHybrid
	}
	return c.Predictor
}

// PredictorByName returns the constructor for a named branch predictor
// ("" and "hybrid" mean the default hybrid), or nil for an unknown name.
func PredictorByName(name string) func() bpred.Predictor {
	switch name {
	case "", PredictorHybrid:
		return func() bpred.Predictor { return bpred.DefaultHybrid() }
	case PredictorBimodal:
		return func() bpred.Predictor { return bpred.NewBimodal(12) }
	case PredictorGShare:
		return func() bpred.Predictor { return bpred.NewGShare(12, 12) }
	}
	return nil
}

// configFields is Config without its JSON methods, so wireConfig can
// embed it.
type configFields Config

// wireConfig is Config's JSON form: every field of the Config it points
// at, with the ISA pointer replaced by the ISA's name.
type wireConfig struct {
	ISA string `json:"isa"`
	*configFields
}

// isaName returns the name of the config's ISA ("" when unset).
func (c Config) isaName() string {
	if c.ISA == nil {
		return ""
	}
	return c.ISA.Name
}

// MarshalJSON writes the config's wire form: every field under its JSON
// name, the ISA by name and the branch predictor by resolved name (""
// becomes hybrid), so a round trip keeps the fingerprint.
func (c Config) MarshalJSON() ([]byte, error) {
	c.Predictor = c.predictorName()
	return json.Marshal(wireConfig{c.isaName(), (*configFields)(&c)})
}

// UnmarshalJSON decodes a wire-form config onto the receiver's current
// values: fields the JSON leaves out keep them. It resolves the ISA name
// to its canonical descriptor and rejects unknown ISAs, unknown branch
// predictors and unknown fields. A design point is its baseline with the
// point's axis values decoded over it, so the sweep axes are exactly the
// JSON fields (see package explore).
func (c *Config) UnmarshalJSON(data []byte) error {
	wire := wireConfig{c.isaName(), (*configFields)(c)}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&wire); err != nil {
		var te *json.UnmarshalTypeError
		if errors.As(err, &te) {
			// Name the field by its JSON name alone, not by its path
			// through the wire struct.
			field := te.Field[strings.LastIndexByte(te.Field, '.')+1:]
			return fmt.Errorf("cpu: config %q: field %s: want %s, got JSON %s", c.Name, field, te.Type, te.Value)
		}
		return fmt.Errorf("cpu: config %q: %w", c.Name, err)
	}
	desc := isa.ByName(wire.ISA)
	if desc == nil {
		return fmt.Errorf("cpu: config %q: unknown ISA %q", c.Name, wire.ISA)
	}
	if PredictorByName(c.Predictor) == nil {
		return fmt.Errorf("cpu: config %q: unknown predictor %q", c.Name, c.Predictor)
	}
	c.ISA = desc
	return nil
}

// MachineByName returns a copy of the named baseline machine: one of the
// Table III configurations, or "2-wide OoO" for the Fig. 10 simulated
// core with its default 8KB L1. It reports ok=false for unknown names.
func MachineByName(name string) (Config, bool) {
	for _, m := range Machines {
		if m.Name == name {
			return m, true
		}
	}
	if c := Simulated2Wide(8); c.Name == name {
		return c, true
	}
	return Config{}, false
}
