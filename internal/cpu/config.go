package cpu

import (
	"fmt"
	"hash/fnv"
	"math"
	"sort"

	"repro/internal/bpred"
	"repro/internal/isa"
)

// This file is the design-space face of the timing models: structural
// validation of machine configurations, a canonical encoding and content
// fingerprint (the identity simulation artifacts are cached under), a
// serializable ConfigSpec for specs and job queues, and the axis metadata
// the exploration engine sweeps over.

// Validate checks a machine configuration for structural soundness: an
// out-of-order machine must have a positive dispatch width, cache sizes
// must be powers of two, and every latency in the hierarchy must be
// positive. Simulate rejects invalid configurations before running, and
// the exploration spec parser rejects them before any point is enqueued.
func (c Config) Validate() error {
	if c.ISA == nil {
		return fmt.Errorf("cpu: config %q: nil ISA", c.Name)
	}
	if !c.EPIC && c.Width <= 0 {
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
// artifact; bump store.SchemaVersion alongside it.
func (c Config) CanonicalConfig() string {
	isaName := ""
	if c.ISA != nil {
		isaName = c.ISA.Name
	}
	return fmt.Sprintf("v2|%s|%016x|%d|%d|%d|%d|%d|%d|%d|%d|%d|%d|%d|%t|%s",
		isaName, math.Float64bits(c.FreqGHz),
		c.Width, c.ROB, c.MispredictPenalty, c.StoreQueue,
		c.L1KB, c.L1Assoc, c.L1Lat,
		c.L2KB, c.L2Assoc, c.L2Lat, c.MemLat,
		c.EPIC, c.predictorName())
}

// Fingerprint returns the printable 64-bit FNV-1a hash of the config's
// canonical encoding — the content address simulation results are cached
// and persisted under.
func (c Config) Fingerprint() string {
	h := fnv.New64a()
	h.Write([]byte(c.CanonicalConfig()))
	return fmt.Sprintf("%016x", h.Sum64())
}

// Predictor names accepted by ConfigSpec and the predictor axis. The empty
// name selects the default hybrid predictor.
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

// ConfigSpec is the serializable form of a Config: the ISA and branch
// predictor are stored by name and re-linked on resolution, everything
// else is the scalar machine parameters. It is the shape exploration
// specs, cluster job queues, and HTTP bodies carry machine
// configurations in.
type ConfigSpec struct {
	// Name labels the configuration in reports (optional).
	Name string `json:"name,omitempty"`
	// ISA names the target ISA (x86v, amd64v, ia64v).
	ISA string `json:"isa"`
	// FreqGHz is the clock frequency used for wall-clock projection.
	FreqGHz float64 `json:"freqGHz,omitempty"`
	// Width, ROB, MispredictPenalty, and StoreQueue mirror Config.
	Width             int `json:"width"`
	ROB               int `json:"rob,omitempty"`
	MispredictPenalty int `json:"mispredictPenalty"`
	StoreQueue        int `json:"storeQueue,omitempty"`
	// Cache hierarchy geometry and latencies, mirroring Config.
	L1KB    int `json:"l1KB"`
	L1Assoc int `json:"l1Assoc"`
	L1Lat   int `json:"l1Lat"`
	L2KB    int `json:"l2KB"`
	L2Assoc int `json:"l2Assoc"`
	L2Lat   int `json:"l2Lat"`
	MemLat  int `json:"memLat"`
	// EPIC selects the in-order bundle model (requires an EPIC ISA).
	EPIC bool `json:"epic,omitempty"`
	// Predictor names the branch predictor ("", hybrid, bimodal, gshare).
	Predictor string `json:"predictor,omitempty"`
}

// SpecOf captures a Config as its serializable spec. The predictor is
// recorded by its resolved name ("" becomes hybrid), so a spec round trip
// preserves the config's fingerprint.
func SpecOf(c Config) ConfigSpec {
	isaName := ""
	if c.ISA != nil {
		isaName = c.ISA.Name
	}
	return ConfigSpec{
		Name: c.Name, ISA: isaName, FreqGHz: c.FreqGHz,
		Width: c.Width, ROB: c.ROB, MispredictPenalty: c.MispredictPenalty,
		StoreQueue: c.StoreQueue,
		L1KB:       c.L1KB, L1Assoc: c.L1Assoc, L1Lat: c.L1Lat,
		L2KB: c.L2KB, L2Assoc: c.L2Assoc, L2Lat: c.L2Lat, MemLat: c.MemLat,
		EPIC: c.EPIC, Predictor: c.predictorName(),
	}
}

// Canonical returns a versioned, unambiguous field-wise rendering of the
// spec, used inside cluster dispatch canonicals. Unlike CanonicalConfig
// it never resolves names, so it is total: even a spec naming an unknown
// ISA has a stable canonical.
func (s ConfigSpec) Canonical() string {
	return fmt.Sprintf("v2|%s|%016x|%d|%d|%d|%d|%d|%d|%d|%d|%d|%d|%d|%t|%s",
		s.ISA, math.Float64bits(s.FreqGHz),
		s.Width, s.ROB, s.MispredictPenalty, s.StoreQueue,
		s.L1KB, s.L1Assoc, s.L1Lat,
		s.L2KB, s.L2Assoc, s.L2Lat, s.MemLat,
		s.EPIC, s.Predictor)
}

// Config resolves the spec into a runnable machine configuration,
// re-linking the ISA descriptor by name and validating the result.
func (s ConfigSpec) Config() (Config, error) {
	desc := isa.ByName(s.ISA)
	if desc == nil {
		return Config{}, fmt.Errorf("cpu: config spec %q: unknown ISA %q", s.Name, s.ISA)
	}
	c := Config{
		Name: s.Name, ISA: desc, FreqGHz: s.FreqGHz,
		Width: s.Width, ROB: s.ROB, MispredictPenalty: s.MispredictPenalty,
		StoreQueue: s.StoreQueue,
		L1KB:       s.L1KB, L1Assoc: s.L1Assoc, L1Lat: s.L1Lat,
		L2KB: s.L2KB, L2Assoc: s.L2Assoc, L2Lat: s.L2Lat, MemLat: s.MemLat,
		EPIC: s.EPIC, Predictor: s.Predictor,
	}
	if err := c.Validate(); err != nil {
		return Config{}, err
	}
	return c, nil
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

// Axis is one sweepable Config parameter: the name exploration specs use
// and the application of one swept value. Numeric axes accept float64
// (the type JSON numbers decode to) and require integral values for
// integer parameters; the predictor axis accepts a string.
type Axis struct {
	// Name is the axis's spec name (e.g. "width", "l1KB", "predictor").
	Name string
	// Apply sets the axis to v on cfg, rejecting values of the wrong
	// type or domain.
	Apply func(cfg *Config, v any) error
}

// intAxis builds an Axis over an integer Config field.
func intAxis(name string, set func(*Config, int)) Axis {
	return Axis{Name: name, Apply: func(cfg *Config, v any) error {
		f, ok := v.(float64)
		if !ok || f != math.Trunc(f) {
			return fmt.Errorf("cpu: axis %s: want an integer, got %v", name, v)
		}
		set(cfg, int(f))
		return nil
	}}
}

// Axes lists every sweepable configuration axis, in spec name order. The
// exploration engine crosses subsets of these to enumerate design points.
var Axes = []Axis{
	{Name: "freqGHz", Apply: func(cfg *Config, v any) error {
		f, ok := v.(float64)
		if !ok {
			return fmt.Errorf("cpu: axis freqGHz: want a number, got %v", v)
		}
		cfg.FreqGHz = f
		return nil
	}},
	intAxis("l1Assoc", func(c *Config, v int) { c.L1Assoc = v }),
	intAxis("l1KB", func(c *Config, v int) { c.L1KB = v }),
	intAxis("l1Lat", func(c *Config, v int) { c.L1Lat = v }),
	intAxis("l2Assoc", func(c *Config, v int) { c.L2Assoc = v }),
	intAxis("l2KB", func(c *Config, v int) { c.L2KB = v }),
	intAxis("l2Lat", func(c *Config, v int) { c.L2Lat = v }),
	intAxis("memLat", func(c *Config, v int) { c.MemLat = v }),
	intAxis("mispredictPenalty", func(c *Config, v int) { c.MispredictPenalty = v }),
	{Name: "predictor", Apply: func(cfg *Config, v any) error {
		name, ok := v.(string)
		if !ok {
			return fmt.Errorf("cpu: axis predictor: want a string, got %v", v)
		}
		if PredictorByName(name) == nil {
			return fmt.Errorf("cpu: axis predictor: unknown predictor %q", name)
		}
		cfg.Predictor = name
		return nil
	}},
	intAxis("rob", func(c *Config, v int) { c.ROB = v }),
	intAxis("storeQueue", func(c *Config, v int) { c.StoreQueue = v }),
	intAxis("width", func(c *Config, v int) { c.Width = v }),
}

// AxisByName returns the named axis, or nil for an unknown name.
func AxisByName(name string) *Axis {
	i := sort.Search(len(Axes), func(i int) bool { return Axes[i].Name >= name })
	if i < len(Axes) && Axes[i].Name == name {
		return &Axes[i]
	}
	return nil
}
