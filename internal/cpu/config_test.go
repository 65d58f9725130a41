package cpu

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"repro/internal/isa"
)

// validBase returns a known-good configuration for mutation tests.
func validBase() Config { return Simulated2Wide(16) }

func TestConfigValidateAcceptsAllMachines(t *testing.T) {
	for _, m := range append(append([]Config{}, Machines...), Simulated2Wide(8)) {
		if err := m.Validate(); err != nil {
			t.Errorf("%s: %v", m.Name, err)
		}
	}
}

func TestConfigValidateRejections(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Config)
		want   string
	}{
		{"nil ISA", func(c *Config) { c.ISA = nil }, "nil ISA"},
		{"zero width OoO", func(c *Config) { c.Width = 0 }, "Width"},
		{"negative width OoO", func(c *Config) { c.Width = -2 }, "Width"},
		{"non-pow2 L1", func(c *Config) { c.L1KB = 12 }, "L1KB"},
		{"zero L1", func(c *Config) { c.L1KB = 0 }, "L1KB"},
		{"non-pow2 L2", func(c *Config) { c.L2KB = 768 }, "L2KB"},
		{"zero L1 latency", func(c *Config) { c.L1Lat = 0 }, "L1Lat"},
		{"zero L2 latency", func(c *Config) { c.L2Lat = 0 }, "L2Lat"},
		{"zero memory latency", func(c *Config) { c.MemLat = 0 }, "MemLat"},
		{"negative memory latency", func(c *Config) { c.MemLat = -1 }, "MemLat"},
		{"zero L1 associativity", func(c *Config) { c.L1Assoc = 0 }, "associativity"},
		{"zero L2 associativity", func(c *Config) { c.L2Assoc = 0 }, "associativity"},
		{"negative mispredict penalty", func(c *Config) { c.MispredictPenalty = -1 }, "penalty"},
		{"negative frequency", func(c *Config) { c.FreqGHz = -1 }, "frequency"},
	}
	for _, tc := range cases {
		cfg := validBase()
		tc.mutate(&cfg)
		err := cfg.Validate()
		if err == nil {
			t.Errorf("%s: Validate accepted %+v", tc.name, cfg)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
	// Zero Width on an EPIC machine is fine: bundles issue one per cycle.
	epic := Itanium2
	epic.Width = 0
	if err := epic.Validate(); err != nil {
		t.Errorf("EPIC with zero width should validate: %v", err)
	}
}

func TestSimulateRejectsInvalidConfig(t *testing.T) {
	prog := compileFor(t, "void main() { print(1); }", isa.AMD64, 0)
	bad := validBase()
	bad.L1KB = 13
	if _, err := Simulate(prog, nil, bad, 0); err == nil {
		t.Error("Simulate accepted a non-pow2 L1")
	}
}

func TestConfigFingerprint(t *testing.T) {
	base := validBase()
	// The display name is not part of the identity.
	renamed := base
	renamed.Name = "same machine, different label"
	if base.Fingerprint() != renamed.Fingerprint() {
		t.Error("fingerprint depends on the display name")
	}
	// Every sweep axis — every JSON field but name and isa — changes the
	// identity.
	var fields map[string]json.RawMessage
	if err := json.Unmarshal(mustMarshal(t, base), &fields); err != nil {
		t.Fatal(err)
	}
	if len(fields) != 15 {
		t.Errorf("wire form has %d fields, want 15: %v", len(fields), fields)
	}
	for name := range fields {
		if name == "name" || name == "isa" {
			continue
		}
		v := "7"
		switch name {
		case "predictor":
			v = `"` + PredictorGShare + `"`
		case "l1KB", "l2KB":
			v = "2048"
		}
		cfg := base
		if err := json.Unmarshal([]byte(`{"`+name+`": `+v+`}`), &cfg); err != nil {
			t.Fatalf("axis %s: %v", name, err)
		}
		if cfg.Fingerprint() == base.Fingerprint() {
			t.Errorf("axis %s did not change the fingerprint", name)
		}
	}
}

func mustMarshal(t *testing.T, c Config) []byte {
	t.Helper()
	data, err := json.Marshal(c)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestConfigFingerprintGolden pins the fingerprints of the paper's
// machines. Every cached and stored simulation is keyed by them, so a
// change to the canonical encoding must show here before it silently
// orphans every store.
func TestConfigFingerprintGolden(t *testing.T) {
	want := map[string]string{
		"Pentium 4 3GHz":   "216bc9326b1f8bc4",
		"Core 2":           "0af0645a15c367d0",
		"Pentium 4 2.8GHz": "109d60f68f1ff2ce",
		"Itanium 2":        "15caf1d18123f465",
		"Core i7":          "6da0c144f110842f",
		"2-wide OoO/8":     "7772b2d3aecc1eea",
		"2-wide OoO/16":    "9fbbb8bae546dd57",
		"2-wide OoO/32":    "ab264a9ae4b1230d",
	}
	got := map[string]string{}
	for _, m := range Machines {
		got[m.Name] = m.Fingerprint()
	}
	for _, kb := range []int{8, 16, 32} {
		m := Simulated2Wide(kb)
		got[fmt.Sprintf("%s/%d", m.Name, kb)] = m.Fingerprint()
	}
	for name, fp := range want {
		if got[name] != fp {
			t.Errorf("%s: fingerprint %s, want %s", name, got[name], fp)
		}
	}
	if len(got) != len(want) {
		t.Errorf("fingerprinted %d machines, want %d", len(got), len(want))
	}
}

func TestConfigJSONRoundTrip(t *testing.T) {
	for _, m := range append(append([]Config{}, Machines...), Simulated2Wide(32)) {
		var back Config
		if err := json.Unmarshal(mustMarshal(t, m), &back); err != nil {
			t.Fatalf("%s: %v", m.Name, err)
		}
		if back.ISA != m.ISA {
			t.Errorf("%s: round trip resolved ISA %v, want the canonical %s", m.Name, back.ISA, m.ISA.Name)
		}
		if got, want := back.Fingerprint(), m.Fingerprint(); got != want {
			t.Errorf("%s: round trip changed fingerprint %s -> %s", m.Name, want, got)
		}
		if back.Name != m.Name {
			t.Errorf("%s: round trip renamed it %q", m.Name, back.Name)
		}
	}
	// The default predictor goes on the wire by its resolved name.
	if data := string(mustMarshal(t, validBase())); !strings.Contains(data, `"predictor":"hybrid"`) {
		t.Errorf("wire form %s does not name the default predictor", data)
	}
}

// TestConfigJSONDecodesOntoReceiver: fields the JSON leaves out keep the
// receiver's values, which is how a design point is its baseline with the
// point's axis values decoded over it.
func TestConfigJSONDecodesOntoReceiver(t *testing.T) {
	cfg := Itanium2
	if err := json.Unmarshal([]byte(`{"l1KB": 32, "predictor": "gshare"}`), &cfg); err != nil {
		t.Fatal(err)
	}
	want := Itanium2
	want.L1KB, want.Predictor = 32, PredictorGShare
	if cfg != want {
		t.Errorf("decoded %+v, want %+v", cfg, want)
	}
}

func TestConfigJSONRejections(t *testing.T) {
	for _, tc := range []struct{ name, json, want string }{
		{"unknown ISA", `{"isa": "mips"}`, "unknown ISA"},
		{"no ISA", `{"width": 2}`, "unknown ISA"},
		{"unknown predictor", `{"isa": "amd64v", "predictor": "perceptron"}`, "unknown predictor"},
		{"unknown field", `{"isa": "amd64v", "cores": 2}`, "unknown field"},
		{"EPIC flag", `{"isa": "ia64v", "epic": true}`, "unknown field"},
	} {
		var cfg Config
		err := json.Unmarshal([]byte(tc.json), &cfg)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want one mentioning %q", tc.name, err, tc.want)
		}
	}
	// Decoding does not validate: an invalid machine decodes and is
	// rejected by Validate, like one built in Go.
	cfg := validBase()
	if err := json.Unmarshal([]byte(`{"width": 0}`), &cfg); err != nil {
		t.Fatal(err)
	}
	if err := cfg.Validate(); err == nil {
		t.Error("zero-width out-of-order machine validated")
	}
}

func TestAxisApplyTypeErrors(t *testing.T) {
	for _, axis := range []string{
		`{"width": "wide"}`, // string for an integer field
		`{"width": 2.5}`,    // fraction for an integer field
		`{"predictor": 3}`,  // number for the predictor
		`{"freqGHz": "fast"}`,
	} {
		cfg := validBase()
		if err := json.Unmarshal([]byte(axis), &cfg); err == nil {
			t.Errorf("%s accepted", axis)
		}
	}
}

func TestMachineByName(t *testing.T) {
	for _, m := range Machines {
		got, ok := MachineByName(m.Name)
		if !ok || got.Name != m.Name {
			t.Errorf("MachineByName(%q) = %v, %v", m.Name, got.Name, ok)
		}
	}
	if m, ok := MachineByName("2-wide OoO"); !ok || m.L1KB != 8 {
		t.Errorf("MachineByName(2-wide OoO) = %+v, %v", m, ok)
	}
	if _, ok := MachineByName("PDP-11"); ok {
		t.Error("unknown machine resolved")
	}
}

func TestSimulateBudgetTruncationIsMeasurement(t *testing.T) {
	prog := compileFor(t, loopSrc, isa.AMD64, 2)
	full, err := Simulate(prog, nil, validBase(), 0)
	if err != nil {
		t.Fatal(err)
	}
	bound := full.Instrs / 2
	trunc, err := Simulate(prog, nil, validBase(), bound)
	if err != nil {
		t.Fatalf("budget-exhausted run should be a measurement, got %v", err)
	}
	if trunc.Instrs < bound || trunc.Instrs > bound+1 {
		t.Errorf("truncated run executed %d instrs, want ~%d", trunc.Instrs, bound)
	}
	if trunc.Cycles == 0 || trunc.CPI() == 0 {
		t.Errorf("truncated run carries no timing: %+v", trunc)
	}
}

func TestSimulateGenuineTrapNotMistakenForBudget(t *testing.T) {
	// A real runtime fault must stay an error even under a nonzero
	// budget — only the budget-exhausted trap is a valid truncation.
	// (The VM double-counts the trapping instruction, so count-based
	// discrimination would misclassify a fault on the boundary.)
	src := `
void main() {
  int z = 0;
  print(7 / z);
}`
	prog := compileFor(t, src, isa.AMD64, 0)
	if _, err := Simulate(prog, nil, validBase(), 1_000_000); err == nil {
		t.Fatal("division-by-zero trap accepted as a truncated measurement")
	}
}
