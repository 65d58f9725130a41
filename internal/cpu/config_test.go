package cpu

import (
	"sort"
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
	// Every swept axis changes the identity.
	for _, ax := range Axes {
		cfg := base
		var v any = 7.0
		if ax.Name == "predictor" {
			v = PredictorGShare
		}
		if ax.Name == "l1KB" || ax.Name == "l2KB" {
			v = 2048.0
		}
		if err := ax.Apply(&cfg, v); err != nil {
			t.Fatalf("axis %s: %v", ax.Name, err)
		}
		if cfg.Fingerprint() == base.Fingerprint() {
			t.Errorf("axis %s did not change the fingerprint", ax.Name)
		}
	}
}

func TestConfigSpecRoundTrip(t *testing.T) {
	for _, m := range append(append([]Config{}, Machines...), Simulated2Wide(32)) {
		spec := SpecOf(m)
		back, err := spec.Config()
		if err != nil {
			t.Fatalf("%s: %v", m.Name, err)
		}
		if got, want := back.Fingerprint(), m.Fingerprint(); got != want {
			t.Errorf("%s: round trip changed fingerprint %s -> %s", m.Name, want, got)
		}
	}
}

func TestConfigSpecRejections(t *testing.T) {
	good := SpecOf(validBase())
	bad := good
	bad.ISA = "mips"
	if _, err := bad.Config(); err == nil {
		t.Error("unknown ISA accepted")
	}
	bad = good
	bad.Predictor = "perceptron"
	if _, err := bad.Config(); err == nil {
		t.Error("unknown predictor accepted")
	}
	bad = good
	bad.Width = 0
	if _, err := bad.Config(); err == nil {
		t.Error("invalid config accepted")
	}
}

func TestAxesSortedAndResolvable(t *testing.T) {
	if !sort.SliceIsSorted(Axes, func(i, j int) bool { return Axes[i].Name < Axes[j].Name }) {
		t.Fatal("Axes must be sorted by name (AxisByName binary-searches them)")
	}
	for _, ax := range Axes {
		if got := AxisByName(ax.Name); got == nil || got.Name != ax.Name {
			t.Errorf("AxisByName(%q) = %v", ax.Name, got)
		}
	}
	if AxisByName("no-such-axis") != nil {
		t.Error("AxisByName resolved an unknown axis")
	}
}

func TestAxisApplyTypeErrors(t *testing.T) {
	cfg := validBase()
	if err := AxisByName("width").Apply(&cfg, "wide"); err == nil {
		t.Error("string accepted for an integer axis")
	}
	if err := AxisByName("width").Apply(&cfg, 2.5); err == nil {
		t.Error("fractional value accepted for an integer axis")
	}
	if err := AxisByName("predictor").Apply(&cfg, 3.0); err == nil {
		t.Error("number accepted for the predictor axis")
	}
	if err := AxisByName("predictor").Apply(&cfg, "perceptron"); err == nil {
		t.Error("unknown predictor accepted")
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
	if trunc.Cycles == 0 || trunc.CPI == 0 {
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
