package main

import (
	"io"
	"strings"
	"testing"
)

// TestCompareBenchGatesSynthesize pins the bench ratchet on synthetic
// reports: equal reports pass, and a 30% synthesizeSec regression fails
// the 20% gate by name even though every other figure is unchanged.
func TestCompareBenchGatesSynthesize(t *testing.T) {
	base := benchReport{Schema: benchSchema, Suite: "quick",
		CompileSec: 0.004, ProfileSec: 0.45, SynthesizeSec: 2.3, ValidateSec: 0.12,
		TotalSec: 2.874, ProfileMIPS: 28, VMFastMIPS: 240, VMHookMIPS: 120}
	if err := compareBench(&base, &base, 0.2, io.Discard); err != nil {
		t.Fatalf("equal reports: %v", err)
	}
	fresh := base
	fresh.SynthesizeSec *= 1.3
	err := compareBench(&fresh, &base, 0.2, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "synthesizeSec") {
		t.Fatalf("30%% synthesizeSec regression: err = %v, want a synthesizeSec failure", err)
	}
}
