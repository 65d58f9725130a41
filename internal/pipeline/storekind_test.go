package pipeline_test

import (
	"testing"

	"repro/internal/pipeline"
)

// TestStoreKindsGolden pins the store kind every stage files its artifacts
// under. Kinds are part of every stored envelope, so a change here makes
// existing stores read as misses.
func TestStoreKindsGolden(t *testing.T) {
	want := [pipeline.NumStages]string{"", "", "program", "profile", "clone", "marker", "sim", "generate"}
	for s, kind := range want {
		if got := (pipeline.Key{Stage: pipeline.Stage(s)}).StoreKind(); got != kind {
			t.Errorf("%v: StoreKind = %q, want %q", pipeline.Stage(s), got, kind)
		}
	}
}
