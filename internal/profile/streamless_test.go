package profile_test

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/isa"
	"repro/internal/pipeline"
	"repro/internal/profile"
	"repro/internal/store"
	"repro/internal/workloads"
)

// streamlessLoads returns crc32/small's profile JSON with the stream
// descriptor of every executed load removed and the legacy "memClass": -1
// written in its place: the shape of a profile whose loads claim to be no
// memory sites at all. It also returns the number of loads stripped.
func streamlessLoads(t *testing.T, w *workloads.Workload) ([]byte, int) {
	t.Helper()
	p, err := profile.Collect(compileAtProfilingPoint(t, w), w.Setup, w.Name)
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	var raw map[string]any
	if err := json.Unmarshal(data, &raw); err != nil {
		t.Fatal(err)
	}
	stripped := 0
	for _, n := range raw["graph"].(map[string]any)["nodes"].([]any) {
		node := n.(map[string]any)
		if node["count"].(float64) == 0 {
			continue
		}
		for _, in := range node["instrs"].([]any) {
			m := in.(map[string]any)
			if op := isa.Opcode(m["op"].(float64)); (op == isa.LD || op == isa.LDL) && m["stream"] != nil {
				delete(m, "stream")
				m["memClass"] = -1
				stripped++
			}
		}
	}
	out, err := json.Marshal(raw)
	if err != nil {
		t.Fatal(err)
	}
	return out, stripped
}

// storedBackend answers every read of one artifact kind with a fixed
// payload, as a store peer holding those bytes under the key would.
type storedBackend struct {
	store.Backend
	payloads map[string][]byte // kind → payload
}

func (b storedBackend) Get(digest, kind, key string) ([]byte, bool) {
	if data, ok := b.payloads[kind]; ok {
		return data, true
	}
	return b.Backend.Get(digest, kind, key)
}

// TestLoadRejectsStreamlessLoads checks that a profile whose executed
// loads carry no stream descriptor is rejected wherever profiles are
// decoded: by profile.Load, and by the pipeline's stored-profile decoder,
// which counts it as a disk error each time it reads it (before and after
// the in-progress claim) and recomputes.
// The opcode decides that a load is a memory site; a profile cannot opt
// out by claiming no memory class.
func TestLoadRejectsStreamlessLoads(t *testing.T) {
	w := workloads.ByName("crc32/small")
	data, stripped := streamlessLoads(t, w)
	if stripped == 0 {
		t.Fatal("crc32/small has no executed load with a stream")
	}
	if _, err := profile.Load(bytes.NewReader(data)); err == nil || !strings.Contains(err.Error(), "pre-stream profile") {
		t.Fatalf("Load(%d stream-less loads) = %v, want a pre-stream profile error", stripped, err)
	}

	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	p := pipeline.New(pipeline.Options{Workers: 1, Store: storedBackend{Backend: st,
		payloads: map[string][]byte{"profile": data}}})
	prof, err := p.Profile(context.Background(), w)
	if err != nil {
		t.Fatal(err)
	}
	s := p.CacheStats()
	if s.DiskHits != 0 || s.DiskErrors != 1 || s.ComputedFor(pipeline.StageProfile) != 1 {
		t.Errorf("stored stream-less profile: want 1 disk error and a profile, got %+v", s)
	}
	if err := prof.Validate(); err != nil {
		t.Errorf("recomputed profile: %v", err)
	}
}
