package pipeline_test

import (
	"bytes"
	"context"
	"encoding/json"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"repro/internal/compiler"
	"repro/internal/cpu"
	"repro/internal/isa"
	"repro/internal/pipeline"
	"repro/internal/store"
)

// TestStoreEntryBytesGolden pins the bytes of the store entries a cold
// run writes, for every kind the codecs persist: each kind's entry files,
// in digest order, hash to a fixed fingerprint. Every entry must also be
// exactly json.Marshal of its own envelope, the encoding the store used
// before it spliced payloads in, so a codec that emitted non-compact JSON
// would show here. A change to these fingerprints is intentional only
// together with a pipeline.ArtifactVersion bump.
func TestStoreEntryBytesGolden(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	w := mustWorkload(t, "crc32/small")
	p := pipeline.New(pipeline.Options{Workers: 1, Store: openStore(t, dir)})
	cfg, ok := cpu.MachineByName("2-wide OoO")
	if !ok {
		t.Fatal("machine 2-wide OoO not found")
	}
	if _, err := p.SimulatePair(ctx, w, isa.AMD64, compiler.O2, cfg, 50_000); err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(ctx, w); err != nil {
		t.Fatal(err)
	}
	if _, err := p.GenerateArtifact(ctx, "0123456789abcdef", func(context.Context) ([]byte, error) {
		return json.Marshal(map[string]any{"points": []string{"a<b&c"}, "n": 2})
	}); err != nil {
		t.Fatal(err)
	}

	want := map[string]string{
		"program":  "d20ca6b59f3ee5d0",
		"profile":  "480756a675901f3a",
		"clone":    "18f77fa8c298f281",
		"marker":   "1ceb3a6dc830ed29",
		"sim":      "307b240fcebfea48",
		"generate": "e41af04e726e8223",
	}
	files := map[string][][]byte{}
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || filepath.Ext(path) != ".json" {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		var env struct {
			Kind     string          `json:"kind"`
			Key      string          `json:"key"`
			Checksum string          `json:"checksum"`
			Payload  json.RawMessage `json:"payload"`
		}
		if err := json.Unmarshal(data, &env); err != nil {
			t.Errorf("%s: %v", path, err)
			return nil
		}
		if again, err := json.Marshal(env); err != nil || !bytes.Equal(again, data) {
			t.Errorf("%s (%s): entry is not json.Marshal of its envelope (%v)", path, env.Kind, err)
		}
		files[env.Kind] = append(files[env.Kind], data)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for kind := range files {
		if _, ok := want[kind]; !ok {
			t.Errorf("unexpected entry kind %q", kind)
		}
	}
	kinds := make([]string, 0, len(want))
	for kind := range want {
		kinds = append(kinds, kind)
	}
	sort.Strings(kinds)
	for _, kind := range kinds {
		fp := want[kind]
		if len(files[kind]) == 0 {
			t.Errorf("%s: the run wrote no entry", kind)
			continue
		}
		if got := store.Fingerprint(bytes.Join(files[kind], []byte{'\n'})); got != fp {
			t.Errorf("%s: %d entries fingerprint %s, want %s", kind, len(files[kind]), got, fp)
		}
	}
}
