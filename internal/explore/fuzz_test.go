package explore

import (
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// FuzzExploreParseSpec drives ParseSpec — which POST /api/v1/explore feeds
// untrusted request bodies — with arbitrary bytes, seeded with the preset
// and every JSON example in docs/explore.md. It must reject or accept
// without panicking, and an accepted sweep always starts at the baseline
// and stays within MaxPoints axis points.
func FuzzExploreParseSpec(f *testing.F) {
	preset, err := json.Marshal(Calibration())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(preset)
	f.Add([]byte(tinySpec))
	doc, err := os.ReadFile("../../docs/explore.md")
	if err != nil {
		f.Fatal(err)
	}
	for _, block := range strings.Split(string(doc), "```json\n")[1:] {
		example, _, _ := strings.Cut(block, "```")
		f.Add([]byte(example))
	}
	f.Add([]byte(`{"suite": "tiny", "axes": {"l1KB": []}}`))
	f.Add([]byte(`{"suite": "tiny", "config": {"isa": "amd64v"}}`))
	f.Add([]byte(`not json`))
	f.Add([]byte(`{"suite": "tiny"} {"suite": "nonsense"} garbage`))
	f.Fuzz(func(t *testing.T, data []byte) {
		sw, err := ParseSpec(data)
		if err != nil {
			return
		}
		if len(sw.Points) == 0 || sw.Points[0].Name != "base" {
			t.Fatalf("sweep does not start at the baseline: %d points", len(sw.Points))
		}
		if len(sw.Points) > MaxPoints+1 {
			t.Fatalf("sweep expanded to %d points, more than MaxPoints+1", len(sw.Points))
		}
	})
}
