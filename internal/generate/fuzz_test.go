package generate_test

import (
	"testing"

	"repro/internal/generate"
)

// FuzzGenerateSpec asserts ParseSpec never panics and never returns an
// out-of-bounds spec: whatever decodes must pass Validate, carry a stable
// fingerprint, and stay inside the sampler's documented ranges. Specs
// arrive over process boundaries (POST /api/v1/generate, `-spec` files,
// cluster job payloads), so hostile bytes must fail loudly.
func FuzzGenerateSpec(f *testing.F) {
	f.Add([]byte(`{"n": 8, "seed": 1}`))
	f.Add([]byte(`{"name": "gen", "suite": "quick", "n": 4, "seed": 20100321}`))
	f.Add([]byte(`{"n": 2, "seed": 1, "axes": ["miss", "taken"], "strength": 0.9, "candidates": 48}`))
	f.Add([]byte(`{"n": 2, "seed": 1, "workloads": ["dijkstra/small"]}`))
	f.Add([]byte(`{"n": 0}`))               // below range
	f.Add([]byte(`{"n": 100000}`))          // above range
	f.Add([]byte(`{"n": 2, "typo": 1}`))    // unknown field
	f.Add([]byte(`{"n": 2, "axes": [""]}`)) // unknown axis
	f.Add([]byte(`not json`))
	f.Add([]byte(`{"n": 2, "seed": 1} {"n": 0} garbage`)) // trailing data
	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := generate.ParseSpec(data)
		if err != nil {
			return
		}
		// Whatever parses must satisfy the documented invariants.
		if err := spec.Validate(); err != nil {
			t.Fatalf("ParseSpec returned invalid spec without error: %v", err)
		}
		if spec.N < 1 || spec.N > generate.MaxPoints {
			t.Fatalf("ParseSpec accepted n=%d", spec.N)
		}
		if spec.Strength < 0 || spec.Strength > 1 {
			t.Fatalf("ParseSpec accepted strength=%v", spec.Strength)
		}
		if spec.Fingerprint() == "" || spec.Fingerprint() != spec.Fingerprint() {
			t.Fatal("unstable fingerprint")
		}
	})
}
