package profile_test

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/isa"
	"repro/internal/profile"
	"repro/internal/sfgl"
)

// validProfileJSON returns a round-trippable profile payload for seeding.
func validProfileJSON(t testing.TB) []byte {
	t.Helper()
	p := &profile.Profile{
		Workload: "fuzz/seed",
		TotalDyn: 10,
		Mix:      [isa.NumClasses]uint64{isa.ClassLoad: 5, isa.ClassIntALU: 5},
		Graph: &sfgl.Graph{
			FuncNames: []string{"main"},
			FuncCalls: []uint64{1},
			Nodes: []*sfgl.Node{{
				ID: 0, Count: 5,
				Instrs: []sfgl.InstrInfo{{Op: isa.LD, Stream: &sfgl.Stream{
					V: sfgl.StreamVersion, Accesses: 5, MissRate: 0.25,
					Strides: []sfgl.StrideBin{{Stride: 4, Frac: 1}},
				}}},
			}},
		},
	}
	var buf bytes.Buffer
	if err := p.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzProfileLoad asserts profile.Load never panics: corrupt, truncated,
// or future-versioned payloads must come back as errors. Profiles cross
// process boundaries (`synth synthesize -from`, the artifact store), so a
// hostile or damaged file must fail loudly, not crash or synthesize
// garbage.
func FuzzProfileLoad(f *testing.F) {
	valid := validProfileJSON(f)
	f.Add(valid)
	f.Add(valid[:len(valid)/2])                                         // truncated
	f.Add([]byte(`{}`))                                                 // missing graph
	f.Add([]byte(`{"graph":null}`))                                     // explicit null graph
	f.Add([]byte(`{"graph":{"nodes":[null]}}`))                         // nil node
	f.Add([]byte(strings.Replace(string(valid), `"v":1`, `"v":99`, 1))) // future stream version
	f.Add([]byte(`not json at all`))
	f.Add([]byte(string(valid) + "garbage")) // trailing data
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := profile.Load(bytes.NewReader(data))
		if err != nil {
			return
		}
		// Whatever loads must satisfy the documented invariants.
		if err := p.Validate(); err != nil {
			t.Fatalf("Load returned an invalid profile without error: %v", err)
		}
	})
}
