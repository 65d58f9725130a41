package pipeline_test

import (
	"context"
	"encoding/json"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/compiler"
	"repro/internal/cpu"
	"repro/internal/experiments"
	"repro/internal/hlc"
	"repro/internal/isa"
	"repro/internal/pipeline"
	"repro/internal/profile"
	"repro/internal/vm"
)

// quickPrograms compiles every quick-suite workload for each target and
// level.
func quickPrograms(t testing.TB, targets []*isa.Desc, levels []compiler.OptLevel) []*isa.Program {
	t.Helper()
	var progs []*isa.Program
	for _, w := range experiments.Quick() {
		ast, err := hlc.Parse(w.Source)
		if err != nil {
			t.Fatal(err)
		}
		cp, err := hlc.Check(ast)
		if err != nil {
			t.Fatal(err)
		}
		for _, target := range targets {
			for _, level := range levels {
				prog, err := compiler.Compile(cp, target, level)
				if err != nil {
					t.Fatalf("%s %s %v: %v", w.Name, target.Name, level, err)
				}
				progs = append(progs, prog)
			}
		}
	}
	return progs
}

// TestDecodeProgramQuickSuite checks that validation accepts everything
// the compiler emits: every quick-suite program on every ISA and level
// decodes to the program that was encoded.
func TestDecodeProgramQuickSuite(t *testing.T) {
	for _, prog := range quickPrograms(t, []*isa.Desc{isa.X86, isa.AMD64, isa.IA64}, compiler.Levels) {
		got, err := pipeline.DecodeProgram(mustEncode(t, prog))
		if err != nil {
			t.Fatalf("%s: compiled program rejected: %v", prog.ISA.Name, err)
		}
		if !reflect.DeepEqual(prog.Funcs, got.Funcs) || !reflect.DeepEqual(prog.Globals, got.Globals) {
			t.Fatalf("%s: decoded program differs structurally", prog.ISA.Name)
		}
	}
}

// FuzzDecodeProgram asserts that no payload DecodeProgram accepts can make
// the VM panic: whatever decodes must load and run under a small
// instruction budget.
func FuzzDecodeProgram(f *testing.F) {
	f.Add(mustEncode(f, smallProgram()))
	for _, prog := range quickPrograms(f, []*isa.Desc{isa.AMD64, isa.IA64}, []compiler.OptLevel{compiler.O0, compiler.O3}) {
		f.Add(mustEncode(f, prog))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		prog, err := pipeline.DecodeProgram(data)
		if err != nil {
			return
		}
		// Only a panic fails the target; a trap is a valid outcome. A
		// shallow stack keeps a recursive program's frames small.
		vm.New(prog).Run(vm.Config{MaxInstrs: 10_000, MaxDepth: 64})
	})
}

// preStreamProfile is testProfile as a profile written before stream
// profiling: its executed load has no stream.
func preStreamProfile() *profile.Profile {
	p := testProfile()
	p.Graph.Nodes[0].Instrs[0].Stream = nil
	return p
}

// TestDecodeProfileRejectsPreStream checks that a stored profile whose
// memory site has no stream descriptor is an error naming the cause.
func TestDecodeProfileRejectsPreStream(t *testing.T) {
	data, err := json.Marshal(preStreamProfile())
	if err != nil {
		t.Fatal(err)
	}
	_, err = pipeline.DecodeProfile(data)
	if err == nil || !strings.Contains(err.Error(), "pre-stream profile") {
		t.Fatalf("DecodeProfile(pre-stream) = %v, want a pre-stream profile error", err)
	}
}

// TestDecodeProfileRejectsOutOfRange checks that stored profiles pass
// profile.Profile.Validate's range and mix checks, not just the graph's: a stream miss rate outside [0,1] or a mix that does not sum
// to the dynamic total must be a decode error naming the cause.
func TestDecodeProfileRejectsOutOfRange(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(p *profile.Profile)
		want   string
	}{
		{"missRate 7", func(p *profile.Profile) { p.Graph.Nodes[0].Instrs[0].Stream.MissRate = 7 }, "missRate"},
		{"missRate -3", func(p *profile.Profile) { p.Graph.Nodes[0].Instrs[0].Stream.MissRate = -3 }, "missRate"},
		{"takenRate 2", func(p *profile.Profile) { p.Graph.Nodes[0].Branch.TakenRate = 2 }, "takenRate"},
		{"mix total", func(p *profile.Profile) { p.TotalDyn++ }, "mix sums to"},
	}
	for _, tc := range cases {
		p := testProfile()
		tc.mutate(p)
		data, err := json.Marshal(p)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := pipeline.DecodeProfile(data); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: DecodeProfile = %v, want an error containing %q", tc.name, err, tc.want)
		}
	}
}

// TestDecodeCloneRejects requires a stored clone's source to be present,
// to parse and to check: the source is the artifact of record, so a clone
// without a usable one must be a decode error (a disk miss the pipeline
// recomputes), not a hit.
func TestDecodeCloneRejects(t *testing.T) {
	cases := []struct {
		name string
		data string
		want string
	}{
		{"not json", `{"source":`, "decode clone"},
		{"no source field", `{"report":{}}`, "empty source"},
		{"empty source", `{"source":"","report":{}}`, "empty source"},
		{"does not parse", `{"source":"void main( {","report":{}}`, "does not parse"},
		{"does not check", `{"source":"void main() { undeclared = 1; }","report":{}}`, "does not check"},
	}
	for _, tc := range cases {
		_, err := pipeline.DecodeClone([]byte(tc.data))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: DecodeClone = %v, want an error containing %q", tc.name, err, tc.want)
		}
	}
	data, err := pipeline.EncodeClone(&pipeline.Clone{Source: progSrc})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pipeline.DecodeClone(data); err != nil {
		t.Errorf("valid clone rejected: %v", err)
	}
}

// quickArtifacts holds the quick suite's clones at the default seed and a
// short simulation of each original, encoded as the store holds them: the
// fuzzers' seeds.
type quickArtifacts struct {
	clones, sims [][]byte
	err          error
}

var quickSeeds = sync.OnceValue(func() (a quickArtifacts) {
	ctx := context.Background()
	p := pipeline.New(pipeline.Options{Seed: experiments.CloneSeed})
	for _, w := range experiments.Quick() {
		cl, err := p.Synthesize(ctx, w)
		if err != nil {
			return quickArtifacts{err: err}
		}
		data, err := pipeline.EncodeClone(cl)
		if err != nil {
			return quickArtifacts{err: err}
		}
		a.clones = append(a.clones, data)
		sum, err := p.Simulate(ctx, w, isa.AMD64, compiler.O2, cpu.Simulated2Wide(8), false, 20_000)
		if err == nil {
			data, err = pipeline.EncodeSim(sum)
		}
		if err != nil {
			return quickArtifacts{err: err}
		}
		a.sims = append(a.sims, data)
	}
	return a
})

// FuzzDecodeClone asserts that DecodeClone never panics and that what it
// accepts has a source and its checked program.
func FuzzDecodeClone(f *testing.F) {
	seeds := quickSeeds()
	if seeds.err != nil {
		f.Fatal(seeds.err)
	}
	for _, data := range seeds.clones {
		f.Add(data)
	}
	f.Add([]byte(`{"source":"void main() {}","report":{}}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := pipeline.DecodeClone(data)
		if err != nil {
			return
		}
		if c.Source == "" || c.Checked == nil {
			t.Fatalf("accepted clone without source or checked program: %+v", c)
		}
	})
}

// FuzzDecodeSim asserts that DecodeSim never panics and never accepts an
// empty simulation.
func FuzzDecodeSim(f *testing.F) {
	seeds := quickSeeds()
	if seeds.err != nil {
		f.Fatal(seeds.err)
	}
	for _, data := range seeds.sims {
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := pipeline.DecodeSim(data)
		if err == nil && s.Instrs == 0 {
			t.Fatalf("accepted an empty simulation: %+v", s)
		}
	})
}
