package pipeline_test

import (
	"bytes"
	"math"
	"reflect"
	"testing"

	"repro/internal/cache"
	"repro/internal/compiler"
	"repro/internal/cpu"
	"repro/internal/hlc"
	"repro/internal/isa"
	"repro/internal/pipeline"
	"repro/internal/profile"
	"repro/internal/sfgl"
	"repro/internal/vm"
)

// testProfile builds a small hand-made profile exercising every optional
// field: branch info, loops with parents, a memory site with its stream
// descriptor, func calls.
func testProfile() *profile.Profile {
	g := &sfgl.Graph{
		FuncNames: []string{"main", "helper"},
		FuncCalls: []uint64{1, 42},
		Nodes: []*sfgl.Node{
			{ID: 0, Func: 0, Block: 0, Count: 100,
				Instrs: []sfgl.InstrInfo{
					{Op: isa.LD, Stream: &sfgl.Stream{
						V: sfgl.StreamVersion, Accesses: 100, MissRate: 0.375, MissWide: 0.125,
						Strides: []sfgl.StrideBin{{Stride: 12, Frac: 0.9}}, Regularity: 0.9}},
					{Op: isa.ADD},
					{Op: isa.BR},
				},
				Branch: &sfgl.BranchInfo{Taken: 60, Total: 100, Transitions: 20,
					TakenRate: 0.6, TransRate: 0.2020202, Hard: true}},
			{ID: 1, Func: 1, Block: 0, Count: 42,
				Instrs: []sfgl.InstrInfo{{Op: isa.RET}}},
		},
		Edges: []*sfgl.Edge{{From: 0, To: 0, Count: 60}, {From: 0, To: 1, Count: 40}},
		Loops: []*sfgl.Loop{
			{ID: 0, Func: 0, Header: 0, Nodes: []int{0}, Parent: -1, Depth: 1,
				Entries: 40, Iterations: 100},
		},
	}
	return &profile.Profile{
		Workload: "test/tiny",
		Graph:    g,
		TotalDyn: 342,
		Mix: func() (m [isa.NumClasses]uint64) {
			m[isa.ClassLoad] = 100
			m[isa.ClassIntALU] = 100
			m[isa.ClassBranch] = 100
			m[isa.ClassRet] = 42
			return
		}(),
		OutputHash: 0xdeadbeef,
	}
}

// TestStoreProfileRoundTrip requires marshal → unmarshal → marshal to be
// byte-identical and the decoded structure to deep-equal the original.
func TestStoreProfileRoundTrip(t *testing.T) {
	p := testProfile()
	enc1, err := pipeline.EncodeProfile(p)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := pipeline.DecodeProfile(enc1)
	if err != nil {
		t.Fatal(err)
	}
	enc2, err := pipeline.EncodeProfile(p2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(enc1, enc2) {
		t.Errorf("re-marshal differs:\n%s\nvs\n%s", enc1, enc2)
	}
	if !reflect.DeepEqual(p, p2) {
		t.Error("decoded profile does not deep-equal the original")
	}
}

const progSrc = `
int acc;
void main() {
  int i;
  for (i = 0; i < 10; i = i + 1) {
    acc = acc + i;
  }
  print(acc);
}
`

func compileSrc(t *testing.T, target *isa.Desc, level compiler.OptLevel) *isa.Program {
	t.Helper()
	ast, err := hlc.Parse(progSrc)
	if err != nil {
		t.Fatal(err)
	}
	cp, err := hlc.Check(ast)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := compiler.Compile(cp, target, level)
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// TestStoreProgramRoundTrip checks that a compiled program survives the
// disk encoding: structure deep-equals, the ISA descriptor is re-linked to
// the canonical pointer, and the decoded program executes identically.
func TestStoreProgramRoundTrip(t *testing.T) {
	for _, target := range []*isa.Desc{isa.X86, isa.AMD64, isa.IA64} {
		prog := compileSrc(t, target, compiler.O2)
		enc, err := pipeline.EncodeProgram(prog)
		if err != nil {
			t.Fatal(err)
		}
		got, err := pipeline.DecodeProgram(enc)
		if err != nil {
			t.Fatal(err)
		}
		if got.ISA != target {
			t.Errorf("%s: ISA not re-linked to the canonical descriptor", target.Name)
		}
		if !reflect.DeepEqual(prog.Funcs, got.Funcs) ||
			!reflect.DeepEqual(prog.Globals, got.Globals) || prog.Entry != got.Entry {
			t.Errorf("%s: decoded program differs structurally", target.Name)
		}
		want, err := vm.New(prog).Run(vm.Config{})
		if err != nil {
			t.Fatal(err)
		}
		have, err := vm.New(got).Run(vm.Config{})
		if err != nil {
			t.Fatal(err)
		}
		if want.OutputHash != have.OutputHash || want.DynInstrs != have.DynInstrs {
			t.Errorf("%s: decoded program executes differently", target.Name)
		}
	}
}

// smallProgram is a valid program: main prints 1 and returns.
func smallProgram() *isa.Program {
	return &isa.Program{ISA: isa.AMD64, Funcs: []*isa.Func{{
		Name: "main", NumRegs: 1,
		Blocks: []*isa.Block{{Instrs: []isa.Instr{
			{Op: isa.MOVI, Dst: 0, A: isa.NoReg, B: isa.NoReg, Imm: 1},
			{Op: isa.PRINTI, Dst: isa.NoReg, A: 0, B: isa.NoReg},
			{Op: isa.RET, Dst: isa.NoReg, A: isa.NoReg, B: isa.NoReg},
		}}},
	}}}
}

func mustEncode(t testing.TB, p *isa.Program) []byte {
	t.Helper()
	enc, err := pipeline.EncodeProgram(p)
	if err != nil {
		t.Fatal(err)
	}
	return enc
}

// TestStoreProgramDecodeRejects covers the validation paths. Past the JSON
// and the header, each case is a valid encoding of a program with an
// operand, symbol, successor or size out of range; most of them made
// vm.New or Run panic before DecodeProgram validated programs.
func TestStoreProgramDecodeRejects(t *testing.T) {
	if _, err := pipeline.DecodeProgram(mustEncode(t, smallProgram())); err != nil {
		t.Fatalf("valid program rejected: %v", err)
	}
	cases := map[string][]byte{
		"bad json":    []byte(`{`),
		"unknown isa": []byte(`{"isa":"z80","funcs":[],"entry":0}`),
		"bad entry":   []byte(`{"isa":"amd64v","funcs":[],"entry":0}`),
	}
	first := func(p *isa.Program) *isa.Block { return p.Funcs[0].Blocks[0] }
	for name, mutate := range map[string]func(p *isa.Program){
		"register past NumRegs": func(p *isa.Program) { first(p).Instrs[0].Dst = 500 },
		"load from missing global": func(p *isa.Program) {
			first(p).Instrs[0] = isa.Instr{Op: isa.LD, Dst: 0, A: isa.NoReg, Sym: 9}
		},
		"call to missing function": func(p *isa.Program) {
			first(p).Instrs[0] = isa.Instr{Op: isa.CALL, Dst: isa.NoReg, Sym: 7}
		},
		"jump past the last block": func(p *isa.Program) {
			first(p).Instrs[2] = isa.Instr{Op: isa.JMP}
			first(p).Succs = []int{9}
		},
		"jump without successor":  func(p *isa.Program) { first(p).Instrs[2] = isa.Instr{Op: isa.JMP} },
		"negative register count": func(p *isa.Program) { p.Funcs[0].NumRegs = -1 },
		"negative slot count":     func(p *isa.Program) { p.Funcs[0].NumSlots = -1 },
		"negative global length": func(p *isa.Program) {
			p.Globals = []isa.Global{{Name: "g", Len: -1}}
		},
		"slot past the frame": func(p *isa.Program) {
			first(p).Instrs[0] = isa.Instr{Op: isa.LDL, Dst: 0, Imm: 3}
		},
		"slot index overflowing": func(p *isa.Program) {
			p.Funcs[0].NumSlots = 1
			first(p).Instrs[0] = isa.Instr{Op: isa.LDL, Dst: 0, Imm: math.MaxInt64}
		},
		"branch with one successor": func(p *isa.Program) {
			first(p).Instrs[2] = isa.Instr{Op: isa.BR, A: 0}
			first(p).Succs = []int{0}
		},
		"parameters past the frame": func(p *isa.Program) { p.Funcs[0].NumParams = 2 },
		"unknown opcode":            func(p *isa.Program) { first(p).Instrs[0].Op = isa.Opcode(isa.NumOpcodes) },
		"short bundle list":         func(p *isa.Program) { first(p).Bundle = []int{0} },
		"oversized global":          func(p *isa.Program) { p.Globals = []isa.Global{{Name: "g", Len: 1 << 40}} },
		"initialized array":         func(p *isa.Program) { p.Globals = []isa.Global{{Name: "g", Len: 4, Init: 1}} },
		"oversized frame":           func(p *isa.Program) { p.Funcs[0].NumSlots = 1 << 40 },
	} {
		p := smallProgram()
		mutate(p)
		cases[name] = mustEncode(t, p)
	}
	for name, data := range cases {
		if _, err := pipeline.DecodeProgram(data); err == nil {
			t.Errorf("%s: decode accepted invalid input", name)
		}
	}
}

// TestStoreCloneRoundTrip round-trips a clone record; decoding re-parses
// and re-checks its source, the way the disk tier rebuilds clone artifacts.
func TestStoreCloneRoundTrip(t *testing.T) {
	c := &pipeline.Clone{Source: progSrc}
	c.Report.Workload = "test/tiny"
	c.Report.Reduction = 7
	c.Report.Coverage = 0.998
	enc, err := pipeline.EncodeClone(c)
	if err != nil {
		t.Fatal(err)
	}
	got, err := pipeline.DecodeClone(enc)
	if err != nil {
		t.Fatal(err)
	}
	if got.Checked == nil {
		t.Error("decoded clone carries no checked program")
	}
	got.Checked = nil
	if !reflect.DeepEqual(c, got) {
		t.Error("decoded clone does not deep-equal the original")
	}
	if _, err := hlc.Parse(got.Source); err != nil {
		t.Errorf("round-tripped source no longer parses: %v", err)
	}
	if _, err := pipeline.DecodeClone([]byte(`{"source":""}`)); err == nil {
		t.Error("decode accepted a clone with no source")
	}
}

func TestStoreSimRoundTrip(t *testing.T) {
	s := cpu.Summary{
		Machine: "2-wide OoO", Cycles: 123456, Instrs: 100000,
		TimeSec:  0.000123456,
		L1:       cache.Stats{Accesses: 40000, Misses: 1200},
		L2:       cache.Stats{Accesses: 1200, Misses: 300},
		Branches: 9000, Mispredicts: 270,
	}
	enc, err := pipeline.EncodeSim(s)
	if err != nil {
		t.Fatal(err)
	}
	got, err := pipeline.DecodeSim(enc)
	if err != nil {
		t.Fatal(err)
	}
	if got != s {
		t.Errorf("decoded summary differs:\n%+v\n%+v", got, s)
	}
	if _, err := pipeline.EncodeSim(cpu.Summary{}); err == nil {
		t.Error("encode accepted an empty simulation")
	}
	if _, err := pipeline.DecodeSim([]byte(`{"instrs":0}`)); err == nil {
		t.Error("decode accepted an empty simulation")
	}
	if _, err := pipeline.DecodeSim([]byte(`not json`)); err == nil {
		t.Error("decode accepted garbage")
	}
}

// TestStoreMarkerRoundTrip checks that a validation marker decodes and
// that one not recording a pass, or not JSON, is rejected.
func TestStoreMarkerRoundTrip(t *testing.T) {
	enc, err := pipeline.EncodeMarker(nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pipeline.DecodeMarker(enc); err != nil {
		t.Errorf("marker %s rejected: %v", enc, err)
	}
	for _, data := range []string{`{"ok":false}`, `{}`, `not json`} {
		if _, err := pipeline.DecodeMarker([]byte(data)); err == nil {
			t.Errorf("decode accepted marker %s", data)
		}
	}
}
