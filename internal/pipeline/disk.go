package pipeline

import (
	"bytes"
	"encoding/json"
	"fmt"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/hlc"
	"repro/internal/isa"
	"repro/internal/profile"
)

// This file owns every artifact format the pipeline persists: one codec
// per stage, each with the kind string its store entries carry and the
// payload's encoding. The store itself keeps bytes. Parse and Check
// artifacts are deliberately absent: ASTs carry pointer-identity maps that
// do not serialize, and both stages are cheap enough that a disk round trip
// would cost more than recomputation.

// ArtifactVersion is the one version of everything the pipeline persists:
// the first field of every Key.Canonical, and through it of every cluster
// dispatch's identity. A change that alters any artifact's bytes or
// meaning (a codec below, the profiler, the synthesizer, the compiler, the
// timing models, or the key's own encoding) bumps it and nothing else;
// entries written under another version are then misses, because their
// stored keys no longer match.
const ArtifactVersion = 7

// codec (de)serializes one stage's artifacts for the disk tier. An entry's
// kind must match the reader's expectation, so a digest collision between
// two different artifact types reads as a miss.
type codec struct {
	kind   string
	encode func(any) ([]byte, error)
	decode func([]byte) (any, error)
}

// codecs maps each stage to the codec that persists its artifacts; nil
// stages stay memory-only.
var codecs = [NumStages]*codec{
	// Compiled programs (original and clone compiles).
	StageCompile: {kind: "program", encode: encodeProgram, decode: decodeProgram},

	// Statistical profiles, in the profile's own JSON schema (the same
	// shape `synth profile` emits), decoded with profile.Load, the one
	// profile decoder.
	StageProfile: {kind: "profile",
		encode: func(v any) ([]byte, error) {
			p := v.(*profile.Profile)
			if p == nil || p.Graph == nil {
				return nil, fmt.Errorf("pipeline: encode profile: nil profile or graph")
			}
			return json.Marshal(p)
		},
		decode: func(data []byte) (any, error) {
			p, err := profile.Load(bytes.NewReader(data))
			if err != nil {
				return nil, fmt.Errorf("pipeline: %w", err)
			}
			return p, nil
		},
	},

	// Synthesized clones.
	StageSynthesize: {kind: "clone", encode: encodeClone, decode: decodeClone},

	// Validation outcomes, which carry no data beyond "this keyed check
	// passed".
	StageValidate: {kind: "marker",
		encode: func(any) ([]byte, error) { return []byte(`{"ok":true}`), nil },
		decode: func(data []byte) (any, error) {
			var m struct {
				OK bool `json:"ok"`
			}
			if err := json.Unmarshal(data, &m); err != nil {
				return nil, fmt.Errorf("pipeline: decode marker: %w", err)
			}
			if !m.OK {
				return nil, fmt.Errorf("pipeline: decode marker: not ok")
			}
			return struct{}{}, nil
		},
	},

	// Timing-simulation summaries, keyed by workload, compilation point,
	// and machine-configuration fingerprint, so design-space sweeps
	// resuming over a shared store recompute nothing.
	StageSimulate: {kind: "sim",
		encode: func(v any) ([]byte, error) {
			s := v.(cpu.Summary)
			if s.Instrs == 0 {
				return nil, fmt.Errorf("pipeline: encode sim: empty simulation (no instructions)")
			}
			return json.Marshal(s)
		},
		decode: func(data []byte) (any, error) {
			var s cpu.Summary
			if err := json.Unmarshal(data, &s); err != nil {
				return nil, fmt.Errorf("pipeline: decode sim: %w", err)
			}
			if s.Instrs == 0 {
				return nil, fmt.Errorf("pipeline: decode sim: empty simulation")
			}
			return s, nil
		},
	},

	// Workload-generation reports. The report is produced and consumed as
	// JSON (generate.Report marshals itself before handing the bytes to
	// GenerateArtifact), so the codec is a checked passthrough rather than
	// a typed round trip — the pipeline package never needs to import the
	// generate package it serves.
	StageGenerate: {kind: "generate",
		encode: func(v any) ([]byte, error) {
			b, ok := v.([]byte)
			if !ok {
				return nil, fmt.Errorf("pipeline: generate artifact is %T, want []byte", v)
			}
			return b, nil
		},
		decode: func(data []byte) (any, error) { return data, nil },
	},
}

// codecFor returns the codec persisting stage s, or nil for memory-only
// stages.
func codecFor(s Stage) *codec {
	if s < 0 || int(s) >= NumStages {
		return nil
	}
	return codecs[s]
}

// programJSON is the portable form of a compiled program: the ISA is stored
// by name and re-linked to its descriptor on decode, everything else is the
// isa package's own exported structure.
type programJSON struct {
	ISA     string       `json:"isa"`
	Globals []isa.Global `json:"globals"`
	Funcs   []*isa.Func  `json:"funcs"`
	Entry   int          `json:"entry"`
}

func encodeProgram(v any) ([]byte, error) {
	p := v.(*isa.Program)
	if p == nil || p.ISA == nil {
		return nil, fmt.Errorf("pipeline: encode program: nil program or ISA")
	}
	return json.Marshal(programJSON{
		ISA:     p.ISA.Name,
		Globals: p.Globals,
		Funcs:   p.Funcs,
		Entry:   p.Entry,
	})
}

// decodeProgram deserializes a compiled program, re-linking its ISA
// descriptor by name. A checksum only proves the payload arrived intact —
// a store peer can checksum a malformed program — so the program is
// validated here, once: whatever decodeProgram returns, vm.New loads and
// Run executes without panicking.
func decodeProgram(data []byte) (any, error) {
	var pj programJSON
	if err := json.Unmarshal(data, &pj); err != nil {
		return nil, fmt.Errorf("pipeline: decode program: %w", err)
	}
	desc := isa.ByName(pj.ISA)
	if desc == nil {
		return nil, fmt.Errorf("pipeline: decode program: unknown ISA %q", pj.ISA)
	}
	if err := validateProgram(&pj); err != nil {
		return nil, fmt.Errorf("pipeline: decode program: %w", err)
	}
	return &isa.Program{ISA: desc, Globals: pj.Globals, Funcs: pj.Funcs, Entry: pj.Entry}, nil
}

// Size bounds on a decoded program, far above anything the compiler emits
// (over the full suite: 67 slots in the largest frame; its clones' walker
// arrays reach 262,272 elements in one global), so a hostile payload
// cannot make loading or running it allocate without limit. Register
// IDs are 16 bits with isa.NoReg reserved, which bounds a frame's
// registers.
const (
	maxGlobalElems = 1 << 24 // all globals together
	maxFrameSlots  = 1 << 16 // one function's stack frame
)

// validateProgram checks every index the VM's loader and dispatch loop
// take from the program: sizes, register operands, global and callee
// symbols, frame slots, and branch successors.
func validateProgram(pj *programJSON) error {
	if pj.Entry < 0 || pj.Entry >= len(pj.Funcs) {
		return fmt.Errorf("entry %d out of range", pj.Entry)
	}
	elems := 0
	for i, g := range pj.Globals {
		if g.Len < 0 || g.Len > maxGlobalElems-elems {
			return fmt.Errorf("global %d: length %d out of range", i, g.Len)
		}
		if g.Init != 0 && g.Len != 1 {
			return fmt.Errorf("global %d: initializer on an array of %d elements", i, g.Len)
		}
		elems += g.Len
	}
	// Frames first: a CALL reads its callee's parameter count.
	for i, f := range pj.Funcs {
		if f == nil || len(f.Blocks) == 0 {
			return fmt.Errorf("function %d is empty", i)
		}
		if f.NumRegs < 0 || f.NumRegs > int(isa.NoReg) ||
			f.NumSlots < 0 || f.NumSlots > maxFrameSlots ||
			f.NumParams < 0 || f.NumParams > f.NumSlots {
			return fmt.Errorf("function %d: frame of %d registers, %d slots, %d parameters out of range",
				i, f.NumRegs, f.NumSlots, f.NumParams)
		}
	}
	for fi, f := range pj.Funcs {
		for bi, b := range f.Blocks {
			if b == nil {
				return fmt.Errorf("function %d block %d is missing", fi, bi)
			}
			for _, s := range b.Succs {
				if s < 0 || s >= len(f.Blocks) {
					return fmt.Errorf("function %d block %d: successor %d out of range", fi, bi, s)
				}
			}
			if b.Bundle != nil && len(b.Bundle) != len(b.Instrs) {
				return fmt.Errorf("function %d block %d: %d bundle entries for %d instructions",
					fi, bi, len(b.Bundle), len(b.Instrs))
			}
			for ii := range b.Instrs {
				if in := &b.Instrs[ii]; !instrValid(pj, f, b, in) {
					return fmt.Errorf("function %d block %d instruction %d: malformed %v", fi, bi, ii, *in)
				}
			}
		}
	}
	return nil
}

// instrValid reports whether the operands in reads and writes are in
// range. isa.NoReg is allowed only where the VM gives it a meaning: a
// scalar LD/ST index, a void RET, and a CALL whose result is unused.
func instrValid(pj *programJSON, f *isa.Func, b *isa.Block, in *isa.Instr) bool {
	reg := func(r isa.RegID) bool { return int(r) < f.NumRegs }
	optReg := func(r isa.RegID) bool { return r == isa.NoReg || reg(r) }
	slots := func(first int64, n int) bool { return first >= 0 && first <= int64(f.NumSlots-n) }
	global := func(sym int32) bool { return sym >= 0 && int(sym) < len(pj.Globals) }
	switch in.Op {
	case isa.NOP:
		return true
	case isa.MOVI, isa.MOVF:
		return reg(in.Dst)
	case isa.MOV, isa.NEG, isa.NOTB, isa.FNEG, isa.ITOF, isa.FTOI,
		isa.FSQRT, isa.FSIN, isa.FCOS, isa.FABS:
		return reg(in.Dst) && reg(in.A)
	case isa.LD:
		return reg(in.Dst) && optReg(in.A) && global(in.Sym)
	case isa.ST:
		return optReg(in.A) && reg(in.B) && global(in.Sym)
	case isa.LDL:
		return reg(in.Dst) && slots(in.Imm, 1)
	case isa.STL:
		return reg(in.A) && slots(in.Imm, 1)
	case isa.BR:
		return reg(in.A) && len(b.Succs) >= 2
	case isa.JMP:
		return len(b.Succs) >= 1
	case isa.RET:
		return optReg(in.A)
	case isa.CALL:
		return optReg(in.Dst) && in.Sym >= 0 && int(in.Sym) < len(pj.Funcs) &&
			slots(in.Imm, pj.Funcs[in.Sym].NumParams)
	case isa.PRINTI, isa.PRINTF:
		return reg(in.A)
	}
	// Binary integer and floating-point operations.
	return in.Op >= 0 && int(in.Op) < isa.NumOpcodes && reg(in.Dst) && reg(in.A) && reg(in.B)
}

// storedClone is the serialized form of a synthesized clone. The HLC
// source is the artifact of record — decodeClone re-parses and re-checks
// it to rebuild the AST forms, exactly as a distributed clone would be
// consumed — alongside the synthesis report.
type storedClone struct {
	Source string      `json:"source"`
	Report core.Report `json:"report"`
}

func encodeClone(v any) ([]byte, error) {
	cl := v.(*Clone)
	if cl == nil || cl.Source == "" {
		return nil, fmt.Errorf("pipeline: encode clone: nil clone or empty source")
	}
	return json.Marshal(storedClone{Source: cl.Source, Report: cl.Report})
}

// decodeClone deserializes a synthesized clone.
func decodeClone(data []byte) (any, error) {
	var sc storedClone
	if err := json.Unmarshal(data, &sc); err != nil {
		return nil, fmt.Errorf("pipeline: decode clone: %w", err)
	}
	if sc.Source == "" {
		return nil, fmt.Errorf("pipeline: decode clone: empty source")
	}
	prog, err := hlc.Parse(sc.Source)
	if err != nil {
		return nil, fmt.Errorf("pipeline: stored clone does not parse: %w", err)
	}
	cp, err := hlc.Check(prog)
	if err != nil {
		return nil, fmt.Errorf("pipeline: stored clone does not check: %w", err)
	}
	return &Clone{Checked: cp, Report: sc.Report, Source: sc.Source}, nil
}
