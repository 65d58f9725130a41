package store

import (
	"bytes"
	"encoding/json"
	"fmt"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/isa"
	"repro/internal/profile"
)

// EncodeProfile serializes a statistical profile. The encoding is the
// profile's own JSON schema (the same shape `synth profile` emits), so a
// stored payload is also directly loadable with profile.Load.
func EncodeProfile(p *profile.Profile) ([]byte, error) {
	if p == nil || p.Graph == nil {
		return nil, fmt.Errorf("store: encode profile: nil profile or graph")
	}
	return json.Marshal(p)
}

// DecodeProfile deserializes a statistical profile with profile.Load, the
// one profile decoder.
func DecodeProfile(data []byte) (*profile.Profile, error) {
	p, err := profile.Load(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	return p, nil
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

// EncodeProgram serializes a compiled program.
func EncodeProgram(p *isa.Program) ([]byte, error) {
	if p == nil || p.ISA == nil {
		return nil, fmt.Errorf("store: encode program: nil program or ISA")
	}
	return json.Marshal(programJSON{
		ISA:     p.ISA.Name,
		Globals: p.Globals,
		Funcs:   p.Funcs,
		Entry:   p.Entry,
	})
}

// DecodeProgram deserializes a compiled program, re-linking its ISA
// descriptor by name. A checksum only proves the payload arrived intact —
// a store peer can checksum a malformed program — so the program is
// validated here, once: whatever DecodeProgram returns, vm.New loads and
// Run executes without panicking.
func DecodeProgram(data []byte) (*isa.Program, error) {
	var pj programJSON
	if err := json.Unmarshal(data, &pj); err != nil {
		return nil, fmt.Errorf("store: decode program: %w", err)
	}
	desc := isa.ByName(pj.ISA)
	if desc == nil {
		return nil, fmt.Errorf("store: decode program: unknown ISA %q", pj.ISA)
	}
	if err := validateProgram(&pj); err != nil {
		return nil, fmt.Errorf("store: decode program: %w", err)
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

// Clone is the serialized form of a synthesized benchmark clone. The HLC
// source is the artifact of record — decode callers re-parse and re-check
// it to rebuild the AST forms, exactly as a distributed clone would be
// consumed — alongside the synthesis report and the profile the clone was
// synthesized from.
type Clone struct {
	Source  string           `json:"source"`
	Report  core.Report      `json:"report"`
	Profile *profile.Profile `json:"profile"`
}

// EncodeClone serializes a synthesized clone.
func EncodeClone(c *Clone) ([]byte, error) {
	if c == nil || c.Source == "" {
		return nil, fmt.Errorf("store: encode clone: nil clone or empty source")
	}
	return json.Marshal(c)
}

// DecodeClone deserializes a synthesized clone. The profile is required
// and validated like DecodeProfile's: readers use it as the clone's
// original (Fig. 4 reads its dynamic size).
func DecodeClone(data []byte) (*Clone, error) {
	var c Clone
	if err := json.Unmarshal(data, &c); err != nil {
		return nil, fmt.Errorf("store: decode clone: %w", err)
	}
	if c.Source == "" {
		return nil, fmt.Errorf("store: decode clone: empty source")
	}
	if err := c.Profile.Validate(); err != nil {
		return nil, fmt.Errorf("store: decode clone: %w", err)
	}
	return &c, nil
}

// EncodeSim serializes a timing-simulation summary — the artifact the
// pipeline's Simulate stage persists, keyed by workload, compilation
// point, and machine-configuration fingerprint.
func EncodeSim(s cpu.Summary) ([]byte, error) {
	if s.Instrs == 0 {
		return nil, fmt.Errorf("store: encode sim: empty simulation (no instructions)")
	}
	return json.Marshal(s)
}

// DecodeSim deserializes a timing-simulation summary.
func DecodeSim(data []byte) (cpu.Summary, error) {
	var s cpu.Summary
	if err := json.Unmarshal(data, &s); err != nil {
		return cpu.Summary{}, fmt.Errorf("store: decode sim: %w", err)
	}
	if s.Instrs == 0 {
		return cpu.Summary{}, fmt.Errorf("store: decode sim: empty simulation")
	}
	return s, nil
}

// markerPayload is the fixed payload of validation markers.
var markerPayload = []byte(`{"ok":true}`)

// EncodeMarker returns the payload recording that a keyed check passed.
func EncodeMarker() []byte {
	return append([]byte(nil), markerPayload...)
}

// DecodeMarker validates a marker payload.
func DecodeMarker(data []byte) error {
	var m struct {
		OK bool `json:"ok"`
	}
	if err := json.Unmarshal(data, &m); err != nil {
		return fmt.Errorf("store: decode marker: %w", err)
	}
	if !m.OK {
		return fmt.Errorf("store: decode marker: not ok")
	}
	return nil
}
