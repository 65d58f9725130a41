package pipeline

import (
	"fmt"

	"repro/internal/cpu"
	"repro/internal/hlc"
	"repro/internal/isa"
	"repro/internal/profile"
	"repro/internal/store"
)

// This file wires pipeline artifact types to the store package's
// serialization, giving the artifact cache its persistent tier. Parse and
// Check artifacts are deliberately absent: ASTs carry pointer-identity maps
// that do not serialize, and both stages are cheap enough that a disk round
// trip would cost more than recomputation.

// codecProgram persists compiled programs (original and clone compiles).
var codecProgram = &codec{
	kind: store.KindProgram,
	encode: func(v any) ([]byte, error) {
		return store.EncodeProgram(v.(*isa.Program))
	},
	decode: func(data []byte) (any, error) {
		return store.DecodeProgram(data)
	},
}

// codecProfile persists statistical profiles.
var codecProfile = &codec{
	kind: store.KindProfile,
	encode: func(v any) ([]byte, error) {
		return store.EncodeProfile(v.(*profile.Profile))
	},
	decode: func(data []byte) (any, error) {
		return store.DecodeProfile(data)
	},
}

// codecClone persists synthesized clones. The HLC source is the stored
// artifact of record; decoding re-parses and re-checks it to rebuild the
// AST forms, exactly as a distributed clone would be consumed.
var codecClone = &codec{
	kind: store.KindClone,
	encode: func(v any) ([]byte, error) {
		cl := v.(*Clone)
		return store.EncodeClone(&store.Clone{
			Source:  cl.Source,
			Report:  cl.Report,
			Profile: cl.Profile,
		})
	},
	decode: func(data []byte) (any, error) {
		sc, err := store.DecodeClone(data)
		if err != nil {
			return nil, err
		}
		prog, err := hlc.Parse(sc.Source)
		if err != nil {
			return nil, fmt.Errorf("pipeline: stored clone does not parse: %w", err)
		}
		cp, err := hlc.Check(prog)
		if err != nil {
			return nil, fmt.Errorf("pipeline: stored clone does not check: %w", err)
		}
		return &Clone{
			Checked: cp,
			Report:  sc.Report,
			Source:  sc.Source,
			Profile: sc.Profile,
		}, nil
	},
}

// codecSim persists timing-simulation summaries, keyed by workload,
// compilation point, and machine-configuration fingerprint, so design-
// space sweeps resuming over a shared store recompute nothing.
var codecSim = &codec{
	kind: store.KindSim,
	encode: func(v any) ([]byte, error) {
		return store.EncodeSim(v.(cpu.Summary))
	},
	decode: func(data []byte) (any, error) {
		return store.DecodeSim(data)
	},
}

// codecGenerate persists workload-generation reports. The report is
// produced and consumed as JSON (generate.Report marshals itself before
// handing the bytes to GenerateArtifact), so the codec is a checked
// passthrough rather than a typed round trip — the pipeline package never
// needs to import the generate package it serves.
var codecGenerate = &codec{
	kind: store.KindGenerate,
	encode: func(v any) ([]byte, error) {
		b, ok := v.([]byte)
		if !ok {
			return nil, fmt.Errorf("pipeline: generate artifact is %T, want []byte", v)
		}
		return b, nil
	},
	decode: func(data []byte) (any, error) {
		return data, nil
	},
}

// codecMarker persists validation outcomes, which carry no data beyond
// "this keyed check passed".
var codecMarker = &codec{
	kind: store.KindMarker,
	encode: func(any) ([]byte, error) {
		return store.EncodeMarker(), nil
	},
	decode: func(data []byte) (any, error) {
		if err := store.DecodeMarker(data); err != nil {
			return nil, err
		}
		return struct{}{}, nil
	},
}
