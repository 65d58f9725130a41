package pipeline

import (
	"repro/internal/cpu"
	"repro/internal/isa"
	"repro/internal/profile"
)

// Typed views of the stage-to-codec table for the external tests, which
// round-trip, reject and fuzz stored payloads and pin their bytes.
var (
	EncodeProgram = encodeAs[*isa.Program](StageCompile)
	DecodeProgram = decodeAs[*isa.Program](StageCompile)
	EncodeProfile = encodeAs[*profile.Profile](StageProfile)
	DecodeProfile = decodeAs[*profile.Profile](StageProfile)
	EncodeClone   = encodeAs[*Clone](StageSynthesize)
	DecodeClone   = decodeAs[*Clone](StageSynthesize)
	EncodeMarker  = encodeAs[any](StageValidate)
	DecodeMarker  = decodeAs[struct{}](StageValidate)
	EncodeSim     = encodeAs[cpu.Summary](StageSimulate)
	DecodeSim     = decodeAs[cpu.Summary](StageSimulate)
)

func encodeAs[T any](s Stage) func(T) ([]byte, error) {
	return func(v T) ([]byte, error) { return codecs[s].encode(v) }
}

func decodeAs[T any](s Stage) func([]byte) (T, error) {
	return func(data []byte) (T, error) {
		v, err := codecs[s].decode(data)
		if err != nil {
			var zero T
			return zero, err
		}
		return v.(T), nil
	}
}
