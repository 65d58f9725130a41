// Package hlctest is test support for code that starts from HLC source
// known to be valid. No non-test code imports it.
package hlctest

import "repro/internal/hlc"

// MustCheck parses and checks src, panicking on any error.
func MustCheck(src string) *hlc.CheckedProgram {
	prog, err := hlc.Parse(src)
	if err != nil {
		panic(err)
	}
	cp, err := hlc.Check(prog)
	if err != nil {
		panic(err)
	}
	return cp
}
