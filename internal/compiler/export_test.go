package compiler

// Internals driven by the external tests in package compiler_test. Those
// tests take their inputs from synthesized clones, and an internal test
// importing the synthesizer would be an import cycle.
var (
	MapUses      = mapUses
	ScheduleEPIC = scheduleEPIC
)
