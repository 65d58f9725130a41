package cpu

// BranchPC exposes the synthetic predictor PC of a static branch site to
// the external tests' replay oracle.
var BranchPC = branchPC
