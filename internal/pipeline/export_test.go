package pipeline

// TaintedLoadGadget exposes the Spectre-style gadget to the external test
// package, which drives it through every registered scheme.
var TaintedLoadGadget = taintedLoadGadget
