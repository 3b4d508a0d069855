// Package gencorpus holds checked-in ahead-of-time kernels for the
// stage-piece shapes of difftest corpus seeds 1..40, emitted by
// cmd/polymage-gen from each seed compiled under difftest.GenKnobs (hand
// and auto schedule), of the integer corpus compiled with NarrowTypes under
// difftest.NarrowGenKnobs, and of the hand-written tables
// (difftest.GatherCases, difftest.IntBodyCases, difftest.AccumCases,
// difftest.PhaseCases, difftest.CarryCases, difftest.StrideCases,
// difftest.MinMaxNaNCase, difftest.ExpCase). Kernels are keyed by piece
// shape, so they bind under every Fast knob of the sweep, and to any other
// seed that happens to contain the same shape. The difftest tests
// blank-import this package; TestGenKnobCorpus and
// TestIntegerCorpusBindsKernels check that every eligible piece of those
// seeds binds, and the sweeps diff the compiled kernels against the
// reference interpreter and against knobs with kernels pinned off.
// `make gen` fails the build if kernels_gen.go drifts from the emitter.
//
// kernels_gen.go is generated — regenerate instead of editing:
//
//go:generate go run repro/cmd/polymage-gen -apps "" -corpus 40 -dir ../../..
package gencorpus
