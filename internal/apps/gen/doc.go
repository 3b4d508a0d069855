// Package gen holds the checked-in ahead-of-time kernels for the seven
// Table-2 benchmark apps and the two uint8 apps (apps.AllNarrow), emitted
// by cmd/polymage-gen: one Go function per distinct stage-piece shape found
// in the apps compiled under the hand and the auto schedule — the uint8
// apps both with NarrowTypes (int64 bodies over uint8/uint16 rows) and in
// the float32 layout.
//
// kernels_gen.go registers each kernel in the engine's process-wide
// registry at init under the content key of the piece it computes
// (engine.GenUnit.Key); linking this package (usually via a blank import)
// is all it takes for every piece with a registered key — under any
// schedule, tile size or image size — to run the compiled loop nest
// instead of the interpreted tiers. `make gen` fails the build if the file
// drifts from what the emitter produces.
//
// kernels_gen.go is generated — regenerate instead of editing:
//
//go:generate go run repro/cmd/polymage-gen -corpus 0 -dir ../../..
package gen
