package difftest

import (
	"repro/internal/core"
	"repro/internal/engine"
)

// GenKnobs are the two sweep points cmd/polymage-gen compiles each corpus
// seed under to collect the piece shapes the checked-in gencorpus package
// holds kernels for: the hand schedule and the auto-scheduler, whose
// inlining decision can differ. Kernels are keyed by piece shape, so they
// bind under every other knob's schedule as well; these two are merely
// the ones guaranteed full coverage.
func GenKnobs() []Knob {
	return []Knob{
		{Name: "gen-kernels", Tiles: []int64{16, 16}, Fast: true, Threads: 2},
		{Name: "schedule-auto", Tiles: []int64{16, 16}, Fast: true, Threads: 2, Auto: true},
	}
}

// The integer corpus (TestIntegerSeedCorpus): GenerateInteger over
// IntegerCorpusSeeds consecutive seeds from IntegerCorpusBase.
const (
	IntegerCorpusBase  = 20260807
	IntegerCorpusSeeds = 48
)

// NarrowGenKnobs are GenKnobs' counterparts for the integer corpus, compiled
// with NarrowTypes: the piece shapes of the hand schedule (which the other
// narrow knobs share) and of the auto-scheduler. The second, narrow-gen, is
// also the point of NarrowKnobs that runs the int64 kernels in the
// configuration bench/ and the service use (auto-scheduled, pooled buffers).
func NarrowGenKnobs() []Knob {
	return []Knob{
		{Name: "narrow-hand", Tiles: []int64{16, 16}, Fast: true, Threads: 2, NarrowTypes: true},
		{Name: "narrow-gen", Tiles: []int64{16, 16}, Fast: true, Threads: 2, Auto: true, ReuseBuffers: true, NarrowTypes: true},
	}
}

// BuildProgram compiles a generated pipeline exactly as Diff compiles it
// under knob k.
func BuildProgram(sp PipelineSpec, k Knob) (*engine.Program, error) {
	b, err := sp.Build(false)
	if err != nil {
		return nil, err
	}
	co, eo := k.options(b.Params)
	pl, err := core.Compile(b.Graph.Builder, b.LiveOuts, co)
	if err != nil {
		return nil, err
	}
	return pl.Bind(b.Params, eo)
}
