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

// BuildProgram compiles the generated pipeline of a corpus seed exactly as
// Diff compiles it under knob k.
func BuildProgram(seed int64, k Knob) (*engine.Program, error) {
	sp := Generate(seed)
	b, err := sp.Build(false)
	if err != nil {
		return nil, err
	}
	pl, err := core.Compile(b.Graph.Builder, b.LiveOuts, core.Options{
		Estimates:     b.Params,
		Schedule:      k.schedOptions(),
		Inline:        k.inlineOptions(),
		AllowUnproven: true,
	})
	if err != nil {
		return nil, err
	}
	return pl.Bind(b.Params, k.engineOptions())
}
