package obs

// GroupModel is the schedule model's static view of one group: what the
// compiler decided (tile sizes, overlap estimates) as opposed to what the
// executor measured (Snapshot). Comparing GroupModel.OverlapRatio against
// StageStats.RecomputeFraction shows how well the paper's Section 3.5 cost
// model predicts the measured redundant computation.
type GroupModel struct {
	Anchor  string
	Members []string
	// Tiled reports whether the group executes with overlapped tiling.
	Tiled bool
	// TileSizes / TileCounts per anchor dimension (0 size = untiled dim).
	TileSizes  []int64
	TileCounts []int64
	// PlannedTiles is the product of TileCounts: tiles per run.
	PlannedTiles int64
	// OverlapRatio is the model's redundant-computation estimate per
	// anchor dimension (Algorithm 1 line 11), evaluated at the compile
	// estimates.
	OverlapRatio []float64
	// Cost is the auto-scheduler's cost-model breakdown for the group
	// (nil when the program was scheduled by the plain threshold
	// heuristic). Its point counts are directly comparable to the
	// executor's measured counters: Recompute vs the group's summed
	// StageStats.RecomputedPoints, ModelTiles vs GroupStats.Tiles.
	Cost *GroupCostModel
}

// GroupCostModel mirrors the schedule package's GroupCost for the
// observability surface: the auto-scheduler's per-group terms, in domain
// points, at the compile-time estimates.
type GroupCostModel struct {
	Compute         float64
	Recompute       float64
	Traffic         float64
	ParallelIdle    float64
	FootprintExcess float64
	// ModelTiles is the tile count the model priced (1 for untiled).
	ModelTiles int64
	// Exact reports exact per-tile enumeration (vs interior-tile
	// extrapolation past the search's tile cap).
	Exact bool
}

// MaxOverlap returns the largest per-dimension overlap ratio.
func (g GroupModel) MaxOverlap() float64 {
	m := 0.0
	for _, r := range g.OverlapRatio {
		if r > m {
			m = r
		}
	}
	return m
}

// ProgramStats is the compile-time side of the observability surface,
// returned by Program.Stats(): phase timings of the front-end and of the
// lowering, plus the schedule model per group.
type ProgramStats struct {
	// Compile holds the front-end phase timings (graph construction,
	// bounds checking, inlining, grouping); nil when the Program was
	// lowered directly from a Grouping without the core front-end.
	Compile *Trace
	// Bind holds the lowering phase timings (stage lowering, tile
	// planning) for this parameter binding.
	Bind Trace
	// Groups lists the schedule model per group, in execution order.
	Groups []GroupModel
	// Stages lists per-stage lowering decisions — which evaluator each
	// case piece compiled to and, for row-VM pieces, the instruction mix
	// and register footprint. Filled for Fast-compiled programs.
	Stages []StageModel
	// AutoScheduled reports that the grouping came from the cost-model
	// beam search (schedule.Options.Auto); ScheduleModelCost is the
	// searched schedule's weighted model cost and SearchStates /
	// SearchPruned the search-effort counters. SearchCostEvals of the
	// SearchStates candidates were priced by evaluating the cost model and
	// SearchCostCacheHits from the search's memo; SearchPerDimEvals of the
	// evaluations tabulated the group's tiles per dimension,
	// SearchEnumeratedEvals walked every tile because the group is not
	// separable (the slow kind: one that grows is a pipeline falling off
	// the scheduler's fast path), the rest extrapolated an interior tile.
	// When inlining substituted stages, the uninlined graph was searched
	// too: UninlinedStates counts that search's candidates whichever graph
	// won (0 when it did not run), and UninlinedBounded reports that it
	// stopped because nothing left could beat the inlined graph's cost.
	AutoScheduled         bool
	ScheduleModelCost     float64
	SearchStates          int
	SearchPruned          int
	SearchCostEvals       int
	SearchCostCacheHits   int
	SearchPerDimEvals     int
	SearchEnumeratedEvals int
	UninlinedStates       int
	UninlinedBounded      bool
	// GenMisses counts, per reason, the stage pieces that did not bind an
	// ahead-of-time generated kernel. Zero unless the program was compiled
	// Fast with generated kernels enabled.
	GenMisses GenMisses
}

// GenMisses says why stage pieces run on an interpreted tier instead of a
// generated kernel (StageModel.Gen counts the hits). NoKernel is the one
// reason regenerating fixes: the piece is eligible but no linked package
// holds a kernel for its key.
type GenMisses struct {
	NoKernel   int `json:"no_kernel"`  // eligible, no kernel registered for its key
	Predicated int `json:"predicated"` // residual per-point predicate
	SelfRef    int `json:"self_ref"`   // self-referencing stage
	Irregular  int `json:"irregular"`  // stage rank outside 1–3, an index offset the binding cannot evaluate, a gather piece or an accumulator under Debug, or a canonical expression that does not lower to the piece's own register type
}

// Total is the number of pieces without a generated kernel; with the Gen
// counts of the program's stages it adds up to the program's pieces.
func (m GenMisses) Total() int {
	return m.NoKernel + m.Predicated + m.SelfRef + m.Irregular
}

// StageModel describes how one stage's case pieces were lowered: the
// kernel/evaluator chosen per piece and the row-VM program shape. The VM
// counters aggregate over the stage's VM pieces.
type StageModel struct {
	Name string
	// Elem is the stage's storage element type ("float32" unless bitwidth
	// inference narrowed it to "uint8"/"uint16"/"int32"); IntExact reports
	// that every expression node is provably integral within ±2^24 (the
	// integer-VM eligibility bound).
	Elem     string
	IntExact bool
	// Evaluator selection, counted per case piece (a case shadowed by an
	// earlier overlapping default has none and is not counted). Stencil,
	// Comb, IntStencil, ClosureRow and Scalar name tiers the engine no
	// longer has and always read 0; they stay declared because bench/lib.go
	// (a separate module, frozen by BENCHMARK.json) reads all seven fields.
	Gen        int // ahead-of-time generated Go kernel (polymage-gen)
	Stencil    int
	Comb       int
	IntStencil int
	RowVM      int // row bytecode VM (incl. an accumulator swept by rows)
	ClosureRow int
	Scalar     int
	// Row-VM program shape (zero when RowVM == 0).
	VMInstrs   int  // instructions across the stage's VM programs
	VMFusedOps int  // superinstructions emitted by the peephole pass
	VMRegs     int  // float row-register high-water mark (max over pieces)
	VMBoolRegs int  // bool row-register high-water mark
	VMF32      bool // some piece runs the row VM on float32 registers
	VMInt      bool // some piece runs the row VM on int64 registers
}
