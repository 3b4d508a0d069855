// Package polymage is a Go implementation of PolyMage (Mullapudi, Vasista,
// Bondhugula — ASPLOS 2015): a domain-specific language and optimizing
// compiler for image processing pipelines. Pipelines are written as graphs
// of functions over multi-dimensional integer domains; the compiler checks
// bounds statically, inlines point-wise stages, partitions the graph into
// groups by a model-driven heuristic, executes each group with overlapped
// tiling and scratchpad storage, and parallelizes tiles over a worker pool.
//
// A minimal pipeline (3-point blur):
//
//	b := polymage.NewBuilder()
//	W := b.Param("W")
//	in := b.Image("in", polymage.Float, W.Affine())
//	x := b.Var("x")
//	blur := b.Func("blur", polymage.Float, []*polymage.Variable{x},
//	    []polymage.Interval{polymage.Span(polymage.ConstExpr(1), W.Affine().AddConst(-2))})
//	blur.Define(polymage.Case{E: polymage.Mul(1.0/3, polymage.Add(
//	    polymage.Add(in.At(polymage.Sub(x, 1)), in.At(x)), in.At(polymage.Add(x, 1))))})
//	pl, err := polymage.Compile(b, []string{"blur"}, polymage.Options{
//	    Estimates: map[string]int64{"W": 4096},
//	})
//	prog, err := pl.Bind(map[string]int64{"W": 4096}, polymage.ExecOptions{Fast: true})
//	out, err := prog.Run(map[string]*polymage.Buffer{"in": input})
//
// See the examples/ directory for complete programs, and DESIGN.md for how
// this implementation maps onto the paper.
package polymage

import (
	"repro/internal/affine"
	"repro/internal/core"
	"repro/internal/dsl"
	"repro/internal/engine"
	"repro/internal/expr"
	"repro/internal/inline"
	"repro/internal/obs"
	"repro/internal/schedule"
)

// Language constructs (Section 2 of the paper).
type (
	// Builder collects the declarations of one pipeline specification.
	Builder = dsl.Builder
	// Parameter is an integer pipeline parameter (e.g. image width).
	Parameter = dsl.Parameter
	// Variable is an integer loop variable labeling a function dimension.
	Variable = dsl.Variable
	// Interval is the range of a variable, affine in the parameters.
	Interval = dsl.Interval
	// Image declares a pipeline input.
	Image = dsl.Image
	// Function maps a multi-dimensional integer domain to scalar values.
	Function = dsl.Function
	// Case pairs a condition with a defining expression. Where several
	// cases' conditions hold at once, the first in Define's order wins.
	Case = dsl.Case
	// Accumulator is the reduction construct (histograms etc.).
	Accumulator = dsl.Accumulator
	// ReduceOp is a reduction operator for Accumulate.
	ReduceOp = dsl.ReduceOp
	// Expr is a scalar expression.
	Expr = expr.Expr
	// Condition is a boolean condition over variables and parameters.
	Condition = expr.Cond
	// Type is a DSL element type.
	Type = expr.Type
	// AffineExpr is an affine expression over parameters (domain bounds).
	AffineExpr = affine.Expr
	// Buffer is an N-dimensional array exchanged with pipelines. Storage
	// is float32 unless bitwidth inference (ExecOptions.NarrowTypes)
	// narrowed the pipeline, in which case buffers carry uint8, uint16 or
	// int32 elements; see Elem and NewBufferElem.
	Buffer = engine.Buffer
	// Elem is a buffer element type (ElemF32, ElemU8, ElemU16, ElemI32).
	Elem = engine.Elem
	// Box is a concrete N-dimensional index region.
	Box = affine.Box
	// Range is a concrete 1-D index interval.
	Range = affine.Range
)

// Element types.
const (
	Float  = expr.Float
	Double = expr.Double
	Int    = expr.Int
	UInt   = expr.UInt
	Char   = expr.Char
	UChar  = expr.UChar
	Short  = expr.Short
)

// Reduction operators for Accumulator definitions. The Reduce prefix keeps
// them distinct from the expression helpers Min, Max and Mul below.
const (
	ReduceSum  = dsl.SumOp
	ReduceMin  = dsl.MinOp
	ReduceMax  = dsl.MaxOp
	ReduceProd = dsl.MulOp
)

// NewBuilder returns an empty pipeline specification.
func NewBuilder() *Builder { return dsl.NewBuilder() }

// ConstExpr returns a constant affine expression (for domain bounds).
func ConstExpr(v int64) AffineExpr { return affine.Const(v) }

// ParamExpr returns the named parameter as an affine expression.
func ParamExpr(name string) AffineExpr { return affine.Param(name) }

// Span builds an interval from affine bounds; ConstSpan from constants.
var (
	Span      = dsl.Span
	ConstSpan = dsl.ConstSpan
)

// Expression helpers (see internal/dsl for details). The arithmetic helpers
// Add, Sub, Mul, Div, Min and Max accept Expr, *Variable, *Parameter and Go
// numbers uniformly.
var (
	E          = dsl.E
	Add        = dsl.Add
	Sub        = dsl.Sub
	Mul        = dsl.Mul
	Div        = dsl.Div
	IDiv       = dsl.IDiv
	Neg        = dsl.Neg
	Min        = dsl.Min
	Max        = dsl.Max
	Abs        = dsl.Abs
	Sqrt       = dsl.Sqrt
	Exp        = dsl.Exp
	Log        = dsl.Log
	Pow        = dsl.Pow
	Cast       = dsl.Cast
	Clamp      = dsl.Clamp
	Sel        = dsl.Sel
	Cond       = dsl.Cond
	And        = dsl.And
	Or         = dsl.Or
	Not        = dsl.Not
	InBox      = dsl.InBox
	Stencil    = dsl.Stencil
	SeparableX = dsl.SeparableX
	SeparableY = dsl.SeparableY
)

// Options configures compilation; see core.Options.
type Options = core.Options

// ScheduleOptions tunes grouping and overlapped tiling.
type ScheduleOptions = schedule.Options

// InlineOptions tunes point-wise inlining.
type InlineOptions = inline.Options

// AutoScheduleOptions tunes the cost-model auto-scheduler's search
// (ScheduleOptions.Auto / ScheduleOptions.AutoOpts): the tile-size
// candidates and the worker count the model assumes.
type AutoScheduleOptions = schedule.AutoOptions

// CostWeights are the auto-scheduler's model coefficients — the relative
// price of compute, halo recompute, memory traffic, idle parallelism and
// cache-footprint excess. The search prices with fixed built-in values;
// cmd/polymage-tune -auto checks the ranking they give against measured
// schedule sweeps.
type CostWeights = schedule.CostWeights

// ScheduleAuto returns ScheduleOptions with the cost-model auto-scheduler
// enabled: instead of Algorithm 1's single overlap-threshold cut, a
// deterministic greedy descent over stage grouping and per-group tile
// sizes takes, one merge at a time, the merge the analytical cost model
// prices cheapest (memory traffic, redundant halo recompute, parallelism
// against the worker fleet, cache footprint), and stops when no merge
// lowers the cost. It searches the graph the inlining pass leaves.
// Compile with
//
//	polymage.Compile(b, outs, polymage.Options{
//		Estimates: params,
//		Schedule:  polymage.ScheduleAuto(),
//	})
//
// The search is deterministic for fixed options; Program.Stats reports
// the chosen schedule's model cost and search effort.
func ScheduleAuto() ScheduleOptions {
	so := schedule.DefaultOptions()
	so.Auto = true
	return so
}

// ExecOptions configures execution (threads, fast kernels).
type ExecOptions = engine.ExecOptions

// Tiling strategies for fused groups (the Figure 5 comparison).
const (
	// OverlappedTiling is the paper's strategy: parallel tiles that
	// recompute the overlap region (default).
	OverlappedTiling = engine.OverlappedTiling
	// ParallelogramTiling runs tiles sequentially with no recomputation.
	ParallelogramTiling = engine.ParallelogramTiling
	// SplitTiling evaluates tiles in two phases with no recomputation.
	SplitTiling = engine.SplitTiling
)

// Pipeline is a compiled pipeline specification.
type Pipeline = core.Pipeline

// Program is a pipeline lowered for a concrete parameter binding.
// Program.Run is safe for concurrent use; for serving workloads that run
// one compiled pipeline many times, use Program.Executor — the persistent
// runtime whose worker pool and buffer arena make repeated runs nearly
// allocation-free (recycle outputs with Executor.Recycle) — and release it
// with Program.Close when done.
type Program = engine.Program

// Executor is a Program's persistent execution runtime: a long-lived
// worker pool plus a cross-run buffer arena. See Program.Executor.
type Executor = engine.Executor

// Streaming execution over frame sequences (Executor.NewStream and
// Executor.RunFrames): buffers, scratchpads and worker state are reused
// frame-to-frame; StreamOptions.Feedback binds an input image to the
// previous frame's output (sliding-window temporal stencils such as heat
// relaxation or exponential motion blur); and a Frame carrying an ROI —
// the rectangle outside which the caller promises nothing changed —
// recomputes only the points whose reads reach the change, writing into
// the previous frame's buffers, where every other point keeps its value.
type (
	// Stream is an open frame sequence on an Executor; see
	// Executor.NewStream.
	Stream = engine.Stream
	// StreamOptions configures a Stream (feedback bindings).
	StreamOptions = engine.StreamOptions
	// StreamStats counts a stream's frames and its dirty-rectangle tile
	// decisions (recomputed vs skipped).
	StreamStats = engine.StreamStats
	// Frame is one step of Executor.RunFrames: its inputs and an optional
	// changed-region ROI.
	Frame = engine.Frame
)

// Compile runs the PolyMage compiler phases (Figure 4 of the paper) on a
// specification: graph construction, bounds checking, inlining, grouping
// and overlapped-tiling schedule construction.
//
// Two option structs split the surface by phase. Options (with its nested
// ScheduleOptions and InlineOptions) is consumed here, at Compile time: it
// shapes the schedule — grouping, tile sizes, inlining — and therefore the
// compiled Pipeline itself. ExecOptions is consumed later, at
// Pipeline.Bind: it configures how a bound Program executes — thread
// count, generated kernels or the row VM (Fast), metrics — without
// changing what is computed.
// Anything that alters results or the schedule belongs in Options;
// anything that only alters execution strategy belongs in ExecOptions.
// Ahead-of-time generated kernels (see cmd/polymage-gen) are keyed by the
// shape of the stage piece they compute and bind under either.
//
// Compile and Pipeline.Bind never panic on a malformed specification:
// internal panics from the DSL layer or the compiler phases are recovered
// and returned as errors carrying the panic message and the offending
// stage's name. An incomplete parameter binding is rejected at Bind time
// with an error satisfying errors.Is(err, ErrUnboundParam). Long-lived
// servers compiling untrusted specifications rely on both guarantees; see
// internal/service and cmd/polymage-serve for the HTTP serving layer
// built on them (compiled-program cache, bounded admission, /healthz and
// /metrics).
func Compile(b *Builder, outputs []string, opts Options) (*Pipeline, error) {
	return core.Compile(b, outputs, opts)
}

// Buffer element types. A pipeline compiled with ExecOptions.NarrowTypes
// stores uint8/uint16/int32 stages natively and requires input buffers in
// the image's declared element type (a UChar image takes an ElemU8
// buffer); everything else uses ElemF32.
const (
	ElemF32 = engine.ElemF32
	ElemU8  = engine.ElemU8
	ElemU16 = engine.ElemU16
	ElemI32 = engine.ElemI32
)

// NewBuffer allocates a float32 buffer covering box. It is the usual
// buffer constructor; for parametric shapes use Image.NewBuffer (one input
// image) or Pipeline.NewInputs (every input at once).
func NewBuffer(box Box) *Buffer { return engine.NewBuffer(box) }

// NewBufferElem allocates a buffer covering box with the given element
// type (narrow input images for NarrowTypes pipelines).
func NewBufferElem(box Box, elem Elem) *Buffer { return engine.NewBufferElem(box, elem) }

// ConvertBuffer returns a copy of src with the given element type,
// converting each element with the saturating-cast semantics of the runtime
// (float32 widening is exact for 8/16-bit values).
func ConvertBuffer(src *Buffer, elem Elem) *Buffer { return engine.ConvertBuffer(src, elem) }

// FillPattern writes a deterministic pseudo-random pattern (synthetic
// input images for tests and benchmarks).
func FillPattern(b *Buffer, seed int64) { engine.FillPattern(b, seed) }

// Sentinel errors. Errors returned by the runtime wrap these; test with
// errors.Is.
var (
	// ErrClosed reports a Run or Recycle on a closed Program/Executor.
	ErrClosed = engine.ErrClosed
	// ErrNilInput reports a missing or nil input buffer passed to Run.
	ErrNilInput = engine.ErrNilInput
	// ErrShape reports an input buffer whose box does not match the
	// image's domain under the bound parameters.
	ErrShape = engine.ErrShape
	// ErrUnknownStage reports a stage or image name the pipeline does not
	// declare.
	ErrUnknownStage = engine.ErrUnknownStage
	// ErrROI reports a dirty-rectangle ROI that cannot describe any input
	// image's change (rank mismatch with every non-feedback input). The
	// serving layer's request-validation errors wrap it, so errors.Is
	// against ErrROI classifies ROI failures from the engine and the HTTP
	// service alike.
	ErrROI = engine.ErrROI
	// ErrFrames reports an invalid frame sequence (empty, or a frame
	// count a serving layer rejects). Like ErrROI it roots one errors.Is
	// family spanning the engine and the serving layer.
	ErrFrames = engine.ErrFrames
	// ErrUnboundParam reports a parameter with no value in a binding.
	ErrUnboundParam = affine.ErrUnboundParam
)

// Observability. Compile with ExecOptions.Metrics to count kernel time,
// points, tiles and recomputation per stage (Executor.Snapshot);
// Program.Stats reports the schedule model (compile-phase times, per-group
// overlap) with no execution at all.
type (
	// Trace is an ordered list of named wall-time phases (compiler phases,
	// lowering phases).
	Trace = obs.Trace
	// Snapshot is a point-in-time view of an Executor's metrics.
	Snapshot = obs.Snapshot
	// StageStats is one stage's executor counters within a Snapshot.
	StageStats = obs.StageStats
	// GroupStats is one group's executor counters within a Snapshot.
	GroupStats = obs.GroupStats
	// WorkerStats summarizes worker-pool utilization within a Snapshot.
	WorkerStats = obs.WorkerStats
	// ArenaStats counts buffer-arena hits, misses and pooled storage.
	ArenaStats = obs.ArenaStats
	// ProgramStats is the static schedule model from Program.Stats.
	ProgramStats = obs.ProgramStats
	// GroupModel is one group's schedule model within ProgramStats.
	GroupModel = obs.GroupModel
)
