package difftest

import (
	"repro/internal/affine"
	"repro/internal/dsl"
	"repro/internal/expr"
)

// AccumCases returns the accumulator table: histograms (hist's shape) whose
// targets are row-invariant, divided along the row and data-dependent,
// each of which also leaves the output box, under every reduction — Sum of
// small integers, Mul of powers of two, Min and Max of square roots that are
// NaN below a threshold (the reduction drops those) — and the Sum over
// 1-wide rows and over a uint8 image; then rank-1 reductions whose constant
// target lies in the box or outside it. Every reduction is exact in any
// order, so all tiers at any thread count and the reference interpreter
// agree bit for bit.
func AccumCases() []GatherCase {
	pow2 := func(v expr.Expr) expr.Expr { return dsl.Sel(dsl.Cond(v, ">", 0.5), 2.0, 0.5) }
	root := func(v expr.Expr) expr.Expr { return dsl.Sqrt(dsl.Sub(v, 0.25)) }
	rc := func(r, c int64) map[string]int64 { return map[string]int64{"R": r, "C": c} }
	return []GatherCase{
		{Name: "sum", Build: histPipeline(dsl.SumOp, false, small), Params: rc(72, 52)},
		{Name: "sum-1wide", Build: histPipeline(dsl.SumOp, false, small), Params: rc(72, 1)},
		{Name: "mul", Build: histPipeline(dsl.MulOp, false, pow2), Params: rc(72, 52)},
		{Name: "min-nan", Build: histPipeline(dsl.MinOp, false, root), Params: rc(72, 52)},
		{Name: "max-nan", Build: histPipeline(dsl.MaxOp, false, root), Params: rc(72, 52)},
		{Name: "u8", Narrow: true, Build: histPipeline(dsl.SumOp, true, func(v expr.Expr) expr.Expr { return v }), Params: rc(40, 52)},
		{Name: "line", Build: linePipeline(2), Params: map[string]int64{"N": 200}},
		{Name: "line-out", Build: linePipeline(7), Params: map[string]int64{"N": 200}},
	}
}

// small is a small integer value: its sums are exact in any order.
func small(v expr.Expr) expr.Expr { return dsl.Cast(expr.Int, dsl.Mul(v, 8.0)) }

// histPipeline builds hist: an R×C image I swept into an 8×12×32 grid at
// (x/8, y/4, bin) under op, adding value(I(x, y)). The bin is ⌊40·I⌋ − 4
// for a float image and ⌊I/6⌋ − 4 for a uint8 one, so it leaves [0, 31] on
// both sides.
func histPipeline(op dsl.ReduceOp, narrow bool, value func(v expr.Expr) expr.Expr) func() (*dsl.Builder, []string) {
	return func() (*dsl.Builder, []string) {
		b := dsl.NewBuilder()
		R, C := b.Param("R"), b.Param("C")
		typ := expr.Float
		if narrow {
			typ = expr.UChar
		}
		I := b.Image("I", typ, R.Affine(), C.Affine())
		x, y := b.Var("x"), b.Var("y")
		hx, hy, bin := b.Var("hx"), b.Var("hy"), b.Var("bin")
		hist := b.Accum("hist", expr.Float,
			[]*dsl.Variable{x, y}, []dsl.Interval{span(R.Affine()), span(C.Affine())},
			[]*dsl.Variable{hx, hy, bin}, []dsl.Interval{dsl.ConstSpan(0, 7), dsl.ConstSpan(0, 11), dsl.ConstSpan(0, 31)})
		target := dsl.Sub(dsl.Cast(expr.Int, dsl.Mul(I.At(x, y), 40.0)), 4)
		if narrow {
			target = dsl.Sub(dsl.IDiv(I.At(x, y), 6), 4)
		}
		hist.Define([]any{dsl.IDiv(x, 8), dsl.IDiv(y, 4), target}, value(I.At(x, y)), op)
		return b, []string{"hist"}
	}
}

// linePipeline builds a rank-1 reduction of an N-element image into a 4×16
// grid at (k, ⌊20·I⌋ − 2), adding ⌊8·I⌋: one constant row k of the grid, or
// none when k lies outside [0, 3].
func linePipeline(k int64) func() (*dsl.Builder, []string) {
	return func() (*dsl.Builder, []string) {
		b := dsl.NewBuilder()
		N := b.Param("N")
		I := b.Image("I", expr.Float, N.Affine())
		x, row, bin := b.Var("x"), b.Var("row"), b.Var("bin")
		line := b.Accum("line", expr.Float, []*dsl.Variable{x}, []dsl.Interval{dsl.Span(affine.Const(0), N.Affine().AddConst(-1))},
			[]*dsl.Variable{row, bin}, []dsl.Interval{dsl.ConstSpan(0, 3), dsl.ConstSpan(0, 15)})
		line.Define([]any{k, dsl.Sub(dsl.Cast(expr.Int, dsl.Mul(I.At(x), 20.0)), 2)}, small(I.At(x)), dsl.SumOp)
		return b, []string{"line"}
	}
}
