package difftest

import (
	"testing"

	"repro/internal/affine"
	"repro/internal/dsl"
	"repro/internal/engine"
	"repro/internal/expr"
)

// selfRefCases are pieces no generated kernel covers: a self-referencing
// stage that runs a point at a time, one that runs a row at a time beside a
// predicated boundary, and a predicated piece with a gather whose later
// default overlaps it.
func selfRefCases() []GatherCase {
	return []GatherCase{
		{Name: "scan", Build: selfRefScan, Params: map[string]int64{"R": 9, "C": 23}},
		{Name: "heat", Build: selfRefHeat, Params: map[string]int64{"N": 19}},
		{Name: "predgather", Build: predicatedGather, Params: map[string]int64{"R": 24, "C": 40}},
	}
}

// scan: a running sum along each row, whose self-read lands in its own row
// (the summed-area shape), so the stage runs a point at a time.
func selfRefScan() (*dsl.Builder, []string) {
	b := dsl.NewBuilder()
	R, C := b.Param("R"), b.Param("C")
	I := b.Image("I", expr.Float, R.Affine(), C.Affine())
	x, y := b.Var("x"), b.Var("y")
	sat := b.Func("sat", expr.Float, []*dsl.Variable{x, y}, []dsl.Interval{span(R.Affine()), span(C.Affine())})
	sat.Define(
		dsl.Case{Cond: dsl.Cond(y, "==", 0), E: I.At(x, 0)},
		dsl.Case{Cond: dsl.Cond(y, ">", 0), E: dsl.Add(sat.At(x, dsl.Sub(y, 1)), I.At(x, y))},
	)
	return b, []string{"sat"}
}

// heat: examples/heat's time-iterated diffusion, whose reads of t−1 are
// carried by the outer dimension, so the stage runs a row at a time; its
// insulated boundary is a predicated piece (t > 0 and not interior).
func selfRefHeat() (*dsl.Builder, []string) {
	b := dsl.NewBuilder()
	N := b.Param("N")
	I := b.Image("I", expr.Float, N.Affine(), N.Affine())
	t, x, y := b.Var("t"), b.Var("x"), b.Var("y")
	inner := dsl.InBox([]*dsl.Variable{x, y}, []any{1, 1}, []any{dsl.Sub(N, 2), dsl.Sub(N, 2)})
	heat := b.Func("heat", expr.Float, []*dsl.Variable{t, x, y},
		[]dsl.Interval{dsl.ConstSpan(0, 6), span(N.Affine()), span(N.Affine())})
	prev := func(dx, dy int) expr.Expr {
		return heat.At(dsl.Sub(t, 1), dsl.Add(x, dx), dsl.Add(y, dy))
	}
	lap := dsl.Sub(dsl.Add(dsl.Add(prev(-1, 0), prev(1, 0)), dsl.Add(prev(0, -1), prev(0, 1))), dsl.Mul(4, prev(0, 0)))
	heat.Define(
		dsl.Case{Cond: dsl.Cond(t, "==", 0), E: I.At(x, y)},
		dsl.Case{Cond: dsl.And(dsl.Cond(t, ">", 0), inner), E: dsl.Add(prev(0, 0), dsl.Mul(0.2, lap))},
		dsl.Case{Cond: dsl.And(dsl.Cond(t, ">", 0), dsl.Not(inner)), E: prev(0, 0)},
	)
	return b, []string{"heat"}
}

// predgather: a data-dependent predicate selecting a clamped lookup-table
// gather, then a default the first case overlaps everywhere: the default
// applies only where the predicate fails.
func predicatedGather() (*dsl.Builder, []string) {
	b := dsl.NewBuilder()
	R, C := b.Param("R"), b.Param("C")
	I := b.Image("I", expr.Float, R.Affine(), C.Affine())
	x, y, z := b.Var("x"), b.Var("y"), b.Var("z")
	lut := b.Func("lut", expr.Float, []*dsl.Variable{z}, []dsl.Interval{dsl.Span(affine.Const(0), affine.Const(31))})
	lut.Define(dsl.Case{E: dsl.Sqrt(dsl.Add(dsl.Mul(z, 0.25), 1.0))})
	out := b.Func("out", expr.Float, []*dsl.Variable{x, y}, []dsl.Interval{span(R.Affine()), span(C.Affine())})
	idx := dsl.Clamp(dsl.Cast(expr.Int, dsl.Mul(I.At(x, y), 40.0)), 0, 31)
	out.Define(
		dsl.Case{Cond: dsl.Or(dsl.Cond(I.At(x, y), ">", 0.5), dsl.Cond(x, "<", 2)), E: dsl.Mul(lut.At(idx), I.At(x, y))},
		dsl.Case{E: dsl.Add(I.At(x, y), 100)},
	)
	return b, []string{"out"}
}

// TestRowVMSelfRefTable: self-referencing stages, run by rows and by
// points, and predicated pieces, a gather among them, against the reference
// interpreter under Debug on one and two workers.
func TestRowVMSelfRefTable(t *testing.T) {
	gatherTable(t, selfRefCases(), []gatherTier{{"vm-debug", engine.ExecOptions{Debug: true}}}, false, nil)
}
