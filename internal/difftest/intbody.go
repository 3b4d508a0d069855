package difftest

import (
	"repro/internal/dsl"
	"repro/internal/expr"
)

// IntBodyCases are hand-written NarrowTypes pipelines over one uint8 image
// for the forms of the typed emitter the integer corpus does not draw (it
// renormalizes every stage into [0, 255] and never goes negative): negative
// numerators through both floor-division forms and Mod, Select, casts that
// clamp at their type's edges, uint16 and int32 outputs, and float64 bodies
// over narrow slots. Like GatherCases they are compiled by cmd/polymage-gen
// into gencorpus, so the table's Fast leg runs the kernels.
func IntBodyCases() []GatherCase {
	params := map[string]int64{"R": 23, "C": 41}
	return []GatherCase{
		{Name: "negdiv", Narrow: true, Build: intBodyNegDiv, Params: params},
		{Name: "select", Narrow: true, Build: intBodySelect, Params: params},
		{Name: "edges", Narrow: true, Build: intBodyEdges, Params: params},
		{Name: "f64narrow", Narrow: true, Build: intBodyF64, Params: params},
	}
}

// intBodyImage declares the R×C uint8 image and returns a stage
// constructor over its domain.
func intBodyImage(b *dsl.Builder) (img *dsl.Image, x, y *dsl.Variable, stage func(name string, typ expr.Type, e expr.Expr) *dsl.Function) {
	R, C := b.Param("R"), b.Param("C")
	img = b.Image("I", expr.UChar, R.Affine(), C.Affine())
	x, y = b.Var("x"), b.Var("y")
	stage = func(name string, typ expr.Type, e expr.Expr) *dsl.Function {
		f := b.Func(name, typ, []*dsl.Variable{x, y}, []dsl.Interval{span(R.Affine()), span(C.Affine())})
		f.Define(dsl.Case{E: e})
		return f
	}
	return img, x, y, stage
}

// negdiv: d = I − 200 lies in [−200, 55] (an int32 slot); floor division by
// a power of two (a shift), by 7 (floorDiv) and Mod all see negative
// numerators and store int32.
func intBodyNegDiv() (*dsl.Builder, []string) {
	b := dsl.NewBuilder()
	I, x, y, stage := intBodyImage(b)
	d := stage("d", expr.Int, dsl.Sub(I.At(x, y), 200))
	stage("shift", expr.Int, dsl.IDiv(d.At(x, y), 8))
	stage("fdiv", expr.Int, dsl.IDiv(d.At(x, y), 7))
	stage("mod", expr.Int, expr.Binary{Op: expr.Mod, L: d.At(x, y), R: dsl.E(7)})
	return b, []string{"shift", "fdiv", "mod"}
}

// select: a two-armed Select on a compound integer comparison, Abs and Neg
// in its arms, Min/Max outside a clamp shape.
func intBodySelect() (*dsl.Builder, []string) {
	b := dsl.NewBuilder()
	I, x, y, stage := intBodyImage(b)
	c := dsl.And(dsl.Cond(I.At(x, y), ">", 128), dsl.Cond(dsl.Add(x, y), "!=", 30))
	stage("sel", expr.Int, dsl.Sel(c, dsl.Abs(dsl.Sub(I.At(x, y), 140)), dsl.Neg(I.At(x, y))))
	stage("minmax", expr.UChar, dsl.Max(dsl.Min(I.At(x, y), dsl.Add(x, 190)), 17))
	return b, []string{"sel", "minmax"}
}

// edges: values that sit on their storage type's bounds (uint16 0 and
// 65535 from I·257) and casts whose clamp fires on both sides.
func intBodyEdges() (*dsl.Builder, []string) {
	b := dsl.NewBuilder()
	I, x, y, stage := intBodyImage(b)
	w := stage("wide", expr.Int, dsl.Mul(I.At(x, y), 257))
	stage("char", expr.Char, dsl.Cast(expr.Char, dsl.Sub(I.At(x, y), 100)))
	stage("uchar", expr.UChar, dsl.Cast(expr.UChar, dsl.Sub(dsl.Mul(2, I.At(x, y)), 100)))
	stage("short", expr.Short, dsl.Cast(expr.Short, dsl.Sub(w.At(x, y), 40000)))
	return b, []string{"wide", "char", "uchar", "short"}
}

// f64narrow: stages bitwidth inference cannot prove integral keep the
// float64 body but read uint16 and uint8 rows, and a float-fed UChar cast
// stores uint8 through the saturating conversion.
func intBodyF64() (*dsl.Builder, []string) {
	b := dsl.NewBuilder()
	I, x, y, stage := intBodyImage(b)
	w := stage("wide", expr.Int, dsl.Mul(I.At(x, y), 257))
	stage("mix", expr.Float, dsl.Add(dsl.Mul(0.5, w.At(x, y)), dsl.Mul(0.25, I.At(x, y))))
	stage("quant", expr.UChar, dsl.Cast(expr.UChar, dsl.Add(dsl.Mul(0.5, I.At(x, y)), 0.7)))
	return b, []string{"mix", "quant"}
}
