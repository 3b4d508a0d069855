package difftest

import (
	"repro/internal/affine"
	"repro/internal/dsl"
	"repro/internal/engine"
	"repro/internal/expr"
	"repro/internal/pipeline"
	"repro/internal/schedule"
)

// GatherCase is one hand-written pipeline of the differential tables in
// gather_test.go and phase_test.go: the indirect addressing shapes
// (GatherCases), the int64-body forms (IntBodyCases), the phase loops
// (PhaseCases) and a NaN through min (MinMaxNaNCase), which the generated
// corpora do not draw. It lives here, not in a test file, because
// cmd/polymage-gen compiles every case too, so the gencorpus package holds
// the kernels the tables' Fast leg binds.
type GatherCase struct {
	Name string
	// Narrow compiles with NarrowTypes; the input image is uint8.
	Narrow bool
	Build  func() (*dsl.Builder, []string)
	// Params is the binding the table runs; Fault, where set, shrinks the
	// gathered stage so the same piece (and kernel) indexes outside it.
	Params, Fault map[string]int64
	// Tiles overrides the 16×16 tile sizes.
	Tiles []int64
}

// Compile lowers the case as the engine tests lower pipelines: no inlining
// (each stage keeps the access shape it was written with) and 16×16 tiles
// unless the case sets its own.
func (gc GatherCase) Compile(params map[string]int64, opts engine.ExecOptions) (*engine.Program, error) {
	b, outs := gc.Build()
	g, err := pipeline.Build(b, outs...)
	if err != nil {
		return nil, err
	}
	tiles := gc.Tiles
	if tiles == nil {
		tiles = []int64{16, 16}
	}
	gr, err := schedule.BuildGroups(g, params, schedule.Options{TileSizes: tiles})
	if err != nil {
		return nil, err
	}
	opts.NarrowTypes = gc.Narrow
	return engine.Compile(gr, params, opts)
}

// GatherCases returns the table. Image values are engine.FillPattern's:
// [0,1) floats, 0..255 for the uint8 image.
func GatherCases() []GatherCase {
	return []GatherCase{
		{Name: "lut1d", Build: gatherLUT1D, Params: map[string]int64{"N": 200, "K": 32}, Fault: map[string]int64{"N": 200, "K": 8}},
		{Name: "lead3d", Build: gatherLead3D, Params: map[string]int64{"R": 40, "C": 56}},
		{Name: "trilinear", Build: gatherTrilinear, Params: map[string]int64{"R": 48, "C": 40}},
		{Name: "selectarm", Build: gatherSelectArm, Params: map[string]int64{"R": 24, "C": 72}},
		{Name: "u8slot", Narrow: true, Build: gatherU8Slot, Params: map[string]int64{"R": 20, "C": 50}},
		// A histogram whose bin index leaves the output box on both sides
		// (such updates are dropped), adding a small integer so that sums
		// are exact whatever the order the private per-worker copies merge
		// in.
		{Name: "hist", Build: histPipeline(dsl.SumOp, false, small), Params: map[string]int64{"R": 64, "C": 48}},
	}
}

func span(hi affine.Expr) dsl.Interval { return dsl.Span(affine.Const(0), hi.AddConst(-1)) }

// lut1d: a 1-D lookup table read at a clamped data-dependent index. The
// table's extent K is a parameter the index clamp does not know, so binding
// K below 32 sends reads outside the table (the Fault binding).
func gatherLUT1D() (*dsl.Builder, []string) {
	b := dsl.NewBuilder()
	N, K := b.Param("N"), b.Param("K")
	I := b.Image("I", expr.Float, N.Affine())
	x, z := b.Var("x"), b.Var("z")
	lut := b.Func("lut", expr.Float, []*dsl.Variable{z}, []dsl.Interval{span(K.Affine())})
	lut.Define(dsl.Case{E: dsl.Sqrt(dsl.Add(dsl.Mul(z, 0.25), 1.0))})
	out := b.Func("out", expr.Float, []*dsl.Variable{x}, []dsl.Interval{span(N.Affine())})
	idx := dsl.Clamp(dsl.Sub(dsl.Cast(expr.Int, dsl.Mul(I.At(x), 40.0)), 4), 0, 31)
	out.Define(dsl.Case{E: dsl.Mul(lut.At(idx), I.At(x))})
	return b, []string{"out"}
}

// lead3d: the local-Laplacian shape — a data-dependent leading index over a
// 3-D stage whose trailing indices are shifted copies of the loop variables.
func gatherLead3D() (*dsl.Builder, []string) {
	b := dsl.NewBuilder()
	R, C := b.Param("R"), b.Param("C")
	I := b.Image("I", expr.Float, R.Affine().AddConst(2), C.Affine().AddConst(2))
	k, x, y := b.Var("k"), b.Var("x"), b.Var("y")
	pyr := b.Func("pyr", expr.Float, []*dsl.Variable{k, x, y}, []dsl.Interval{
		dsl.ConstSpan(0, 7), span(R.Affine().AddConst(2)), span(C.Affine().AddConst(2))})
	pyr.Define(dsl.Case{E: dsl.Add(dsl.Mul(I.At(x, y), dsl.Add(k, 1)), dsl.Mul(0.125, k))})
	out := b.Func("out", expr.Float, []*dsl.Variable{x, y}, []dsl.Interval{span(R.Affine()), span(C.Affine())})
	lev := dsl.Mul(I.At(dsl.Add(x, 1), dsl.Add(y, 1)), 7.0)
	li := dsl.Clamp(dsl.Cast(expr.Int, lev), 0, 6)
	lf := dsl.Sub(lev, li)
	out.Define(dsl.Case{E: dsl.Add(
		dsl.Mul(dsl.Sub(1, lf), pyr.At(li, dsl.Add(x, 2), y)),
		dsl.Mul(lf, pyr.At(dsl.Add(li, 1), x, dsl.Add(y, 2))))})
	return b, []string{"out"}
}

// trilinear: the bilateral-grid slice — eight taps into a 3-D grid at
// (x/4+dx, y/4+dy, zi+dz), the first two indices quasi-affine (one constant
// along the row, one stepping along it), the third data-dependent.
func gatherTrilinear() (*dsl.Builder, []string) {
	b := dsl.NewBuilder()
	R, C := b.Param("R"), b.Param("C")
	I := b.Image("I", expr.Float, R.Affine(), C.Affine())
	gx, gy, z := b.Var("gx"), b.Var("gy"), b.Var("z")
	x, y := b.Var("x"), b.Var("y")
	grid := b.Func("grid", expr.Float, []*dsl.Variable{gx, gy, z}, []dsl.Interval{
		dsl.Span(affine.Const(0), R.Affine().AddConst(8)), dsl.Span(affine.Const(0), C.Affine().AddConst(8)), dsl.ConstSpan(0, 9)})
	grid.Define(dsl.Case{E: dsl.Add(dsl.Mul(0.01, dsl.Mul(gx, gy)), dsl.Mul(0.1, z))})
	out := b.Func("out", expr.Float, []*dsl.Variable{x, y}, []dsl.Interval{span(R.Affine()), span(C.Affine())})
	zf := dsl.Mul(I.At(x, y), 7.999)
	zi := dsl.Cast(expr.Int, zf)
	fz := dsl.Sub(zf, zi)
	xi, yi := dsl.IDiv(x, 4), dsl.IDiv(y, 4)
	fx := dsl.Div(dsl.Sub(x, dsl.Mul(4, xi)), 4.0)
	fy := dsl.Div(dsl.Sub(y, dsl.Mul(4, yi)), 4.0)
	var terms []expr.Expr
	for dz := 0; dz <= 1; dz++ {
		for dx := 0; dx <= 1; dx++ {
			for dy := 0; dy <= 1; dy++ {
				wz, wx, wy := fz, fx, fy
				if dz == 0 {
					wz = dsl.Sub(1, fz)
				}
				if dx == 0 {
					wx = dsl.Sub(1, fx)
				}
				if dy == 0 {
					wy = dsl.Sub(1, fy)
				}
				tap := grid.At(dsl.Add(xi, dsl.E(dx)), dsl.Add(yi, dsl.E(dy)), dsl.Add(zi, dsl.E(1+dz)))
				terms = append(terms, dsl.Mul(dsl.Mul(wz, dsl.Mul(wx, wy)), tap))
			}
		}
	}
	out.Define(dsl.Case{E: expr.Sum(terms...)})
	return b, []string{"out"}
}

// selectarm: a gather inside one arm of a Select. Every tier evaluates the
// arm at every point (the row forms are eager), so the index is clamped.
func gatherSelectArm() (*dsl.Builder, []string) {
	b := dsl.NewBuilder()
	R, C := b.Param("R"), b.Param("C")
	I := b.Image("I", expr.Float, R.Affine(), C.Affine())
	x, y := b.Var("x"), b.Var("y")
	dom := []dsl.Interval{span(R.Affine()), span(C.Affine())}
	sq := b.Func("sq", expr.Float, []*dsl.Variable{x, y}, dom)
	sq.Define(dsl.Case{E: dsl.Mul(I.At(x, y), I.At(x, y))})
	out := b.Func("out", expr.Float, []*dsl.Variable{x, y}, dom)
	col := dsl.Clamp(dsl.Cast(expr.Int, dsl.Mul(I.At(x, y), C.Expr())), 0, dsl.Sub(C, 1))
	out.Define(dsl.Case{E: dsl.Sel(dsl.Cond(I.At(x, y), ">", 0.5), sq.At(x, col), dsl.Mul(2.0, I.At(x, y)))})
	return b, []string{"out"}
}

// u8slot: a gather from a slot NarrowTypes stores as uint8 — the image
// itself, indexed by its own value.
func gatherU8Slot() (*dsl.Builder, []string) {
	b := dsl.NewBuilder()
	R, C := b.Param("R"), b.Param("C")
	I := b.Image("I", expr.UChar, R.Affine(), C.Affine())
	x, y := b.Var("x"), b.Var("y")
	out := b.Func("out", expr.Float, []*dsl.Variable{x, y}, []dsl.Interval{span(R.Affine()), span(C.Affine())})
	col := dsl.Clamp(dsl.IDiv(I.At(x, y), 4), 0, dsl.Sub(C, 1))
	out.Define(dsl.Case{E: dsl.Add(dsl.Mul(0.5, I.At(x, col)), I.At(x, y))})
	return b, []string{"out"}
}
