package apps

import (
	"fmt"

	"repro/internal/affine"
	"repro/internal/dsl"
	"repro/internal/engine"
	"repro/internal/expr"
)

// Multiscale Interpolation (Table 2: 49 stages, 41 lines, 2560×1536×3):
// interpolates pixel values at multiple scales through an alpha-weighted
// image pyramid (the Halide "interpolate" application): premultiply by
// alpha, build a pyramid of separable binomial downsamples, then walk back
// up blending each level with the upsampled coarser interpolation, and
// normalize by the interpolated alpha.
//
// Levels: 7 (finest extent = R·2^7; the paper's 2560×1536 is R=20, C=12).
func init() {
	register(&App{
		Name:        "interpolate",
		Title:       "Multiscale Interp.",
		PaperStages: 49,
		PaperSize:   "2560x1536x3",
		PaperParams: map[string]int64{"R": 20, "C": 12},
		TestParams:  map[string]int64{"R": 1, "C": 1},
		PaperMs1:    101.70, PaperMs16: 18.18,
		SpeedupHTuned: 1.81, SpeedupOpenTuner: 12.72,
		Build:  buildInterpolate,
		Inputs: interpolateInputs,
	})
}

const (
	interpLevels = 7
	interpApron  = 2
)

func interpolateInputs(b *dsl.Builder, params map[string]int64, seed int64) (map[string]*engine.Buffer, error) {
	out, err := defaultInputs(b, params, seed)
	if err != nil {
		return nil, err
	}
	// Keep alpha (channel 3) bounded away from zero so the final
	// normalization is well conditioned.
	// Channels are the outermost dimension, so channel 3 is one
	// contiguous plane.
	in := out["I"]
	if len(in.Box) == 3 {
		lo := (3 - in.Box[0].Lo) * in.Stride[0]
		alpha := in.Data[lo : lo+in.Stride[0]]
		for i, v := range alpha {
			alpha[i] = 0.2 + 0.8*v
		}
	}
	return out, nil
}

func buildInterpolate() (*dsl.Builder, []string) {
	b := dsl.NewBuilder()
	R, C := b.Param("R"), b.Param("C")
	const A = interpApron
	fine := int64(1) << interpLevels
	// RGBA input at the finest resolution (channel 3 is alpha).
	I := b.Image("I", expr.Float, affine.Const(4),
		R.Affine().Scale(fine).AddConst(2*A), C.Affine().Scale(fine).AddConst(2*A))

	c, x, y := b.Var("c"), b.Var("x"), b.Var("y")

	rowsAt := func(l int) affine.Expr { return R.Affine().Scale(1 << (interpLevels - l)) }
	colsAt := func(l int) affine.Expr { return C.Affine().Scale(1 << (interpLevels - l)) }
	levelDom := func(l int) []dsl.Interval {
		return []dsl.Interval{
			dsl.ConstSpan(0, 3),
			dsl.Span(affine.Const(0), rowsAt(l).AddConst(2*A-1)),
			dsl.Span(affine.Const(0), colsAt(l).AddConst(2*A-1)),
		}
	}
	// Mixed level: rows at l, columns still at l-1 (the intermediate of the
	// separable downsample).
	mixedDom := func(l int) []dsl.Interval {
		return []dsl.Interval{
			dsl.ConstSpan(0, 3),
			dsl.Span(affine.Const(0), rowsAt(l).AddConst(2*A-1)),
			dsl.Span(affine.Const(0), colsAt(l-1).AddConst(2*A-1)),
		}
	}
	interior := func(rows, cols affine.Expr) expr.Cond {
		return dsl.And(
			dsl.Cond(x, ">=", A), dsl.Cond(x, "<=", dsl.FromAffine(rows.AddConst(A-1))),
			dsl.Cond(y, ">=", A), dsl.Cond(y, "<=", dsl.FromAffine(cols.AddConst(A-1))),
		)
	}
	vars := []*dsl.Variable{c, x, y}

	// Premultiply RGB by alpha.
	down := make([]*dsl.Function, interpLevels+1)
	prem := b.Func("premult", expr.Float, vars, levelDom(0))
	prem.Define(dsl.Case{E: dsl.Sel(dsl.Cond(c, "<", 3),
		dsl.Mul(I.At(c, x, y), I.At(3, x, y)), I.At(3, x, y))})
	down[0] = prem

	// Separable binomial downsample per level.
	w3 := []float64{0.25, 0.5, 0.25}
	for l := 1; l <= interpLevels; l++ {
		dx := b.Func(fmt.Sprintf("downx%d", l), expr.Float, vars, mixedDom(l))
		var tx []expr.Expr
		for k := -1; k <= 1; k++ {
			tx = append(tx, dsl.Mul(w3[k+1], down[l-1].At(c, dsl.Add(dsl.Mul(2, x), dsl.E(k-A)), y)))
		}
		dx.Define(dsl.Case{Cond: interior(rowsAt(l), colsAt(l-1)), E: expr.Sum(tx...)})

		dy := b.Func(fmt.Sprintf("down%d", l), expr.Float, vars, levelDom(l))
		var ty []expr.Expr
		for k := -1; k <= 1; k++ {
			ty = append(ty, dsl.Mul(w3[k+1], dx.At(c, x, dsl.Add(dsl.Mul(2, y), dsl.E(k-A)))))
		}
		dy.Define(dsl.Case{Cond: interior(rowsAt(l), colsAt(l)), E: expr.Sum(ty...)})
		down[l] = dy
	}

	// Upward pass: interpolated[l] = down[l] + (1 - alpha_l) · up(interpolated[l+1]).
	interp := down[interpLevels]
	for l := interpLevels - 1; l >= 0; l-- {
		u := b.Func(fmt.Sprintf("up%d", l), expr.Float, vars, levelDom(l))
		cx := dsl.IDiv(dsl.Add(x, A), 2)
		cy := dsl.IDiv(dsl.Add(y, A), 2)
		px := dsl.Sub(dsl.Add(x, A), dsl.Mul(2, cx))
		py := dsl.Sub(dsl.Add(y, A), dsl.Mul(2, cy))
		var terms []expr.Expr
		for dx := 0; dx <= 1; dx++ {
			for dy := 0; dy <= 1; dy++ {
				wx := dsl.Sub(1, dsl.Mul(0.5, px))
				if dx == 1 {
					wx = dsl.Mul(0.5, px)
				}
				wy := dsl.Sub(1, dsl.Mul(0.5, py))
				if dy == 1 {
					wy = dsl.Mul(0.5, py)
				}
				terms = append(terms, dsl.Mul(dsl.Mul(wx, wy),
					interp.At(c, dsl.Add(cx, dx), dsl.Add(cy, dy))))
			}
		}
		u.Define(dsl.Case{Cond: interior(rowsAt(l), colsAt(l)), E: expr.Sum(terms...)})

		it := b.Func(fmt.Sprintf("interp%d", l), expr.Float, vars, levelDom(l))
		alpha := down[l].At(3, x, y)
		it.Define(dsl.Case{Cond: interior(rowsAt(l), colsAt(l)),
			E: dsl.Add(down[l].At(c, x, y), dsl.Mul(dsl.Sub(1, alpha), u.At(c, x, y)))})
		interp = it
	}

	// Normalize by the interpolated alpha.
	outDom := []dsl.Interval{
		dsl.ConstSpan(0, 2),
		dsl.Span(affine.Const(0), rowsAt(0).AddConst(2*A-1)),
		dsl.Span(affine.Const(0), colsAt(0).AddConst(2*A-1)),
	}
	out := b.Func("normalized", expr.Float, vars, outDom)
	out.Define(dsl.Case{Cond: interior(rowsAt(0), colsAt(0)),
		E: dsl.Div(interp.At(c, x, y), dsl.Max(interp.At(3, x, y), 1e-4))})

	return b, []string{"normalized"}
}
