package difftest

import (
	"math"
	"math/rand"

	"repro/internal/affine"
	"repro/internal/dsl"
	"repro/internal/expr"
)

// PhaseCase is a hand-written pipeline whose stage "out" reads its
// producers at floor divisions of the row coordinate x, so that its
// generated kernel runs as Phases phase loops (1: the plain loop the phase
// rule keeps it on). out's row domain is [S−4, S+N−5] under one 64-wide
// tile, so a binding of S and N sets the start and width of every region
// the kernel is handed.
type PhaseCase struct {
	GatherCase
	Phases int
}

// PhaseCases returns the table: the up-sampling weights x − d·⌊x/d⌋ for
// d = 2 and 3 with negative offsets, a % weight, (3x+1)/2, a parity
// select, divisors 2 and 4 in one piece, a slope-0 chain that is −0 at
// one element only, a unit-stride read beside a divided one, and int64
// bodies with parity and %.
func PhaseCases() []PhaseCase {
	type in = func(i expr.Expr) expr.Expr
	div := func(e any, d int64) expr.Expr { return dsl.IDiv(e, d) }
	mod := func(e any, d int64) expr.Expr { return expr.Binary{Op: expr.Mod, L: dsl.E(e), R: dsl.E(d)} }
	residue := func(x expr.Expr, d int64) expr.Expr { return dsl.Sub(x, dsl.Mul(d, div(x, d))) }
	cases := []struct {
		name   string
		narrow bool
		phases int
		def    func(x expr.Expr, src, src2 in) expr.Expr
	}{
		{"div2", false, 2, func(x expr.Expr, src, _ in) expr.Expr {
			w := dsl.Mul(0.5, residue(x, 2))
			return dsl.Add(dsl.Mul(dsl.Sub(1, w), src(div(x, 2))), dsl.Mul(w, src(div(dsl.Add(x, 1), 2))))
		}},
		{"div3", false, 3, func(x expr.Expr, src, _ in) expr.Expr {
			w := dsl.Div(residue(dsl.Add(x, 2), 3), 3.0)
			return dsl.Add(dsl.Mul(dsl.Sub(1, w), src(div(dsl.Sub(x, 4), 3))), dsl.Mul(w, src(div(dsl.Sub(x, 1), 3))))
		}},
		{"div4mod", false, 4, func(x expr.Expr, src, _ in) expr.Expr {
			return dsl.Add(dsl.Mul(dsl.Mul(mod(x, 4), 0.25), src(div(x, 4))), src(div(dsl.Sub(x, 5), 4)))
		}},
		{"coeff3", false, 2, func(x expr.Expr, src, _ in) expr.Expr {
			return dsl.Add(src(div(dsl.Add(dsl.Mul(3, x), 1), 2)), dsl.Mul(0.5, src(div(x, 2))))
		}},
		{"parity", false, 2, func(x expr.Expr, src, src2 in) expr.Expr {
			even := dsl.Cond(residue(x, 2), "==", 0)
			odd := dsl.Cond(residue(dsl.Add(x, 1), 2), "==", 0)
			return dsl.Sel(even, src(div(x, 2)), dsl.Sel(odd, src2(div(dsl.Add(x, 1), 2)), src(div(dsl.Add(x, 3), 2))))
		}},
		{"div2div4", false, 4, func(x expr.Expr, src, _ in) expr.Expr {
			return dsl.Add(src(div(x, 2)), dsl.Mul(0.25, src(div(dsl.Add(x, 1), 4))))
		}},
		// (−x) − (0 − x) is 0 along the row, and −0 at x = 0 only: it must be
		// computed per element, and so must the sign of each product.
		{"negzero", false, 2, func(x expr.Expr, src, _ in) expr.Expr {
			return dsl.Mul(src(div(x, 2)), dsl.Sub(dsl.Neg(x), dsl.Sub(0, x)))
		}},
		{"unitmix", false, 1, func(x expr.Expr, src, _ in) expr.Expr {
			return dsl.Add(src(x), src(div(x, 2)))
		}},
		{"int-parity", true, 2, func(x expr.Expr, src, src2 in) expr.Expr {
			return dsl.Clamp(div(dsl.Add(dsl.Add(src(div(x, 2)), src2(div(dsl.Add(x, 3), 2))), residue(x, 2)), 2), 0, 255)
		}},
		{"int-mod", true, 4, func(x expr.Expr, src, _ in) expr.Expr {
			return dsl.Clamp(dsl.Add(src(div(x, 4)), mod(x, 4)), 0, 255)
		}},
	}
	var out []PhaseCase
	for _, c := range cases {
		out = append(out, PhaseCase{Phases: c.phases, GatherCase: GatherCase{
			Name: c.name, Narrow: c.narrow, Build: phasePipeline(c.narrow, c.def),
			Params: map[string]int64{"S": 0, "N": 37}, Tiles: []int64{8, 64}}})
	}
	return out
}

// phasePipeline builds a 3×256 image I, two producers over rows × [−64, 191]
// (src(y, x) = I(y, x+64), src2(y, x) = I(y, 191−x)) and out(y, x) = def
// over rows × [S−4, S+N−5], reading the producers at row index i. The narrow
// form stores uint8 throughout (out clamps, so that its storage type does
// not depend on the binding), and out gets an int64 body.
func phasePipeline(narrow bool, def func(x expr.Expr, src, src2 func(i expr.Expr) expr.Expr) expr.Expr) func() (*dsl.Builder, []string) {
	return func() (*dsl.Builder, []string) {
		b := dsl.NewBuilder()
		S, N := b.Param("S"), b.Param("N")
		typ := expr.Float
		if narrow {
			typ = expr.UChar
		}
		I := b.Image("I", typ, affine.Const(3), affine.Const(256))
		y, x := b.Var("y"), b.Var("x")
		rows := dsl.ConstSpan(0, 2)
		src := b.Func("src", typ, []*dsl.Variable{y, x}, []dsl.Interval{rows, dsl.ConstSpan(-64, 191)})
		src.Define(dsl.Case{E: I.At(y, dsl.Add(x, 64))})
		src2 := b.Func("src2", typ, []*dsl.Variable{y, x}, []dsl.Interval{rows, dsl.ConstSpan(-64, 191)})
		src2.Define(dsl.Case{E: I.At(y, dsl.Sub(191, x))})
		out := b.Func("out", typ, []*dsl.Variable{y, x}, []dsl.Interval{rows,
			dsl.Span(S.Affine().AddConst(-4), S.Affine().Add(N.Affine()).AddConst(-5))})
		out.Define(dsl.Case{E: def(x.Expr(), func(i expr.Expr) expr.Expr { return src.At(y, i) }, func(i expr.Expr) expr.Expr { return src2.At(y, i) })})
		return b, []string{"out"}
	}
}

// MinMaxNaNCase is a float32 piece min(sqrt(I − 2), 1) read where I < 2
// (everywhere: the pattern is in [0, 1)), so every result is a NaN. Its
// generated kernel and the row VM must agree on the NaN's bits.
func MinMaxNaNCase() GatherCase {
	return GatherCase{Name: "nanmin", Params: map[string]int64{"R": 12, "C": 20}, Build: func() (*dsl.Builder, []string) {
		b := dsl.NewBuilder()
		R, C := b.Param("R"), b.Param("C")
		I := b.Image("I", expr.Float, R.Affine(), C.Affine())
		x, y := b.Var("x"), b.Var("y")
		out := b.Func("out", expr.Float, []*dsl.Variable{x, y}, []dsl.Interval{span(R.Affine()), span(C.Affine())})
		out.Define(dsl.Case{E: dsl.Min(dsl.Sqrt(dsl.Sub(I.At(x, y), 2)), 1)})
		return b, []string{"out"}
	}}
}

// ExpCase is exp over arguments I(y) − x/64: each of the R rows sweeps
// half a unit down from one of expArgs, in 32 steps. Its Double piece out =
// exp(I(y) − x/64) runs exp in the inner loop, and two more expose the
// float64 bits float32 storage drops, mid = out − float32(out) and low =
// mid − float32(mid), so that out, mid and low together hold every bit of
// exp's result wherever it and mid are normal float32 values. The sweeps
// cross the common path's bound, overflow and underflow densely. The
// kernels print numeric.Exp's common path inline and call its slow path;
// every tier must agree on every bit.
func ExpCase() GatherCase {
	return GatherCase{Name: "exp", Params: map[string]int64{"R": int64(len(expArgs())), "C": 32}, Build: func() (*dsl.Builder, []string) {
		b := dsl.NewBuilder()
		R, C := b.Param("R"), b.Param("C")
		I := b.Image("I", expr.Float, R.Affine())
		y, x := b.Var("y"), b.Var("x")
		e := dsl.Exp(dsl.Sub(I.At(y), dsl.Mul(x, 1.0/64)))
		mid := dsl.Sub(e, dsl.Cast(expr.Float, e))
		outs := []string{"out", "mid", "low"}
		for i, def := range []expr.Expr{e, mid, dsl.Sub(mid, dsl.Cast(expr.Float, mid))} {
			b.Func(outs[i], expr.Double, []*dsl.Variable{y, x}, []dsl.Interval{span(R.Affine()), span(C.Affine())}).Define(dsl.Case{E: def})
		}
		return b, outs
	}}
}

// expArgs is ExpCase's image: the edges of numeric.Exp (NaN, ±Inf, ±0, the
// smallest subnormal, either side of its common path's bound ±708, 709.5
// where amd64's math.Exp overflows early, 709.79 past overflow, −740 to a
// subnormal result, −746 past underflow), then 400 seeded arguments in
// local Laplacian's remap range [−12.5, 0] and 200 in [−90, 90].
func expArgs() []float32 {
	args := []float32{float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1)), 0, float32(math.Copysign(0, -1)),
		math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32, 1, -1,
		708, -708, math.Nextafter32(708, 709), math.Nextafter32(-708, -709), 709.5, 709.79, -708.5, -740, -745, -746}
	rng := rand.New(rand.NewSource(36))
	for i := range 600 {
		if i < 400 {
			args = append(args, float32(-12.5*rng.Float64()))
		} else {
			args = append(args, float32(180*rng.Float64()-90))
		}
	}
	return args
}
