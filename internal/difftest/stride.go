package difftest

import (
	"repro/internal/affine"
	"repro/internal/dsl"
	"repro/internal/expr"
)

// StrideCase is a hand-written pipeline whose stage "out" reads its
// producers at c·x + k along the row, so that its generated kernel computes
// Lanes adjacent elements per iteration from windows cut once per tap row
// (1: the lane rule keeps it on the one-element loop). out is CarryCase's
// stage: its row domain is [S−4, S+N−5] under one 64-wide tile, so S and N
// set the start and width of every region the kernel is handed, and its
// float producers hold multiples of 1/16, so that every tier and the
// reference interpreter compute exactly the same sums.
type StrideCase struct {
	GatherCase
	Lanes int
}

// StrideCases returns the table: 9-tap rows at strides 2 and 3 with
// offsets −6..+2 (float32 bodies), a float64 body that reads the lane
// coordinates, a strided read beside a unit-stride read and a gather in one
// piece, an int64 body over uint8 data, pyramid's rank-3 form
// out(k, y, x) = Σ w·src(k, 2y+dy, 2x+dx), and two pieces the lane rule
// keeps on one lane: a mirrored stride −2 and a strided read beside a
// carried product.
func StrideCases() []StrideCase {
	taps := func(r carryReads, c int64) expr.Expr {
		var ts []expr.Expr
		for k := int64(-6); k <= 2; k++ {
			ts = append(ts, dsl.Mul(float64(k+8)/64, r.srcAt(dsl.Add(dsl.Mul(c, r.x), k))))
		}
		return expr.Sum(ts...)
	}
	cases := []struct {
		name   string
		narrow bool
		lanes  int
		def    func(r carryReads) expr.Expr
	}{
		{"c2", false, 4, func(r carryReads) expr.Expr { return taps(r, 2) }},
		{"c3", false, 4, func(r carryReads) expr.Expr { return taps(r, 3) }},
		{"coord-f64", false, 4, func(r carryReads) expr.Expr {
			return dsl.Add(dsl.Mul(r.srcAt(dsl.Sub(dsl.Mul(2, r.x), 3)), dsl.Div(r.x, 64.0)), r.src2At(dsl.Add(dsl.Mul(3, r.x), 1)))
		}},
		{"mix", false, 4, func(r carryReads) expr.Expr {
			lut := dsl.Clamp(dsl.Cast(expr.Int, dsl.Mul(r.src2(0, 0), 100)), 0, 99)
			return dsl.Add(dsl.Add(r.srcAt(dsl.Sub(dsl.Mul(2, r.x), 2)), dsl.Mul(0.5, r.src2(0, 0))), dsl.Mul(0.25, r.srcAt(lut)))
		}},
		{"int-c2", true, 4, func(r carryReads) expr.Expr {
			s := dsl.Add(dsl.Add(r.srcAt(dsl.Sub(dsl.Mul(2, r.x), 1)), dsl.Mul(2, r.srcAt(dsl.Mul(2, r.x)))), r.src2At(dsl.Add(dsl.Mul(2, r.x), 1)))
			return dsl.Clamp(dsl.IDiv(s, 4), 0, 255)
		}},
		{"mirrored", false, 1, func(r carryReads) expr.Expr {
			return dsl.Add(r.srcAt(dsl.Sub(60, dsl.Mul(2, r.x))), dsl.Mul(0.5, r.srcAt(dsl.Sub(61, dsl.Mul(2, r.x)))))
		}},
		{"carried", false, 1, func(r carryReads) expr.Expr {
			p := func(d int64) expr.Expr { return dsl.Mul(r.src(0, d), r.src2(0, d)) }
			return dsl.Add(dsl.Add(p(-1), p(0)), r.srcAt(dsl.Mul(2, r.x)))
		}},
	}
	var out []StrideCase
	for _, c := range cases {
		out = append(out, StrideCase{Lanes: c.lanes, GatherCase: GatherCase{
			Name: c.name, Narrow: c.narrow, Build: carryPipeline(c.narrow, c.def),
			Params: map[string]int64{"S": 0, "N": 37}, Tiles: []int64{8, 64}}})
	}
	return append(out, StrideCase{Lanes: 4, GatherCase: GatherCase{
		Name: "rank3", Build: strideRank3, Params: map[string]int64{"S": 0, "N": 37}, Tiles: []int64{2, 8, 64}}})
}

// strideRank3 is pyramid's down-sampling form: a 2×13×256 image I, a
// producer src(k, y, x) = ⌊16·I(k, y+4, x+64)⌋/16 over [0, 1] × [−4, 8] ×
// [−64, 191] and out(k, y, x) = Σ w(dy)·w(dx)·src(k, 2y+dy, 2x+dx) for
// dy, dx ∈ −2..2 and the binomial weights w = (1, 4, 6, 4, 1)/16, over
// [0, 1] × [0, 2] × [S−4, S+N−5].
func strideRank3() (*dsl.Builder, []string) {
	b := dsl.NewBuilder()
	S, N := b.Param("S"), b.Param("N")
	I := b.Image("I", expr.Float, affine.Const(2), affine.Const(13), affine.Const(256))
	k, y, x := b.Var("k"), b.Var("y"), b.Var("x")
	src := b.Func("src", expr.Float, []*dsl.Variable{k, y, x}, []dsl.Interval{dsl.ConstSpan(0, 1), dsl.ConstSpan(-4, 8), dsl.ConstSpan(-64, 191)})
	src.Define(dsl.Case{E: dsl.Div(expr.Unary{Op: expr.Floor, X: dsl.Mul(I.At(k, dsl.Add(y, 4), dsl.Add(x, 64)), 16)}, 16.0)})
	w := []float64{1, 4, 6, 4, 1}
	var ts []expr.Expr
	for dy := int64(-2); dy <= 2; dy++ {
		for dx := int64(-2); dx <= 2; dx++ {
			ts = append(ts, dsl.Mul(w[dy+2]*w[dx+2]/256, src.At(k, dsl.Add(dsl.Mul(2, y), dy), dsl.Add(dsl.Mul(2, x), dx))))
		}
	}
	out := b.Func("out", expr.Float, []*dsl.Variable{k, y, x}, []dsl.Interval{dsl.ConstSpan(0, 1), dsl.ConstSpan(0, 2),
		dsl.Span(S.Affine().AddConst(-4), S.Affine().Add(N.Affine()).AddConst(-5))})
	out.Define(dsl.Case{E: expr.Sum(ts...)})
	return b, []string{"out"}
}
