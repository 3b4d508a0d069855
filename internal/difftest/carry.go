package difftest

import (
	"repro/internal/affine"
	"repro/internal/dsl"
	"repro/internal/expr"
)

// CarryCase is a hand-written pipeline whose stage "out" sums shifted copies
// of one computation along the row, so that its generated kernel carries
// Carried values from one iteration of its inner loop to the next (0: the
// carry rules keep every value in the loop). Every lag a case carries is 1
// or 2. out's row domain is [S−4, S+N−5] under one 64-wide tile, as in
// PhaseCase, so S and N set the start and width of every region the kernel
// is handed.
type CarryCase struct {
	GatherCase
	Carried int
}

// CarryCases returns the table: a 3×3 box of products (harris's box sums), a
// pair of products two elements apart (a gap: not carried), products with
// the row coordinate (not carried), products with a row-invariant operand,
// nested classes (pair sums of products, multiplied), and int64 bodies over
// uint8 data: a box of products and a box summed by columns. The float
// producers hold multiples of 1/16, so every tier and the reference
// interpreter compute exactly the same sums.
func CarryCases() []CarryCase {
	sum := func(lo, hi int64, term func(d int64) expr.Expr) expr.Expr {
		var ts []expr.Expr
		for d := lo; d <= hi; d++ {
			ts = append(ts, term(d))
		}
		return expr.Sum(ts...)
	}
	box := func(term func(dy, dx int64) expr.Expr) expr.Expr {
		return sum(-1, 1, func(dy int64) expr.Expr {
			return sum(-1, 1, func(dx int64) expr.Expr { return term(dy, dx) })
		})
	}
	cases := []struct {
		name    string
		narrow  bool
		carried int
		def     func(r carryReads) expr.Expr
	}{
		{"box3x3", false, 6, func(r carryReads) expr.Expr {
			return box(func(dy, dx int64) expr.Expr { return dsl.Mul(r.src(dy, dx), r.src2(dy, dx)) })
		}},
		{"gap", false, 0, func(r carryReads) expr.Expr {
			return dsl.Add(dsl.Mul(r.src(0, -1), r.src2(0, -1)), dsl.Mul(r.src(0, 1), r.src2(0, 1)))
		}},
		{"coordinate", false, 0, func(r carryReads) expr.Expr {
			return sum(-1, 1, func(dx int64) expr.Expr { return dsl.Mul(r.src(0, dx), dsl.Add(r.x, dx)) })
		}},
		{"invariant", false, 2, func(r carryReads) expr.Expr {
			return sum(-1, 1, func(dx int64) expr.Expr { return dsl.Mul(r.src(0, dx), r.col(5)) })
		}},
		// s(d) = p(d) + p(d+1) for the products p: s(1) is computed from
		// p(1) (carried) and p(2), s(0) and s(−1) are carried.
		{"nested", false, 3, func(r carryReads) expr.Expr {
			p := func(d int64) expr.Expr { return dsl.Mul(r.src(0, d), r.src2(0, d)) }
			s := func(d int64) expr.Expr { return dsl.Add(p(d), p(d+1)) }
			return dsl.Add(dsl.Mul(s(-1), s(0)), s(1))
		}},
		{"int-box", true, 6, func(r carryReads) expr.Expr {
			return dsl.Clamp(dsl.IDiv(box(func(dy, dx int64) expr.Expr { return dsl.Mul(r.src(dy, dx), r.src2(dy, dx)) }), 256), 0, 255)
		}},
		{"int-columns", true, 2, func(r carryReads) expr.Expr {
			col := func(dx int64) expr.Expr {
				return sum(-1, 1, func(dy int64) expr.Expr { return r.src(dy, dx) })
			}
			return dsl.Clamp(dsl.IDiv(sum(-1, 1, col), 9), 0, 255)
		}},
	}
	var out []CarryCase
	for _, c := range cases {
		out = append(out, CarryCase{Carried: c.carried, GatherCase: GatherCase{
			Name: c.name, Narrow: c.narrow, Build: carryPipeline(c.narrow, c.def),
			Params: map[string]int64{"S": 0, "N": 37}, Tiles: []int64{8, 64}}})
	}
	return out
}

// carryReads is what a CarryCase's (or a StrideCase's) out is defined from:
// its row coordinate x, the producers read at (y+dy, x+dx), src2 read at
// (y, c) for a constant column c (row-invariant), and the producers read at
// (y, i) for any index i.
type carryReads struct {
	x             expr.Expr
	src, src2     func(dy, dx int64) expr.Expr
	col           func(c int64) expr.Expr
	srcAt, src2At func(i expr.Expr) expr.Expr
}

// carryPipeline builds a 5×256 image I, two producers over rows [0, 4] ×
// [−64, 191] — src(y, x) from I(y, x+64), src2(y, x) from I(y, 191−x), as
// multiples of 1/16 in the float form and as I's uint8 values in the narrow
// one — and out(y, x) = def over rows [1, 3] × [S−4, S+N−5]. The narrow form
// stores uint8 throughout (out clamps), and out gets an int64 body.
func carryPipeline(narrow bool, def func(carryReads) expr.Expr) func() (*dsl.Builder, []string) {
	return func() (*dsl.Builder, []string) {
		b := dsl.NewBuilder()
		S, N := b.Param("S"), b.Param("N")
		typ := expr.Float
		if narrow {
			typ = expr.UChar
		}
		I := b.Image("I", typ, affine.Const(5), affine.Const(256))
		y, x := b.Var("y"), b.Var("x")
		dom := []dsl.Interval{dsl.ConstSpan(0, 4), dsl.ConstSpan(-64, 191)}
		sixteenths := func(e expr.Expr) expr.Expr {
			if narrow {
				return e
			}
			return dsl.Div(expr.Unary{Op: expr.Floor, X: dsl.Mul(e, 16)}, 16.0)
		}
		src := b.Func("src", typ, []*dsl.Variable{y, x}, dom)
		src.Define(dsl.Case{E: sixteenths(I.At(y, dsl.Add(x, 64)))})
		src2 := b.Func("src2", typ, []*dsl.Variable{y, x}, dom)
		src2.Define(dsl.Case{E: sixteenths(I.At(y, dsl.Sub(191, x)))})
		out := b.Func("out", typ, []*dsl.Variable{y, x}, []dsl.Interval{dsl.ConstSpan(1, 3),
			dsl.Span(S.Affine().AddConst(-4), S.Affine().Add(N.Affine()).AddConst(-5))})
		read := func(f *dsl.Function) func(dy, dx int64) expr.Expr {
			return func(dy, dx int64) expr.Expr { return f.At(dsl.Add(y, dy), dsl.Add(x, dx)) }
		}
		at := func(f *dsl.Function) func(i expr.Expr) expr.Expr {
			return func(i expr.Expr) expr.Expr { return f.At(y, i) }
		}
		out.Define(dsl.Case{E: def(carryReads{x: x.Expr(), src: read(src), src2: read(src2),
			col: func(c int64) expr.Expr { return src2.At(y, c) }, srcAt: at(src), src2At: at(src2)})})
		return b, []string{"out"}
	}
}
