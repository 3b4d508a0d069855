package dsl

import (
	"fmt"

	"repro/internal/affine"
	"repro/internal/expr"
)

// E converts a value to a scalar expression. Accepted types: expr.Expr,
// *Variable, *Parameter, int, int64, float64.
func E(v any) expr.Expr {
	switch x := v.(type) {
	case expr.Expr:
		return x
	case *Variable:
		return x.Expr()
	case *Parameter:
		return x.Expr()
	case int:
		return expr.Const{V: float64(x)}
	case int64:
		return expr.Const{V: float64(x)}
	case float64:
		return expr.Const{V: x}
	case float32:
		return expr.Const{V: float64(x)}
	}
	panic(fmt.Sprintf("dsl: cannot convert %T to an expression", v))
}

func toExprs(args []any) []expr.Expr {
	out := make([]expr.Expr, len(args))
	for i, a := range args {
		out[i] = E(a)
	}
	return out
}

// Add returns a + b.
func Add(a, b any) expr.Expr { return expr.AddE(E(a), E(b)) }

// Sub returns a - b.
func Sub(a, b any) expr.Expr { return expr.SubE(E(a), E(b)) }

// Mul returns a * b.
func Mul(a, b any) expr.Expr { return expr.MulE(E(a), E(b)) }

// Div returns a / b (float division).
func Div(a, b any) expr.Expr { return expr.DivE(E(a), E(b)) }

// IDiv returns floor(a / b) (integer floor division, for index arithmetic
// such as upsampling's x/2).
func IDiv(a, b any) expr.Expr { return expr.Binary{Op: expr.FDiv, L: E(a), R: E(b)} }

// Neg returns -a.
func Neg(a any) expr.Expr { return expr.Unary{Op: expr.Neg, X: E(a)} }

// Min returns min(a, b).
func Min(a, b any) expr.Expr { return expr.MinE(E(a), E(b)) }

// Max returns max(a, b).
func Max(a, b any) expr.Expr { return expr.MaxE(E(a), E(b)) }

// Abs returns |a|.
func Abs(a any) expr.Expr { return expr.Unary{Op: expr.Abs, X: E(a)} }

// Sqrt returns √a.
func Sqrt(a any) expr.Expr { return expr.Unary{Op: expr.Sqrt, X: E(a)} }

// Exp returns e^a.
func Exp(a any) expr.Expr { return expr.Unary{Op: expr.Exp, X: E(a)} }

// Log returns ln(a).
func Log(a any) expr.Expr { return expr.Unary{Op: expr.Log, X: E(a)} }

// Pow returns a^b.
func Pow(a, b any) expr.Expr { return expr.Binary{Op: expr.Pow, L: E(a), R: E(b)} }

// Cast converts a to the value semantics of typ.
func Cast(typ expr.Type, a any) expr.Expr { return expr.Cast{To: typ, X: E(a)} }

// Clamp returns min(max(x, lo), hi).
func Clamp(x, lo, hi any) expr.Expr { return expr.Clamp(E(x), E(lo), E(hi)) }

// Sel returns cond ? a : b.
func Sel(c expr.Cond, a, b any) expr.Expr {
	return expr.Select{Cond: c, Then: E(a), Else: E(b)}
}

// Cond builds a comparison, e.g. Cond(x, ">=", 1). This mirrors the paper's
// Condition(x, '>=', 1) construct.
func Cond(l any, op string, r any) expr.Cond {
	var o expr.CmpOp
	switch op {
	case "<":
		o = expr.LT
	case "<=":
		o = expr.LE
	case ">":
		o = expr.GT
	case ">=":
		o = expr.GE
	case "==":
		o = expr.EQ
	case "!=":
		o = expr.NE
	default:
		panic(fmt.Sprintf("dsl: unknown comparison operator %q", op))
	}
	return expr.Cmp{Op: o, L: E(l), R: E(r)}
}

// And conjoins conditions (the paper's & operator).
func And(cs ...expr.Cond) expr.Cond {
	if len(cs) == 0 {
		panic("dsl: And of nothing")
	}
	r := cs[0]
	for _, c := range cs[1:] {
		r = expr.And{A: r, B: c}
	}
	return r
}

// Or disjoins conditions (the paper's | operator).
func Or(cs ...expr.Cond) expr.Cond {
	if len(cs) == 0 {
		panic("dsl: Or of nothing")
	}
	r := cs[0]
	for _, c := range cs[1:] {
		r = expr.Or{A: r, B: c}
	}
	return r
}

// Not negates a condition.
func Not(c expr.Cond) expr.Cond { return expr.Not{A: c} }

// InBox builds the conjunction lo_i <= v_i <= hi_i over variables, the
// common interior-region condition of the paper's examples.
func InBox(vars []*Variable, lo, hi []any) expr.Cond {
	if len(vars) != len(lo) || len(vars) != len(hi) {
		panic("dsl: InBox length mismatch")
	}
	cs := make([]expr.Cond, 0, 2*len(vars))
	for i, v := range vars {
		cs = append(cs, Cond(v, ">=", lo[i]), Cond(v, "<=", hi[i]))
	}
	return And(cs...)
}

// Stencil builds factor · Σ_ij weights[i][j] · target(x + i - cy, y + j - cx)
// where (cy, cx) is the center of the weight matrix — the paper's Stencil
// construct. center lists the two index expressions at which the stencil is
// centered (typically the two domain variables); extraPre lists leading
// index expressions (e.g. a channel coordinate) that are passed through
// unchanged.
func Stencil(target interface {
	At(args ...any) expr.Expr
}, factor float64, weights [][]float64, center [2]any, extraPre ...any) expr.Expr {
	if len(weights) == 0 {
		panic("dsl: empty stencil")
	}
	cy := len(weights) / 2
	cx := len(weights[0]) / 2
	var terms []expr.Expr
	for i, row := range weights {
		if len(row) != len(weights[0]) {
			panic("dsl: ragged stencil weights")
		}
		for j, w := range row {
			if w == 0 {
				continue
			}
			args := make([]any, 0, 2+len(extraPre))
			args = append(args, extraPre...)
			args = append(args, Add(center[0], i-cy), Add(center[1], j-cx))
			acc := target.At(args...)
			if w == 1 {
				terms = append(terms, acc)
			} else {
				terms = append(terms, Mul(w, acc))
			}
		}
	}
	s := expr.Sum(terms...)
	if factor != 1 {
		s = Mul(factor, s)
	}
	return s
}

// SeparableX builds factor · Σ_j w[j] · target(pre..., x, y + j - c): a 1-D
// horizontal stencil.
func SeparableX(target interface {
	At(args ...any) expr.Expr
}, factor float64, w []float64, center [2]any, extraPre ...any) expr.Expr {
	row := [][]float64{w}
	return Stencil(target, factor, row, center, extraPre...)
}

// SeparableY builds factor · Σ_i w[i] · target(pre..., x + i - c, y): a 1-D
// vertical stencil.
func SeparableY(target interface {
	At(args ...any) expr.Expr
}, factor float64, w []float64, center [2]any, extraPre ...any) expr.Expr {
	col := make([][]float64, len(w))
	for i, v := range w {
		col[i] = []float64{v}
	}
	return Stencil(target, factor, col, center, extraPre...)
}

// FromAffine converts an affine expression over parameters into a scalar
// expression (e.g. for using a domain bound inside a Condition).
func FromAffine(a affine.Expr) expr.Expr {
	e := expr.Expr(expr.Const{V: float64(a.Constant)})
	if a.Constant == 0 {
		e = nil
	}
	for _, p := range a.Params() {
		term := expr.Expr(expr.ParamRef{Name: p})
		if c := a.Coeff(p); c != 1 {
			term = expr.MulE(expr.Const{V: float64(c)}, term)
		}
		if e == nil {
			e = term
		} else {
			e = expr.AddE(e, term)
		}
	}
	if e == nil {
		return expr.Const{V: 0}
	}
	return e
}
