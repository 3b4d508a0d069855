package dsl

import (
	"strings"
	"testing"

	"repro/internal/affine"
	"repro/internal/expr"
)

// accesses returns every Access node in e, in visit order.
func accesses(e expr.Expr) []expr.Access {
	var out []expr.Access
	expr.Walk(e, func(x expr.Expr) bool {
		if a, ok := x.(expr.Access); ok {
			out = append(out, a)
		}
		return true
	})
	return out
}

func TestParameterAndImage(t *testing.T) {
	b := NewBuilder()
	R := b.Param("R")
	C := b.Param("C")
	I := b.Image("I", expr.Float, R.Affine().AddConst(2), C.Affine().AddConst(2))
	if I.NumDims() != 2 {
		t.Fatal("image rank")
	}
	dom := I.Domain()
	box, err := dom.Eval(map[string]int64{"R": 10, "C": 20})
	if err != nil {
		t.Fatal(err)
	}
	if box[0].Lo != 0 || box[0].Hi != 11 || box[1].Hi != 21 {
		t.Errorf("image domain = %v", box)
	}
	if got := I.At(1, 2).String(); got != "I(1, 2)" {
		t.Errorf("At = %q", got)
	}
}

func TestDuplicateDeclarationsPanic(t *testing.T) {
	b := NewBuilder()
	b.Param("R")
	assertPanics(t, func() { b.Param("R") }, "duplicate parameter")
	x := b.Var("x")
	b.Func("f", expr.Float, []*Variable{x}, []Interval{ConstSpan(0, 9)})
	assertPanics(t, func() {
		b.Func("f", expr.Float, []*Variable{x}, []Interval{ConstSpan(0, 9)})
	}, "duplicate stage")
	b.Image("I", expr.Float, nil...)
	assertPanics(t, func() { b.Image("f", expr.Float) }, "collides")
}

func assertPanics(t *testing.T, fn func(), substr string) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Errorf("expected panic containing %q", substr)
			return
		}
		if s, ok := r.(string); ok && !strings.Contains(s, substr) {
			t.Errorf("panic %q does not contain %q", s, substr)
		}
	}()
	fn()
}

func TestFunctionDefineResolvesVars(t *testing.T) {
	b := NewBuilder()
	x := b.Var("x")
	y := b.Var("y")
	g := b.Func("g", expr.Float, []*Variable{x, y}, []Interval{ConstSpan(0, 9), ConstSpan(0, 9)})
	g.Define(Case{E: Add(x, y)})
	f := b.Func("f", expr.Float, []*Variable{x, y}, []Interval{ConstSpan(0, 9), ConstSpan(0, 9)})
	f.Define(Case{E: g.At(Sub(x, 1), y)})
	cs := f.DefCases()
	if len(cs) != 1 {
		t.Fatal("cases")
	}
	acc := accesses(cs[0].E)
	if len(acc) != 1 || acc[0].Target != "g" {
		t.Fatalf("accesses = %v", acc)
	}
	// Resolved VarRefs carry dimension indices.
	var sawDim0, sawDim1 bool
	expr.Walk(cs[0].E, func(e expr.Expr) bool {
		if v, ok := e.(expr.VarRef); ok {
			if v.Dim == 0 {
				sawDim0 = true
			}
			if v.Dim == 1 {
				sawDim1 = true
			}
			if v.Dim == -1 {
				t.Error("unresolved variable survived Define")
			}
		}
		return true
	})
	if !sawDim0 || !sawDim1 {
		t.Error("variables not resolved to dims 0 and 1")
	}
}

func TestDefineRejectsForeignVariable(t *testing.T) {
	b := NewBuilder()
	x := b.Var("x")
	z := b.Var("z")
	f := b.Func("f", expr.Float, []*Variable{x}, []Interval{ConstSpan(0, 9)})
	assertPanics(t, func() { f.Define(Case{E: E(z)}) }, "outside its domain")
}

// Table 1 of the paper: every computation pattern must be expressible.
func TestTable1Patterns(t *testing.T) {
	b := NewBuilder()
	R := b.Param("R")
	C := b.Param("C")
	g := b.Image("g", expr.Float, R.Affine(), C.Affine())
	x, y := b.Var("x"), b.Var("y")
	dom := []Interval{Span(affineC(0), R.Affine().AddConst(-1)), Span(affineC(0), C.Affine().AddConst(-1))}

	// Point-wise: f(x,y) = g(x,y)
	pw := b.Func("pointwise", expr.Float, []*Variable{x, y}, dom)
	pw.Define(Case{E: g.At(x, y)})

	// Stencil: 3x3 box
	st := b.Func("stencil", expr.Float, []*Variable{x, y}, dom)
	st.Define(Case{E: Stencil(g, 1, [][]float64{{1, 1, 1}, {1, 1, 1}, {1, 1, 1}}, [2]any{x, y})})

	// Upsample: f(x,y) = Σ g((x+σ)/2, (y+σ)/2)
	up := b.Func("upsample", expr.Float, []*Variable{x, y}, dom)
	up.Define(Case{E: Add(g.At(IDiv(x, 2), IDiv(y, 2)), g.At(IDiv(Add(x, 1), 2), IDiv(Add(y, 1), 2)))})

	// Downsample: f(x,y) = Σ g(2x+σ, 2y+σ)
	dn := b.Func("downsample", expr.Float, []*Variable{x, y}, dom)
	dn.Define(Case{E: Add(g.At(Mul(2, x), Mul(2, y)), g.At(Add(Mul(2, x), 1), Add(Mul(2, y), 1)))})

	// Histogram: hist(g(x,y)) += 1
	bin := b.Var("bin")
	hist := b.Accum("hist", expr.Int,
		[]*Variable{x, y}, dom,
		[]*Variable{bin}, []Interval{ConstSpan(0, 255)})
	hist.Define([]any{g.At(x, y)}, 1, SumOp)

	// Time-iterated: f(t,x) = f(t-1,x) (self-reference allowed).
	tvar := b.Var("t")
	ti := b.Func("timeiter", expr.Float, []*Variable{tvar, x},
		[]Interval{ConstSpan(0, 9), Span(affineC(0), R.Affine().AddConst(-1))})
	ti.Define(
		Case{Cond: Cond(tvar, "==", 0), E: g.At(x, 0)},
		Case{Cond: Cond(tvar, ">", 0), E: ti.At(Sub(tvar, 1), x)},
	)

	if len(b.Stages()) != 6 {
		t.Errorf("expected 6 stages, got %d", len(b.Stages()))
	}
	op, target, val := hist.Update()
	if op != SumOp || len(target) != 1 || val.String() != "1" {
		t.Errorf("hist update = %v %v %v", op, target, val)
	}
	if !hist.IsAccumulator() || pw.IsAccumulator() {
		t.Error("IsAccumulator wrong")
	}
	if hist.NumDims() != 1 || len(hist.ReductionDomain()) != 2 {
		t.Error("accumulator domains wrong")
	}
}

func TestStencilConstruction(t *testing.T) {
	b := NewBuilder()
	g := b.Image("g", expr.Float, affineC(10), affineC(10))
	x, y := b.Var("x"), b.Var("y")
	// Sobel-like kernel with zeros skipped.
	e := Stencil(g, 1.0/12, [][]float64{
		{-1, 0, 1},
		{-2, 0, 2},
		{-1, 0, 1},
	}, [2]any{x, y})
	n := 0
	expr.Walk(e, func(ex expr.Expr) bool {
		if a, ok := ex.(expr.Access); ok && a.Target == "g" {
			n++
		}
		return true
	})
	if n != 6 {
		t.Errorf("stencil should skip zero weights: %d accesses, want 6", n)
	}
	assertPanics(t, func() {
		Stencil(g, 1, [][]float64{{1, 1}, {1}}, [2]any{x, y})
	}, "ragged")
}

func TestSeparableStencils(t *testing.T) {
	b := NewBuilder()
	g := b.Image("g", expr.Float, affineC(10), affineC(10))
	x, y := b.Var("x"), b.Var("y")
	ex := SeparableX(g, 0.25, []float64{1, 2, 1}, [2]any{x, y})
	ey := SeparableY(g, 0.25, []float64{1, 2, 1}, [2]any{x, y})
	if got := len(accesses(ex)); got != 3 {
		t.Errorf("SeparableX accesses = %d", got)
	}
	if got := len(accesses(ey)); got != 3 {
		t.Errorf("SeparableY accesses = %d", got)
	}
	if ex.String() == ey.String() {
		t.Error("X and Y separable stencils should differ")
	}
}

func TestCondHelpers(t *testing.T) {
	b := NewBuilder()
	x := b.Var("x")
	c := And(Cond(x, ">=", 1), Cond(x, "<=", 10))
	if _, ok := c.(expr.And); !ok {
		t.Error("And should produce expr.And")
	}
	o := Or(Cond(x, "<", 0), Cond(x, ">", 10))
	if _, ok := o.(expr.Or); !ok {
		t.Error("Or should produce expr.Or")
	}
	assertPanics(t, func() { Cond(x, "~~", 0) }, "unknown comparison")
	ib := InBox([]*Variable{x}, []any{1}, []any{10})
	if _, ok := ib.(expr.And); !ok {
		t.Error("InBox should conjoin")
	}
}

func affineC(v int64) (e affineExpr) { return affineConst(v) }

type affineExpr = affine.Expr

func affineConst(v int64) affine.Expr { return affine.Const(v) }

func TestFromAffine(t *testing.T) {
	e := FromAffine(affine.Param("R").Scale(2).AddConst(3))
	env := &expr.Env{Params: map[string]int64{"R": 10}}
	if got := expr.Eval(e, env); got != 23 {
		t.Errorf("FromAffine(2R+3) at R=10 = %v, want 23", got)
	}
	if got := expr.Eval(FromAffine(affine.Const(0)), env); got != 0 {
		t.Errorf("FromAffine(0) = %v", got)
	}
	if got := expr.Eval(FromAffine(affine.Param("R").Neg()), env); got != -10 {
		t.Errorf("FromAffine(-R) = %v", got)
	}
}
