package inline

import (
	"sort"
	"strings"
	"testing"

	"repro/internal/affine"
	"repro/internal/dsl"
	"repro/internal/expr"
	"repro/internal/pipeline"
)

// buildHarrisLike builds the Harris corner detection skeleton of Figure 1:
// Ix/Iy stencils, point-wise squares, 3x3 sums, point-wise det/trace/out.
func buildHarrisLike(t *testing.T) *pipeline.Graph {
	t.Helper()
	b := dsl.NewBuilder()
	R, C := b.Param("R"), b.Param("C")
	I := b.Image("I", expr.Float, R.Affine().AddConst(2), C.Affine().AddConst(2))
	x, y := b.Var("x"), b.Var("y")
	dom := []dsl.Interval{
		dsl.Span(affine.Const(0), R.Affine().AddConst(1)),
		dsl.Span(affine.Const(0), C.Affine().AddConst(1)),
	}
	inner := dsl.InBox([]*dsl.Variable{x, y}, []any{1, 1}, []any{R, C})
	innerB := dsl.InBox([]*dsl.Variable{x, y}, []any{2, 2}, []any{dsl.Sub(R, 1), dsl.Sub(C, 1)})

	Iy := b.Func("Iy", expr.Float, []*dsl.Variable{x, y}, dom)
	Iy.Define(dsl.Case{Cond: inner, E: dsl.Stencil(I, 1.0/12,
		[][]float64{{-1, -2, -1}, {0, 0, 0}, {1, 2, 1}}, [2]any{x, y})})
	Ix := b.Func("Ix", expr.Float, []*dsl.Variable{x, y}, dom)
	Ix.Define(dsl.Case{Cond: inner, E: dsl.Stencil(I, 1.0/12,
		[][]float64{{-1, 0, 1}, {-2, 0, 2}, {-1, 0, 1}}, [2]any{x, y})})

	Ixx := b.Func("Ixx", expr.Float, []*dsl.Variable{x, y}, dom)
	Ixx.Define(dsl.Case{E: dsl.Mul(Ix.At(x, y), Ix.At(x, y))})
	Iyy := b.Func("Iyy", expr.Float, []*dsl.Variable{x, y}, dom)
	Iyy.Define(dsl.Case{E: dsl.Mul(Iy.At(x, y), Iy.At(x, y))})
	Ixy := b.Func("Ixy", expr.Float, []*dsl.Variable{x, y}, dom)
	Ixy.Define(dsl.Case{E: dsl.Mul(Ix.At(x, y), Iy.At(x, y))})

	box := [][]float64{{1, 1, 1}, {1, 1, 1}, {1, 1, 1}}
	Sxx := b.Func("Sxx", expr.Float, []*dsl.Variable{x, y}, dom)
	Sxx.Define(dsl.Case{Cond: innerB, E: dsl.Stencil(Ixx, 1, box, [2]any{x, y})})
	Syy := b.Func("Syy", expr.Float, []*dsl.Variable{x, y}, dom)
	Syy.Define(dsl.Case{Cond: innerB, E: dsl.Stencil(Iyy, 1, box, [2]any{x, y})})
	Sxy := b.Func("Sxy", expr.Float, []*dsl.Variable{x, y}, dom)
	Sxy.Define(dsl.Case{Cond: innerB, E: dsl.Stencil(Ixy, 1, box, [2]any{x, y})})

	det := b.Func("det", expr.Float, []*dsl.Variable{x, y}, dom)
	det.Define(dsl.Case{Cond: innerB, E: dsl.Sub(dsl.Mul(Sxx.At(x, y), Syy.At(x, y)), dsl.Mul(Sxy.At(x, y), Sxy.At(x, y)))})
	trace := b.Func("trace", expr.Float, []*dsl.Variable{x, y}, dom)
	trace.Define(dsl.Case{Cond: innerB, E: dsl.Add(Sxx.At(x, y), Syy.At(x, y))})
	harris := b.Func("harris", expr.Float, []*dsl.Variable{x, y}, dom)
	harris.Define(dsl.Case{Cond: innerB, E: dsl.Sub(det.At(x, y),
		dsl.Mul(0.04, dsl.Mul(trace.At(x, y), trace.At(x, y))))})

	g, err := pipeline.Build(b, "harris")
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestHarrisInlining(t *testing.T) {
	g := buildHarrisLike(t)
	if len(g.Stages) != 11 {
		t.Fatalf("expected 11 stages before inlining, got %d", len(g.Stages))
	}
	inlined, err := Apply(g, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(inlined)
	// Figure 7's generated code materializes Ix, Iy, Sxx, Sxy, Syy; the
	// point-wise Ixx/Ixy/Iyy/det/trace are inlined.
	want := []string{"Ixx", "Ixy", "Iyy", "det", "trace"}
	if strings.Join(inlined, ",") != strings.Join(want, ",") {
		t.Errorf("inlined = %v, want %v", inlined, want)
	}
	remaining := make([]string, 0)
	for n := range g.Stages {
		remaining = append(remaining, n)
	}
	sort.Strings(remaining)
	if got := strings.Join(remaining, ","); got != "Ix,Iy,Sxx,Sxy,Syy,harris" {
		t.Errorf("remaining stages = %s", got)
	}
	// det/trace substitution: harris now reads S** directly.
	h := g.Stages["harris"]
	if got := strings.Join(h.Producers, ","); got != "Sxx,Sxy,Syy" {
		t.Errorf("harris producers = %s", got)
	}
	// Sxx now reads Ix directly (Ixx inlined), at stencil offsets.
	s := g.Stages["Sxx"]
	if got := strings.Join(s.Producers, ","); got != "Ix" {
		t.Errorf("Sxx producers = %s", got)
	}
	// Levels collapse: Ix/Iy level 0, S** level 1, harris level 2.
	if g.Stages["Ix"].Level != 0 || s.Level != 1 || h.Level != 2 {
		t.Errorf("levels: Ix=%d Sxx=%d harris=%d", g.Stages["Ix"].Level, s.Level, h.Level)
	}
}

func TestStencilStagesNotInlined(t *testing.T) {
	g := buildHarrisLike(t)
	if _, err := Apply(g, DefaultOptions()); err != nil {
		t.Fatal(err)
	}
	for _, keep := range []string{"Ix", "Iy", "Sxx", "Sxy", "Syy"} {
		if _, ok := g.Stages[keep]; !ok {
			t.Errorf("stencil stage %s must not be inlined", keep)
		}
	}
}

func TestInliningPreservesSemantics(t *testing.T) {
	// Evaluate harris at a point before and after inlining via the
	// reference evaluator; values must agree exactly.
	gBefore := buildHarrisLike(t)
	gAfter := buildHarrisLike(t)
	if _, err := Apply(gAfter, DefaultOptions()); err != nil {
		t.Fatal(err)
	}
	params := map[string]int64{"R": 16, "C": 16}
	img := func(idx []int64) float64 {
		return float64((idx[0]*31+idx[1]*17)%23) / 23
	}
	var evalStage func(g *pipeline.Graph, name string, idx []int64) float64
	evalStage = func(g *pipeline.Graph, name string, idx []int64) float64 {
		st, ok := g.Stages[name]
		if !ok {
			t.Fatalf("stage %s missing", name)
		}
		env := &expr.Env{
			Point:  idx,
			Params: params,
			Lookup: func(tgt string, i []int64) float64 {
				if tgt == "I" {
					return img(i)
				}
				return evalStage(g, tgt, i)
			},
		}
		for _, c := range st.Cases {
			if c.Cond == nil || expr.EvalCond(c.Cond, env) {
				return expr.Eval(c.E, env)
			}
		}
		return 0
	}
	for _, pt := range [][]int64{{5, 5}, {2, 2}, {8, 3}, {15, 15}} {
		a := evalStage(gBefore, "harris", pt)
		b := evalStage(gAfter, "harris", pt)
		if a != b {
			t.Errorf("at %v: before=%v after=%v", pt, a, b)
		}
	}
}

func TestDisabled(t *testing.T) {
	g := buildHarrisLike(t)
	inlined, err := Apply(g, Options{Disabled: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(inlined) != 0 || len(g.Stages) != 11 {
		t.Error("disabled inliner must not change the graph")
	}
}

func TestSizeCapBlocksInlining(t *testing.T) {
	g := buildHarrisLike(t)
	inlined, err := Apply(g, Options{MaxDefSize: 1, MaxGrownSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(inlined) != 0 {
		t.Errorf("size cap of 1 should block all inlining, got %v", inlined)
	}
}

func TestLiveOutNotInlined(t *testing.T) {
	b := dsl.NewBuilder()
	x := b.Var("x")
	dom := []dsl.Interval{dsl.ConstSpan(0, 9)}
	I := b.Image("I", expr.Float, affine.Const(10))
	f := b.Func("f", expr.Float, []*dsl.Variable{x}, dom)
	f.Define(dsl.Case{E: I.At(x)})
	o := b.Func("o", expr.Float, []*dsl.Variable{x}, dom)
	o.Define(dsl.Case{E: f.At(x)})
	g, err := pipeline.Build(b, "o", "f") // f is also a live-out
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Apply(g, DefaultOptions()); err != nil {
		t.Fatal(err)
	}
	if _, ok := g.Stages["f"]; !ok {
		t.Error("live-out stage must not be inlined away")
	}
}

// TestLookupTableNotInlined: a stage read at a data-dependent index is a
// lookup table — substituting it would re-evaluate its definition at every
// consumer point instead of once per entry (the camera pipeline's tone
// curve) — while the same definition read at an affine index still inlines.
func TestLookupTableNotInlined(t *testing.T) {
	b := dsl.NewBuilder()
	x, z := b.Var("x"), b.Var("z")
	dom := []dsl.Interval{dsl.ConstSpan(0, 63)}
	I := b.Image("I", expr.Float, affine.Const(64))
	curve := func(name string) *dsl.Function {
		f := b.Func(name, expr.Float, []*dsl.Variable{z}, dom)
		f.Define(dsl.Case{E: dsl.Pow(dsl.Div(z, 63.0), 1.0/2.2)})
		return f
	}
	lut, ramp := curve("lut"), curve("ramp")
	o := b.Func("o", expr.Float, []*dsl.Variable{x}, dom)
	idx := dsl.Clamp(dsl.Cast(expr.Int, dsl.Mul(I.At(x), 63.0)), 0, 63)
	o.Define(dsl.Case{E: dsl.Add(lut.At(idx), ramp.At(dsl.Sub(63, x)))})
	g, err := pipeline.Build(b, "o")
	if err != nil {
		t.Fatal(err)
	}
	inlined, err := Apply(g, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if strings.Join(inlined, ",") != "ramp" {
		t.Errorf("inlined = %v, want only the affinely read ramp", inlined)
	}
	if got := strings.Join(g.Stages["o"].Producers, ","); got != "lut" {
		t.Errorf("o producers = %s, want the lookup table kept as a stage", got)
	}
}
