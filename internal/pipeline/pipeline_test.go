package pipeline

import (
	"strings"
	"testing"

	"repro/internal/affine"
	"repro/internal/dsl"
	"repro/internal/expr"
)

// buildChain builds in -> a -> b -> out with stencil/pointwise accesses.
func buildChain(t *testing.T) (*dsl.Builder, *Graph) {
	t.Helper()
	b := dsl.NewBuilder()
	R := b.Param("R")
	I := b.Image("I", expr.Float, R.Affine())
	x := b.Var("x")
	dom := []dsl.Interval{dsl.Span(affine.Const(1), R.Affine().AddConst(-2))}
	a := b.Func("a", expr.Float, []*dsl.Variable{x}, dom)
	a.Define(dsl.Case{E: dsl.Add(I.At(dsl.Sub(x, 1)), I.At(dsl.Add(x, 1)))})
	bb := b.Func("b", expr.Float, []*dsl.Variable{x}, dom)
	bb.Define(dsl.Case{E: dsl.Mul(a.At(x), 2)})
	out := b.Func("out", expr.Float, []*dsl.Variable{x}, dom)
	out.Define(dsl.Case{E: dsl.Add(bb.At(x), a.At(x))})
	g, err := Build(b, "out")
	if err != nil {
		t.Fatal(err)
	}
	return b, g
}

func TestBuildChain(t *testing.T) {
	_, g := buildChain(t)
	if len(g.Stages) != 3 {
		t.Fatalf("stages = %d", len(g.Stages))
	}
	a := g.Stages["a"]
	if len(a.Producers) != 0 || len(a.InputDeps) != 1 || a.InputDeps[0] != "I" {
		t.Errorf("a deps: prod=%v img=%v", a.Producers, a.InputDeps)
	}
	if a.Level != 0 || g.Stages["b"].Level != 1 || g.Stages["out"].Level != 2 {
		t.Errorf("levels: a=%d b=%d out=%d", a.Level, g.Stages["b"].Level, g.Stages["out"].Level)
	}
	if got := strings.Join(g.Order, ","); got != "a,b,out" {
		t.Errorf("order = %s", got)
	}
	if !g.Stages["out"].LiveOut || g.Stages["a"].LiveOut {
		t.Error("liveout flags wrong")
	}
	if len(a.Consumers) != 2 { // b and out both read a
		t.Errorf("a.Consumers = %v", a.Consumers)
	}
	if lv := g.Stages["out"].Level; lv != 2 {
		t.Errorf("out.Level = %d, want 2", lv)
	}
}

func TestBuildPrunesUnreachable(t *testing.T) {
	b := dsl.NewBuilder()
	x := b.Var("x")
	dom := []dsl.Interval{dsl.ConstSpan(0, 9)}
	used := b.Func("used", expr.Float, []*dsl.Variable{x}, dom)
	used.Define(dsl.Case{E: dsl.E(1)})
	unused := b.Func("unused", expr.Float, []*dsl.Variable{x}, dom)
	unused.Define(dsl.Case{E: dsl.E(2)})
	out := b.Func("out", expr.Float, []*dsl.Variable{x}, dom)
	out.Define(dsl.Case{E: used.At(x)})
	g, err := Build(b, "out")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := g.Stages["unused"]; ok {
		t.Error("unreachable stage should be pruned")
	}
	if len(g.Stages) != 2 {
		t.Errorf("stages = %d", len(g.Stages))
	}
}

func TestBuildDetectsCycle(t *testing.T) {
	b := dsl.NewBuilder()
	x := b.Var("x")
	dom := []dsl.Interval{dsl.ConstSpan(0, 9)}
	f1 := b.Func("f1", expr.Float, []*dsl.Variable{x}, dom)
	f2 := b.Func("f2", expr.Float, []*dsl.Variable{x}, dom)
	f1.Define(dsl.Case{E: f2.At(x)})
	f2.Define(dsl.Case{E: f1.At(x)})
	if _, err := Build(b, "f1"); err == nil || !strings.Contains(err.Error(), "cycle") {
		t.Errorf("expected cycle error, got %v", err)
	}
}

func TestBuildAllowsSelfReference(t *testing.T) {
	b := dsl.NewBuilder()
	tv, x := b.Var("t"), b.Var("x")
	f := b.Func("f", expr.Float, []*dsl.Variable{tv, x},
		[]dsl.Interval{dsl.ConstSpan(0, 4), dsl.ConstSpan(0, 9)})
	f.Define(
		dsl.Case{Cond: dsl.Cond(tv, "==", 0), E: dsl.E(1)},
		dsl.Case{Cond: dsl.Cond(tv, ">", 0), E: f.At(dsl.Sub(tv, 1), x)},
	)
	g, err := Build(b, "f")
	if err != nil {
		t.Fatal(err)
	}
	if !g.Stages["f"].SelfRef {
		t.Error("self reference not detected")
	}
}

func TestBuildErrors(t *testing.T) {
	b := dsl.NewBuilder()
	x := b.Var("x")
	dom := []dsl.Interval{dsl.ConstSpan(0, 9)}
	f := b.Func("f", expr.Float, []*dsl.Variable{x}, dom)
	f.Define(dsl.Case{E: expr.Access{Target: "nope", Args: []expr.Expr{expr.C(0)}}})
	if _, err := Build(b, "f"); err == nil || !strings.Contains(err.Error(), "unknown target") {
		t.Errorf("want unknown-target error, got %v", err)
	}
	if _, err := Build(b, "ghost"); err == nil || !strings.Contains(err.Error(), "unknown stage") {
		t.Errorf("want unknown-stage error, got %v", err)
	}
	if _, err := Build(b); err == nil {
		t.Error("want error for no live-outs")
	}
	undef := b.Func("undef", expr.Float, []*dsl.Variable{x}, dom)
	_ = undef
	if _, err := Build(b, "undef"); err == nil || !strings.Contains(err.Error(), "no definition") {
		t.Errorf("want no-definition error, got %v", err)
	}
}

func TestBuildRejectsWrongArity(t *testing.T) {
	b := dsl.NewBuilder()
	R := b.Param("R")
	I := b.Image("I", expr.Float, R.Affine(), R.Affine())
	x := b.Var("x")
	f := b.Func("f", expr.Float, []*dsl.Variable{x},
		[]dsl.Interval{dsl.Span(affine.Const(0), R.Affine().AddConst(-1))})
	f.Define(dsl.Case{E: I.At(x)}) // 1 index for a 2-D image
	if _, err := Build(b, "f"); err == nil || !strings.Contains(err.Error(), "indices") {
		t.Errorf("expected arity error, got %v", err)
	}
}

func TestAccumulatorInGraph(t *testing.T) {
	b := dsl.NewBuilder()
	R := b.Param("R")
	I := b.Image("I", expr.UChar, R.Affine())
	x := b.Var("x")
	bin := b.Var("b")
	hist := b.Accum("hist", expr.Int,
		[]*dsl.Variable{x}, []dsl.Interval{dsl.Span(affine.Const(0), R.Affine().AddConst(-1))},
		[]*dsl.Variable{bin}, []dsl.Interval{dsl.ConstSpan(0, 255)})
	hist.Define([]any{I.At(x)}, 1, dsl.SumOp)
	norm := b.Func("norm", expr.Float, []*dsl.Variable{bin}, []dsl.Interval{dsl.ConstSpan(0, 255)})
	norm.Define(dsl.Case{E: dsl.Div(hist.At(bin), R)})
	g, err := Build(b, "norm")
	if err != nil {
		t.Fatal(err)
	}
	h := g.Stages["hist"]
	if !h.IsAccumulator() {
		t.Error("hist should be an accumulator")
	}
	if len(h.InputDeps) != 1 || h.InputDeps[0] != "I" {
		t.Errorf("hist image deps = %v", h.InputDeps)
	}
	if g.Stages["norm"].Level != 1 {
		t.Errorf("norm level = %d", g.Stages["norm"].Level)
	}
	if len(g.Images) != 1 {
		t.Errorf("images = %v", g.Images)
	}
}

func TestDotOutput(t *testing.T) {
	_, g := buildChain(t)
	plain := g.Dot("chain", nil)
	for _, want := range []string{"digraph \"chain\"", "\"I\" ->", "\"a\" -> \"b\"", "\"b\" -> \"out\"", "peripheries=2"} {
		if !strings.Contains(plain, want) {
			t.Errorf("dot output missing %q:\n%s", want, plain)
		}
	}
	grouped := g.Dot("chain", map[string]int{"a": 0, "b": 0, "out": 0})
	if !strings.Contains(grouped, "subgraph cluster_g0") || !strings.Contains(grouped, "style=dashed") {
		t.Errorf("grouped dot missing cluster:\n%s", grouped)
	}
}
