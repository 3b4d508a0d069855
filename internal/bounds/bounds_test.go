package bounds

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/affine"
	"repro/internal/dsl"
	"repro/internal/expr"
	"repro/internal/pipeline"
)

var est = map[string]int64{"R": 100, "C": 200}

func build(t *testing.T, define func(b *dsl.Builder) string) (*pipeline.Graph, *Result) {
	t.Helper()
	b := dsl.NewBuilder()
	out := define(b)
	g, err := pipeline.Build(b, out)
	if err != nil {
		t.Fatal(err)
	}
	return g, Check(g, est)
}

func TestInBoundsStencilWithBoundaryCase(t *testing.T) {
	_, res := build(t, func(b *dsl.Builder) string {
		R := b.Param("R")
		I := b.Image("I", expr.Float, R.Affine().AddConst(2))
		x := b.Var("x")
		f := b.Func("f", expr.Float, []*dsl.Variable{x},
			[]dsl.Interval{dsl.Span(affine.Const(0), R.Affine().AddConst(1))})
		// Interior case reads I(x-1), I(x+1) only where 1 <= x <= R.
		interior := dsl.And(dsl.Cond(x, ">=", 1), dsl.Cond(x, "<=", R))
		f.Define(
			dsl.Case{Cond: interior, E: dsl.Add(I.At(dsl.Sub(x, 1)), I.At(dsl.Add(x, 1)))},
			dsl.Case{Cond: dsl.Or(dsl.Cond(x, "<", 1), dsl.Cond(x, ">", R)), E: dsl.E(0)},
		)
		return "f"
	})
	if err := res.Err(); err != nil {
		t.Errorf("unexpected violations: %v", err)
	}
	if len(res.Unproven) != 0 {
		t.Errorf("expected parametric proof, unproven = %v", res.Unproven)
	}
}

func TestOutOfBoundsDetected(t *testing.T) {
	_, res := build(t, func(b *dsl.Builder) string {
		R := b.Param("R")
		I := b.Image("I", expr.Float, R.Affine())
		x := b.Var("x")
		f := b.Func("f", expr.Float, []*dsl.Variable{x},
			[]dsl.Interval{dsl.Span(affine.Const(0), R.Affine().AddConst(-1))})
		// Reads I(x+1): out of bounds at x = R-1.
		f.Define(dsl.Case{E: I.At(dsl.Add(x, 1))})
		return "f"
	})
	if res.Err() == nil {
		t.Fatal("expected a bounds violation")
	}
	if !strings.Contains(res.Err().Error(), "upper bound violated") {
		t.Errorf("unexpected message: %v", res.Err())
	}
}

func TestStageToStageBounds(t *testing.T) {
	_, res := build(t, func(b *dsl.Builder) string {
		R := b.Param("R")
		I := b.Image("I", expr.Float, R.Affine())
		x := b.Var("x")
		g := b.Func("g", expr.Float, []*dsl.Variable{x},
			[]dsl.Interval{dsl.Span(affine.Const(0), R.Affine().AddConst(-1))})
		g.Define(dsl.Case{E: I.At(x)})
		// Downsample: reads g(2x+1) over [0, R/2-1]... we use [0, (R-2)/2]
		// conservatively via a constant-size domain at estimates.
		f := b.Func("f", expr.Float, []*dsl.Variable{x},
			[]dsl.Interval{dsl.ConstSpan(0, 49)})
		f.Define(dsl.Case{E: g.At(dsl.Add(dsl.Mul(2, x), 1))})
		return "f"
	})
	// 2*49+1 = 99 <= R-1 = 99 at estimates, but not parametrically provable.
	if res.Err() != nil {
		t.Errorf("unexpected violation: %v", res.Err())
	}
	if len(res.Unproven) == 0 {
		t.Error("expected an unproven (estimate-only) bound")
	}
}

func TestNonAffineUnverifiable(t *testing.T) {
	_, res := build(t, func(b *dsl.Builder) string {
		R := b.Param("R")
		I := b.Image("I", expr.UChar, R.Affine())
		lut := b.Image("lut", expr.Float, affine.Const(256))
		x := b.Var("x")
		f := b.Func("f", expr.Float, []*dsl.Variable{x},
			[]dsl.Interval{dsl.Span(affine.Const(0), R.Affine().AddConst(-1))})
		// Data-dependent gather: lut(I(x)).
		f.Define(dsl.Case{E: lut.At(I.At(x))})
		return "f"
	})
	if res.Err() != nil {
		t.Errorf("unexpected violation: %v", res.Err())
	}
	if len(res.Unverifiable) != 1 {
		t.Errorf("expected 1 unverifiable access, got %v", res.Unverifiable)
	}
}

func TestAccumulatorBounds(t *testing.T) {
	_, res := build(t, func(b *dsl.Builder) string {
		R := b.Param("R")
		I := b.Image("I", expr.UChar, R.Affine())
		x := b.Var("x")
		bin := b.Var("bin")
		hist := b.Accum("hist", expr.Int,
			[]*dsl.Variable{x}, []dsl.Interval{dsl.Span(affine.Const(0), R.Affine().AddConst(-1))},
			[]*dsl.Variable{bin}, []dsl.Interval{dsl.ConstSpan(0, 255)})
		hist.Define([]any{I.At(x)}, 1, dsl.SumOp)
		out := b.Func("out", expr.Float, []*dsl.Variable{bin},
			[]dsl.Interval{dsl.ConstSpan(0, 255)})
		out.Define(dsl.Case{E: hist.At(bin)})
		return "out"
	})
	if res.Err() != nil {
		t.Errorf("unexpected violation: %v", res.Err())
	}
	// The histogram target index I(x) is data-dependent: unverifiable.
	if len(res.Unverifiable) == 0 {
		t.Error("expected the data-dependent target index to be unverifiable")
	}
}

func TestUpsampleAccessBounds(t *testing.T) {
	_, res := build(t, func(b *dsl.Builder) string {
		R := b.Param("R")
		I := b.Image("I", expr.Float, R.Affine())
		x := b.Var("x")
		coarse := b.Func("coarse", expr.Float, []*dsl.Variable{x},
			[]dsl.Interval{dsl.Span(affine.Const(0), affine.Param("R").AddConst(-1))})
		coarse.Define(dsl.Case{E: I.At(x)})
		// fine(x) = coarse(x/2) over [0, 2R-2]: floor((2R-2)/2) = R-1, in bounds.
		fine := b.Func("fine", expr.Float, []*dsl.Variable{x},
			[]dsl.Interval{dsl.Span(affine.Const(0), affine.Param("R").Scale(2).AddConst(-2))})
		fine.Define(dsl.Case{E: coarse.At(dsl.IDiv(x, 2))})
		return "fine"
	})
	if res.Err() != nil {
		t.Errorf("unexpected violation: %v", res.Err())
	}
	if len(res.Unproven) != 0 {
		t.Errorf("upsample bound should be proven parametrically: %v", res.Unproven)
	}
}

// TestBoundsSoundnessFuzz: for random affine accesses over random domains,
// the checker must flag a violation exactly when brute-force evaluation
// finds an out-of-domain read at the estimates.
func TestBoundsSoundnessFuzz(t *testing.T) {
	r := rand.New(rand.NewSource(2026))
	for trial := 0; trial < 300; trial++ {
		prodLo := r.Int63n(10)
		prodHi := prodLo + 20 + r.Int63n(80)
		consLo := r.Int63n(10)
		consHi := consLo + 5 + r.Int63n(40)
		coeff := r.Int63n(3) + 1
		off := r.Int63n(21) - 10
		div := r.Int63n(2)*1 + 1 // 1 or 2
		if r.Intn(2) == 0 {
			div = 2
		}

		b := dsl.NewBuilder()
		I := b.Image("I", expr.Float, affine.Const(prodHi+1))
		x := b.Var("x")
		f := b.Func("f", expr.Float, []*dsl.Variable{x},
			[]dsl.Interval{dsl.ConstSpan(consLo, consHi)})
		idx := dsl.IDiv(dsl.Add(dsl.Mul(coeff, x), off), div)
		f.Define(dsl.Case{E: I.At(idx)})
		g, err := pipeline.Build(b, "f")
		if err != nil {
			t.Fatal(err)
		}
		res := Check(g, map[string]int64{})
		// Brute force.
		violated := false
		for xv := consLo; xv <= consHi; xv++ {
			iv := affine.FloorDiv(coeff*xv+off, div)
			if iv < 0 || iv > prodHi {
				violated = true
			}
		}
		// Domain bounds are constant here, so the checker must be exact
		// (no unproven cases).
		if got := len(res.Violations) > 0; got != violated {
			t.Fatalf("trial %d: coeff=%d off=%d div=%d cons=[%d,%d] prod=[0,%d]: checker=%v brute=%v",
				trial, coeff, off, div, consLo, consHi, prodHi, got, violated)
		}
		if len(res.Unproven) > 0 {
			t.Fatalf("trial %d: constant bounds must be decided exactly", trial)
		}
	}
}
