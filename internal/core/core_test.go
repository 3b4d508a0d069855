package core

import (
	"errors"
	"strings"
	"sync"
	"testing"

	"repro/internal/affine"
	"repro/internal/buffer"
	"repro/internal/dsl"
	"repro/internal/engine"
	"repro/internal/expr"
	"repro/internal/schedule"
)

func simplePipeline() (*dsl.Builder, *dsl.Image) {
	b := dsl.NewBuilder()
	W := b.Param("W")
	in := b.Image("in", expr.Float, W.Affine())
	x := b.Var("x")
	dom := []dsl.Interval{dsl.Span(affine.Const(1), W.Affine().AddConst(-2))}
	blur := b.Func("blur", expr.Float, []*dsl.Variable{x}, dom)
	blur.Define(dsl.Case{E: dsl.Mul(1.0/3, dsl.Add(dsl.Add(
		in.At(dsl.Sub(x, 1)), in.At(x)), in.At(dsl.Add(x, 1))))})
	double := b.Func("double", expr.Float, []*dsl.Variable{x}, dom)
	double.Define(dsl.Case{E: dsl.Mul(2, blur.At(x))})
	out := b.Func("out", expr.Float, []*dsl.Variable{x}, dom)
	out.Define(dsl.Case{E: dsl.Add(double.At(x), in.At(x))})
	return b, in
}

func TestCompilePhases(t *testing.T) {
	b, _ := simplePipeline()
	pl, err := Compile(b, []string{"out"}, Options{Estimates: map[string]int64{"W": 10000}})
	if err != nil {
		t.Fatal(err)
	}
	// The point-wise `double` stage is inlined (Figure 4's inlining phase).
	if len(pl.Inlined) != 1 || pl.Inlined[0] != "double" {
		t.Errorf("inlined = %v, want [double]", pl.Inlined)
	}
	// blur and out fuse into one overlapped-tiled group.
	if len(pl.Grouping.Groups) != 1 || !pl.Grouping.Groups[0].Tiled {
		t.Errorf("grouping = %v", pl.GroupSummary())
	}
	summary := strings.Join(pl.GroupSummary(), "\n")
	if !strings.Contains(summary, "out <=") || !strings.Contains(summary, "blur") {
		t.Errorf("summary = %s", summary)
	}
	// Bounds results are retained.
	if pl.Bounds == nil || len(pl.Bounds.Violations) != 0 {
		t.Errorf("bounds = %+v", pl.Bounds)
	}
}

func TestCompileRejectsBoundsViolation(t *testing.T) {
	b := dsl.NewBuilder()
	W := b.Param("W")
	in := b.Image("in", expr.Float, W.Affine())
	x := b.Var("x")
	f := b.Func("f", expr.Float, []*dsl.Variable{x},
		[]dsl.Interval{dsl.Span(affine.Const(0), W.Affine().AddConst(-1))})
	f.Define(dsl.Case{E: in.At(dsl.Add(x, 5))})
	_, err := Compile(b, []string{"f"}, Options{Estimates: map[string]int64{"W": 100}})
	if err == nil || !strings.Contains(err.Error(), "bounds") {
		t.Errorf("expected bounds error, got %v", err)
	}
}

func TestCompileUnprovenPolicy(t *testing.T) {
	// An access valid at the estimates but not provable parametrically.
	b := dsl.NewBuilder()
	W := b.Param("W")
	H := b.Param("H")
	in := b.Image("in", expr.Float, W.Affine())
	x := b.Var("x")
	f := b.Func("f", expr.Float, []*dsl.Variable{x},
		[]dsl.Interval{dsl.Span(affine.Const(0), H.Affine().AddConst(-1))})
	f.Define(dsl.Case{E: in.At(x)})
	est := map[string]int64{"W": 100, "H": 100}
	if _, err := Compile(b, []string{"f"}, Options{Estimates: est}); err == nil {
		t.Error("expected unproven-access rejection by default")
	}
	if _, err := Compile(b, []string{"f"}, Options{Estimates: est, AllowUnproven: true}); err != nil {
		t.Errorf("AllowUnproven should accept: %v", err)
	}
}

func TestBindAndRunAtDifferentSizes(t *testing.T) {
	// The grouping is decided at the estimates but the implementation must
	// be valid for other parameter values (Section 3.5). The three sizes
	// bind and run at once: binds of one Pipeline share its graph, read
	// tables included, and only read them.
	b, in := simplePipeline()
	pl, err := Compile(b, []string{"out"}, Options{Estimates: map[string]int64{"W": 10000}})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for _, w := range []int64{64, 1000, 4096} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := bindAndRun(pl, in, map[string]int64{"W": w}); err != nil {
				t.Errorf("W=%d: %v", w, err)
			}
		}()
	}
	wg.Wait()
}

// bindAndRun binds pl under params, runs it on a patterned input and
// compares the output with the reference interpreter's.
func bindAndRun(pl *Pipeline, in *dsl.Image, params map[string]int64) error {
	prog, err := pl.Bind(params, engine.ExecOptions{Fast: true, Debug: true})
	if err != nil {
		return err
	}
	defer prog.Close()
	buf, err := buffer.NewForDomain(in.Domain(), params)
	if err != nil {
		return err
	}
	engine.FillPattern(buf, 3)
	out, err := prog.Run(map[string]*engine.Buffer{"in": buf})
	if err != nil {
		return err
	}
	ref, err := engine.Reference(pl.Graph, params, map[string]*engine.Buffer{"in": buf})
	if err != nil {
		return err
	}
	if eq, msg := out["out"].Equal(ref["out"], 1e-5); !eq {
		return errors.New(msg)
	}
	return nil
}

func TestScheduleOptionsFlowThrough(t *testing.T) {
	b, _ := simplePipeline()
	pl, err := Compile(b, []string{"out"}, Options{
		Estimates: map[string]int64{"W": 10000},
		Schedule:  schedule.Options{DisableFusion: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(pl.Grouping.Groups) != 2 {
		t.Errorf("DisableFusion should keep 2 groups, got %d", len(pl.Grouping.Groups))
	}
}

// TestCompileRecoversMalformedSpecPanic feeds Compile a malformed spec that
// slips past construction-time checks: the access double(x, x) has the
// wrong arity and sits inside a case condition, which the bounds checker
// does not scan, and which the inliner would substitute into. The graph
// build's scan rejects it; whichever phase catches such a spec, by an error
// or through Compile's recover barrier, Compile must return (nil, error)
// naming the stage — a crash here would take down a serving process
// compiling an untrusted spec.
func TestCompileRecoversMalformedSpecPanic(t *testing.T) {
	b := dsl.NewBuilder()
	W := b.Param("W")
	in := b.Image("in", expr.Float, W.Affine())
	x := b.Var("x")
	dom := []dsl.Interval{dsl.Span(affine.Const(0), W.Affine().AddConst(-1))}
	double := b.Func("double", expr.Float, []*dsl.Variable{x}, dom)
	double.Define(dsl.Case{E: dsl.Mul(2, in.At(x))})
	out := b.Func("out", expr.Float, []*dsl.Variable{x}, dom)
	out.Define(
		dsl.Case{Cond: dsl.Cond(double.At(x, x), ">", 0), E: double.At(x)},
		dsl.Case{E: dsl.E(0.0)},
	)
	pl, err := Compile(b, []string{"out"}, Options{Estimates: map[string]int64{"W": 256}})
	if err == nil {
		t.Fatal("Compile accepted a malformed spec (arity-mismatched access in condition)")
	}
	if pl != nil {
		t.Fatalf("Compile returned non-nil pipeline alongside error %v", err)
	}
	if !strings.Contains(err.Error(), "double") {
		t.Errorf("error should name the offending stage: %v", err)
	}
}
