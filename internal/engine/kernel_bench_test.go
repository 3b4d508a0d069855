package engine

import (
	"testing"

	"repro/internal/affine"
	"repro/internal/buffer"
	"repro/internal/dsl"
	"repro/internal/expr"
	"repro/internal/pipeline"
	"repro/internal/schedule"
)

// Microbenchmarks for the row VM (stencils, pointwise combinations, deep
// trees, selects), accumulators and the repeated-Run steady state of the
// persistent Executor. No kernel package is linked here, so every piece runs
// on the VM: these numbers are what a piece without a generated kernel pays.
// Run with -benchmem; the repeated-Run benchmarks are the ones whose
// allocs/op the runtime work targets.

// stencilBench runs a single-stage stencil of the given shape on the row VM.
func stencilBench(b *testing.B, weights [][]float64, factor float64) {
	rowEvalBench(b, expr.Float, func(I *dsl.Image, x, y *dsl.Variable) expr.Expr {
		return dsl.Stencil(I, factor, weights, [2]any{x, y})
	})
}

// 3-tap row stencil, normalized: the VM's float32 instruction set.
func BenchmarkStencil3Tap(b *testing.B) {
	stencilBench(b, [][]float64{{1, 2, 1}}, 1.0/4)
}

// 5-tap row stencil, normalized: the VM's float32 instruction set.
func BenchmarkStencil5Tap(b *testing.B) {
	stencilBench(b, [][]float64{{1, 4, 6, 4, 1}}, 1.0/16)
}

// 9-tap (3x3) stencil, normalized: the VM's float32 instruction set.
func BenchmarkStencil9Tap(b *testing.B) {
	stencilBench(b, [][]float64{{1, 2, 1}, {2, 4, 2}, {1, 2, 1}}, 1.0/16)
}

// 9-tap unnormalized box: weighted mass 9 exceeds the float32 gate, so the
// VM accumulates in float64.
func BenchmarkStencil9TapF64(b *testing.B) {
	stencilBench(b, [][]float64{{1, 1, 1}, {1, 1, 1}, {1, 1, 1}}, 1)
}

// BenchmarkCombination measures a pointwise combination on the row VM: a
// weighted sum of reads from two producers.
func BenchmarkCombination(b *testing.B) {
	bl := dsl.NewBuilder()
	R, C := bl.Param("R"), bl.Param("C")
	I := bl.Image("I", expr.Float, R.Affine().AddConst(4), C.Affine().AddConst(4))
	x, y := bl.Var("x"), bl.Var("y")
	dom := []dsl.Interval{
		dsl.Span(affine.Const(0), R.Affine().AddConst(3)),
		dsl.Span(affine.Const(0), C.Affine().AddConst(3)),
	}
	u := bl.Func("u", expr.Float, []*dsl.Variable{x, y}, dom)
	u.Define(dsl.Case{E: dsl.Mul(I.At(x, y), I.At(x, y))})
	v := bl.Func("v", expr.Float, []*dsl.Variable{x, y}, dom)
	v.Define(dsl.Case{E: dsl.Add(I.At(x, y), 1.0)})
	out := bl.Func("out", expr.Float, []*dsl.Variable{x, y}, dom)
	out.Define(dsl.Case{E: dsl.Add(dsl.Mul(0.25, u.At(x, y)), dsl.Mul(0.75, v.At(x, y)))})
	g, err := pipeline.Build(bl, "out")
	if err != nil {
		b.Fatal(err)
	}
	params := map[string]int64{"R": 512, "C": 512}
	in, err := buffer.NewForDomain(I.Domain(), params)
	if err != nil {
		b.Fatal(err)
	}
	FillPattern(in, 13)
	inputs := map[string]*Buffer{"I": in}
	gr, err := schedule.BuildGroups(g, params, schedule.Options{DisableFusion: true})
	if err != nil {
		b.Fatal(err)
	}
	prog, err := Compile(gr, params, ExecOptions{Fast: true, Threads: 1, ReuseBuffers: true})
	if err != nil {
		b.Fatal(err)
	}
	defer prog.Close()
	e := prog.Executor()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o, err := e.Run(inputs)
		if err != nil {
			b.Fatal(err)
		}
		e.Recycle(o)
	}
}

// BenchmarkAccumulator measures the reduction path (histogram-style scatter
// with per-worker partial buffers).
func BenchmarkAccumulator(b *testing.B) {
	bl := dsl.NewBuilder()
	R := bl.Param("R")
	I := bl.Image("I", expr.Float, R.Affine())
	x, v := bl.Var("x"), bl.Var("v")
	acc := bl.Accum("acc", expr.Float,
		[]*dsl.Variable{v}, []dsl.Interval{dsl.Span(affine.Const(0), R.Affine().AddConst(-1))},
		[]*dsl.Variable{x}, []dsl.Interval{dsl.Span(affine.Const(0), affine.Const(255))})
	// Bucket index: values are in [0,1), so floor(v*256) lands in [0,255].
	acc.Define([]any{dsl.Cast(expr.Int, dsl.Mul(I.At(v), 255.0))}, 1.0, dsl.SumOp)
	g, err := pipeline.Build(bl, "acc")
	if err != nil {
		b.Fatal(err)
	}
	params := map[string]int64{"R": 1 << 18}
	in, err := buffer.NewForDomain(I.Domain(), params)
	if err != nil {
		b.Fatal(err)
	}
	FillPattern(in, 17)
	inputs := map[string]*Buffer{"I": in}
	gr, err := schedule.BuildGroups(g, params, schedule.Options{})
	if err != nil {
		b.Fatal(err)
	}
	prog, err := Compile(gr, params, ExecOptions{Fast: true, Threads: 2})
	if err != nil {
		b.Fatal(err)
	}
	defer prog.Close()
	e := prog.Executor()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o, err := e.Run(inputs)
		if err != nil {
			b.Fatal(err)
		}
		e.Recycle(o)
	}
}

// rowEvalBench compiles a single-stage pipeline whose expression is built
// by mk and runs it b.N times through one Executor, recycling outputs so the
// steady state exercises only the row VM (the stage's one piece). A UChar
// input image compiles under NarrowTypes and is fed as uint8.
func rowEvalBench(b *testing.B, ty expr.Type, mk func(I *dsl.Image, x, y *dsl.Variable) expr.Expr) {
	bl := dsl.NewBuilder()
	R, C := bl.Param("R"), bl.Param("C")
	I := bl.Image("I", ty, R.Affine().AddConst(4), C.Affine().AddConst(4))
	x, y := bl.Var("x"), bl.Var("y")
	dom := []dsl.Interval{
		dsl.Span(affine.Const(0), R.Affine().AddConst(3)),
		dsl.Span(affine.Const(0), C.Affine().AddConst(3)),
	}
	inner := dsl.InBox([]*dsl.Variable{x, y}, []any{2, 2}, []any{dsl.Add(R, 1), dsl.Add(C, 1)})
	f := bl.Func("f", expr.Float, []*dsl.Variable{x, y}, dom)
	f.Define(dsl.Case{Cond: inner, E: mk(I, x, y)})
	g, err := pipeline.Build(bl, "f")
	if err != nil {
		b.Fatal(err)
	}
	params := map[string]int64{"R": 512, "C": 512}
	in, err := buffer.NewForDomain(I.Domain(), params)
	if err != nil {
		b.Fatal(err)
	}
	narrow := ty == expr.UChar
	if narrow {
		in = ConvertBuffer(in, ElemU8)
	}
	FillPattern(in, 23)
	inputs := map[string]*Buffer{"I": in}
	gr, err := schedule.BuildGroups(g, params, schedule.Options{})
	if err != nil {
		b.Fatal(err)
	}
	prog, err := Compile(gr, params, ExecOptions{Fast: true, Threads: 1, NarrowTypes: narrow})
	if err != nil {
		b.Fatal(err)
	}
	defer prog.Close()
	if st := prog.Stats().Stages[0]; narrow && !st.VMInt {
		b.Fatalf("stage %s does not run the integer instruction set", st.Name)
	}
	e := prog.Executor()
	b.SetBytes((params["R"] + 4) * (params["C"] + 4) * in.Elem.Size())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := e.Run(inputs)
		if err != nil {
			b.Fatal(err)
		}
		e.Recycle(out)
	}
}

// deepTreeExpr builds a balanced arithmetic tree over nTaps shifted reads:
// blends with the given weight at every internal node. weight 0.5 keeps the
// weighted mass at 1 (float32-eligible in the VM); weight 1.0 makes the
// mass nTaps (float64 accumulation).
func deepTreeExpr(I *dsl.Image, x, y *dsl.Variable, nTaps int, weight float64) expr.Expr {
	var build func(lo, hi int) expr.Expr
	build = func(lo, hi int) expr.Expr {
		if lo == hi {
			return I.At(x, dsl.Add(y, lo-nTaps/2))
		}
		mid := (lo + hi) / 2
		return dsl.Add(dsl.Mul(weight, build(lo, mid)), dsl.Mul(weight, build(mid+1, hi)))
	}
	return build(0, nTaps-1)
}

// Deep arithmetic tree, float64 accumulation (mass 16 blocks the VM's f32
// instruction set).
func BenchmarkRowEvalDeepTreeF64(b *testing.B) {
	rowEvalBench(b, expr.Float, func(I *dsl.Image, x, y *dsl.Variable) expr.Expr {
		return dsl.Min(deepTreeExpr(I, x, y, 16, 1.0), 1e6)
	})
}

// Deep arithmetic tree, normalized: the VM runs its float32 instruction
// set.
func BenchmarkRowEvalDeepTreeF32(b *testing.B) {
	rowEvalBench(b, expr.Float, func(I *dsl.Image, x, y *dsl.Variable) expr.Expr {
		return dsl.Min(dsl.Max(deepTreeExpr(I, x, y, 16, 0.5), 0.0), 1.0)
	})
}

// Select-heavy stage: data-dependent blend with compound conditions (the
// VM's masked-select path; always float64 — selects disqualify f32).
func BenchmarkRowEvalSelect(b *testing.B) {
	rowEvalBench(b, expr.Float, func(I *dsl.Image, x, y *dsl.Variable) expr.Expr {
		c := I.At(x, y)
		l := I.At(x, dsl.Sub(y, 1))
		r := I.At(x, dsl.Add(y, 1))
		edge := dsl.Abs(dsl.Sub(r, l))
		return dsl.Sel(dsl.Cond(edge, ">", 0.1),
			dsl.Sel(dsl.Cond(c, ">", 0.5), dsl.Mul(c, 0.75), dsl.Add(c, 0.1)),
			dsl.Mul(dsl.Add(dsl.Add(l, r), dsl.Mul(2.0, c)), 0.25))
	})
}

// uint8 3x3 box sum floor-divided by 16 under NarrowTypes: the stage is
// provably integral, so the VM runs its int64 instruction set.
func BenchmarkRowEvalInt(b *testing.B) {
	rowEvalBench(b, expr.UChar, func(I *dsl.Image, x, y *dsl.Variable) expr.Expr {
		box := [][]float64{{1, 1, 1}, {1, 1, 1}, {1, 1, 1}}
		return dsl.IDiv(dsl.Stencil(I, 1, box, [2]any{x, y}), 16)
	})
}

// BenchmarkRepeatedRun measures the Executor's steady-state allocations on
// the Harris pipeline (the paper's running example): compile once, run
// b.N times, recycling outputs. allocs/op here is the headline number for
// the persistent-runtime work.
func BenchmarkRepeatedRun(b *testing.B) {
	for _, cfg := range []struct {
		name  string
		reuse bool
	}{{"pooled", true}, {"unpooled", false}} {
		b.Run(cfg.name, func(b *testing.B) {
			prog, inputs, _ := compileHarris(b, ExecOptions{Fast: true, Threads: 2, ReuseBuffers: cfg.reuse})
			defer prog.Close()
			e := prog.Executor()
			// Warm the arena so b.N runs measure the steady state.
			out, err := e.Run(inputs)
			if err != nil {
				b.Fatal(err)
			}
			e.Recycle(out)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				out, err := e.Run(inputs)
				if err != nil {
					b.Fatal(err)
				}
				e.Recycle(out)
			}
		})
	}
}
