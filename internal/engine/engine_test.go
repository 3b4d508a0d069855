package engine

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/affine"
	"repro/internal/buffer"
	"repro/internal/dsl"
	"repro/internal/expr"
	"repro/internal/inline"
	"repro/internal/pipeline"
	"repro/internal/schedule"
)

// compileAndRun builds a grouping with the given schedule options, compiles
// and runs it, returning the named outputs.
func compileAndRun(t *testing.T, g *pipeline.Graph, params map[string]int64,
	sopts schedule.Options, eopts ExecOptions, inputs map[string]*Buffer) map[string]*Buffer {
	t.Helper()
	gr, err := schedule.BuildGroups(g, params, sopts)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := Compile(gr, params, eopts)
	if err != nil {
		t.Fatal(err)
	}
	out, err := prog.Run(inputs)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// allVariants runs the pipeline under every combination of fusion, fast
// kernels and threads and checks the live-outs against the reference.
func allVariants(t *testing.T, g *pipeline.Graph, params map[string]int64,
	inputs map[string]*Buffer, sopts schedule.Options, tol float64) {
	t.Helper()
	ref, err := Reference(g, params, inputs)
	if err != nil {
		t.Fatal(err)
	}
	for _, fusion := range []bool{false, true} {
		for _, fast := range []bool{false, true} {
			for _, threads := range []int{1, 4} {
				so := sopts
				so.DisableFusion = !fusion
				name := fmt.Sprintf("fusion=%v/fast=%v/threads=%d", fusion, fast, threads)
				out := compileAndRun(t, g, params, so,
					ExecOptions{Fast: fast, Threads: threads, Debug: true}, inputs)
				for _, lo := range g.LiveOuts {
					got, ok := out[lo]
					if !ok {
						t.Fatalf("%s: output %s missing", name, lo)
					}
					if eq, msg := got.Equal(ref[lo], tol); !eq {
						t.Errorf("%s: output %s differs: %s", name, lo, msg)
					}
				}
			}
		}
	}
}

func harrisPipeline(t testing.TB) (*pipeline.Graph, map[string]int64, map[string]*Buffer) {
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
	det.Define(dsl.Case{Cond: innerB, E: dsl.Sub(dsl.Mul(Sxx.At(x, y), Syy.At(x, y)),
		dsl.Mul(Sxy.At(x, y), Sxy.At(x, y)))})
	trace := b.Func("trace", expr.Float, []*dsl.Variable{x, y}, dom)
	trace.Define(dsl.Case{Cond: innerB, E: dsl.Add(Sxx.At(x, y), Syy.At(x, y))})
	harris := b.Func("harris", expr.Float, []*dsl.Variable{x, y}, dom)
	harris.Define(dsl.Case{Cond: innerB, E: dsl.Sub(det.At(x, y),
		dsl.Mul(0.04, dsl.Mul(trace.At(x, y), trace.At(x, y))))})
	g, err := pipeline.Build(b, "harris")
	if err != nil {
		t.Fatal(err)
	}
	params := map[string]int64{"R": 93, "C": 121}
	in, err := buffer.NewForDomain(I.Domain(), params)
	if err != nil {
		t.Fatal(err)
	}
	FillPattern(in, 7)
	return g, params, map[string]*Buffer{"I": in}
}

func TestHarrisEndToEnd(t *testing.T) {
	g, params, inputs := harrisPipeline(t)
	// Reference on the uninlined graph is ground truth; inline before
	// scheduling (the compiler's normal phase order).
	ref, err := Reference(g, params, inputs)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := inline.Apply(g, inline.DefaultOptions()); err != nil {
		t.Fatal(err)
	}
	for _, fast := range []bool{false, true} {
		for _, threads := range []int{1, 3} {
			out := compileAndRun(t, g, params,
				schedule.Options{TileSizes: []int64{16, 32}, MinTileExtent: 8},
				ExecOptions{Fast: fast, Threads: threads, Debug: true}, inputs)
			if eq, msg := out["harris"].Equal(ref["harris"], 1e-5); !eq {
				t.Errorf("fast=%v threads=%d: %s", fast, threads, msg)
			}
		}
	}
}

func TestBufferBasics(t *testing.T) {
	b := NewBuffer(affine.Box{{Lo: 2, Hi: 4}, {Lo: 10, Hi: 19}})
	if b.Len() != 30 || b.Rank() != 2 {
		t.Fatalf("len=%d rank=%d", b.Len(), b.Rank())
	}
	b.Set(3.5, 3, 12)
	if got := b.At(3, 12); got != 3.5 {
		t.Errorf("At = %v", got)
	}
	// Reset to a smaller box reuses storage.
	data := b.Data
	b.Reset(affine.Box{{Lo: 0, Hi: 1}, {Lo: 0, Hi: 2}})
	if b.Len() != 6 {
		t.Errorf("reset len = %d", b.Len())
	}
	if &data[0] != &b.Data[0] {
		t.Error("Reset should reuse backing storage")
	}
	// CopyRegion.
	src := NewBuffer(affine.Box{{Lo: 0, Hi: 4}, {Lo: 0, Hi: 4}})
	FillPattern(src, 3)
	dst := NewBuffer(affine.Box{{Lo: 1, Hi: 3}, {Lo: 1, Hi: 3}})
	region := affine.Box{{Lo: 1, Hi: 3}, {Lo: 1, Hi: 3}}
	dst.CopyRegion(src, region)
	for i := int64(1); i <= 3; i++ {
		for j := int64(1); j <= 3; j++ {
			if dst.At(i, j) != src.At(i, j) {
				t.Fatalf("CopyRegion mismatch at %d,%d", i, j)
			}
		}
	}
}

func TestUpDownSamplePipeline(t *testing.T) {
	// Gaussian-pyramid-like: down(x,y) from I, up(x,y) from down, out = I - up.
	b := dsl.NewBuilder()
	R := b.Param("R")
	I := b.Image("I", expr.Float, R.Affine().Scale(2).AddConst(3), R.Affine().Scale(2).AddConst(3))
	x, y := b.Var("x"), b.Var("y")
	halfDom := []dsl.Interval{
		dsl.Span(affine.Const(0), R.Affine()),
		dsl.Span(affine.Const(0), R.Affine()),
	}
	fullDom := []dsl.Interval{
		dsl.Span(affine.Const(0), R.Affine().Scale(2)),
		dsl.Span(affine.Const(0), R.Affine().Scale(2)),
	}
	down := b.Func("down", expr.Float, []*dsl.Variable{x, y}, halfDom)
	down.Define(dsl.Case{E: dsl.Mul(0.25, dsl.Add(
		dsl.Add(I.At(dsl.Mul(2, x), dsl.Mul(2, y)), I.At(dsl.Add(dsl.Mul(2, x), 1), dsl.Mul(2, y))),
		dsl.Add(I.At(dsl.Mul(2, x), dsl.Add(dsl.Mul(2, y), 1)),
			I.At(dsl.Add(dsl.Mul(2, x), 1), dsl.Add(dsl.Mul(2, y), 1)))))})
	up := b.Func("up", expr.Float, []*dsl.Variable{x, y}, fullDom)
	up.Define(dsl.Case{E: down.At(dsl.IDiv(x, 2), dsl.IDiv(y, 2))})
	out := b.Func("out", expr.Float, []*dsl.Variable{x, y}, fullDom)
	out.Define(dsl.Case{E: dsl.Sub(I.At(x, y), up.At(x, y))})
	g, err := pipeline.Build(b, "out")
	if err != nil {
		t.Fatal(err)
	}
	params := map[string]int64{"R": 40}
	in, err := buffer.NewForDomain(I.Domain(), params)
	if err != nil {
		t.Fatal(err)
	}
	FillPattern(in, 11)
	allVariants(t, g, params, map[string]*Buffer{"I": in},
		schedule.Options{TileSizes: []int64{16, 16}, MinTileExtent: 8, MinSize: 64, OverlapThreshold: 0.9}, 1e-5)
}

func TestHistogramEqualization(t *testing.T) {
	// Histogram + data-dependent LUT application: the Bilateral-Grid-style
	// pattern of an accumulator feeding a gather.
	b := dsl.NewBuilder()
	R := b.Param("R")
	I := b.Image("I", expr.Float, R.Affine(), R.Affine())
	x, y, bin := b.Var("x"), b.Var("y"), b.Var("bin")
	imgDom := []dsl.Interval{
		dsl.Span(affine.Const(0), R.Affine().AddConst(-1)),
		dsl.Span(affine.Const(0), R.Affine().AddConst(-1)),
	}
	// Quantize intensity [0,1) to 16 bins and count.
	hist := b.Accum("hist", expr.Int, []*dsl.Variable{x, y}, imgDom,
		[]*dsl.Variable{bin}, []dsl.Interval{dsl.ConstSpan(0, 15)})
	hist.Define([]any{dsl.Cast(expr.Int, dsl.Mul(I.At(x, y), 15.999))}, 1, dsl.SumOp)
	norm := b.Func("norm", expr.Float, []*dsl.Variable{bin}, []dsl.Interval{dsl.ConstSpan(0, 15)})
	norm.Define(dsl.Case{E: dsl.Div(hist.At(bin), dsl.Mul(R, R))})
	outS := b.Func("out", expr.Float, []*dsl.Variable{x, y}, imgDom)
	outS.Define(dsl.Case{E: norm.At(dsl.Cast(expr.Int, dsl.Mul(I.At(x, y), 15.999)))})
	g, err := pipeline.Build(b, "out")
	if err != nil {
		t.Fatal(err)
	}
	params := map[string]int64{"R": 64}
	in, err := buffer.NewForDomain(I.Domain(), params)
	if err != nil {
		t.Fatal(err)
	}
	FillPattern(in, 5)
	allVariants(t, g, params, map[string]*Buffer{"I": in},
		schedule.Options{TileSizes: []int64{16, 16}, MinTileExtent: 8, MinSize: 64}, 1e-5)
}

func TestSelfReferenceTimeIteration(t *testing.T) {
	// Cumulative sum along x (summed-area-table style row scan).
	b := dsl.NewBuilder()
	R := b.Param("R")
	I := b.Image("I", expr.Float, R.Affine(), R.Affine())
	x, y := b.Var("x"), b.Var("y")
	dom := []dsl.Interval{
		dsl.Span(affine.Const(0), R.Affine().AddConst(-1)),
		dsl.Span(affine.Const(0), R.Affine().AddConst(-1)),
	}
	sat := b.Func("sat", expr.Float, []*dsl.Variable{x, y}, dom)
	sat.Define(
		dsl.Case{Cond: dsl.Cond(y, "==", 0), E: I.At(x, 0)},
		dsl.Case{Cond: dsl.Cond(y, ">", 0), E: dsl.Add(sat.At(x, dsl.Sub(y, 1)), I.At(x, y))},
	)
	g, err := pipeline.Build(b, "sat")
	if err != nil {
		t.Fatal(err)
	}
	if !g.Stages["sat"].SelfRef {
		t.Fatal("self reference not detected")
	}
	params := map[string]int64{"R": 33}
	in, err := buffer.NewForDomain(I.Domain(), params)
	if err != nil {
		t.Fatal(err)
	}
	FillPattern(in, 9)
	allVariants(t, g, params, map[string]*Buffer{"I": in},
		schedule.Options{}, 1e-4)
}

// TestSelfRefCarriedByRows pins which self-referencing stages run a row at
// a time: those whose every self-read, in a value or a condition, lands in
// an earlier row of the lexicographic sweep.
func TestSelfRefCarriedByRows(t *testing.T) {
	v := func(d int) expr.Expr { return expr.VarRef{Dim: d} }
	h := func(args ...expr.Expr) expr.Expr { return expr.Access{Target: "h", Args: args} }
	minus := func(e expr.Expr, k float64) expr.Expr { return expr.SubE(e, expr.C(k)) }
	for _, c := range []struct {
		name string
		read expr.Expr
		cond bool
		want bool
	}{
		{"t-1", h(minus(v(0), 1), v(1), v(2)), false, true},
		{"t-N", h(expr.SubE(v(0), expr.ParamRef{Name: "N"}), expr.AddE(v(1), expr.C(1)), v(2)), false, true},
		{"x-1 at t", h(v(0), minus(v(1), 1), expr.AddE(v(2), expr.C(5))), false, true},
		{"y-1 in row", h(v(0), v(1), minus(v(2), 1)), false, false},
		{"t+1", h(expr.AddE(v(0), expr.C(1)), v(1), v(2)), false, false},
		{"2t-1", h(minus(expr.MulE(expr.C(2), v(0)), 1), v(1), v(2)), false, false},
		{"data-dependent t", h(expr.Cast{To: expr.Int, X: expr.Access{Target: "I", Args: []expr.Expr{v(1)}}}, v(1), v(2)), false, false},
		{"y-1 in a condition", h(v(0), v(1), minus(v(2), 1)), true, false},
	} {
		st := &pipeline.Stage{Name: "h", Cases: []dsl.Case{{E: h(minus(v(0), 1), v(1), v(2))}}}
		if c.cond {
			st.Cases = append(st.Cases, dsl.Case{Cond: expr.Cmp{Op: expr.GT, L: c.read, R: expr.C(0)}, E: expr.C(1)})
		} else {
			st.Cases[0].E = expr.AddE(st.Cases[0].E, c.read)
		}
		if got := carriedByRows(st, 3, map[string]int64{"N": 2}); got != c.want {
			t.Errorf("%s: carried by rows = %v, want %v", c.name, got, c.want)
		}
	}
}

// TestFirstMatchingCaseWins: where two cases' conditions overlap, the first
// one defines the stage, as in the reference interpreter; the later default
// applies only where the guard fails.
// TestFirstMatchingCaseWins checks that a point takes the first case whose
// condition holds, as engine.Reference does, also where conditions read a
// buffer at a shifted index: the guard before the read keeps the reference
// from making it, while the row program evaluates the read over the whole
// box and must not fault where the guard decides.
func TestFirstMatchingCaseWins(t *testing.T) {
	defs := []struct {
		name  string
		cases func(x *dsl.Variable, I *dsl.Image, h *dsl.Function) []dsl.Case
	}{
		{"box then default", func(x *dsl.Variable, I *dsl.Image, h *dsl.Function) []dsl.Case {
			return []dsl.Case{{Cond: dsl.Cond(x, ">=", 4), E: dsl.Add(I.At(x), 100)}, {E: I.At(x)}}
		}},
		// No conjunct converts to a box, so the case spans the domain and
		// reads I(-1) at x = 0, where x < 1 decides.
		{"guarded read in or", func(x *dsl.Variable, I *dsl.Image, h *dsl.Function) []dsl.Case {
			return []dsl.Case{
				{Cond: dsl.Or(dsl.Cond(x, "<", 1), dsl.Cond(I.At(dsl.Sub(x, 1)), ">", 0.5)), E: dsl.Add(I.At(x), 100)},
				{E: I.At(x)},
			}
		}},
		// Fused with 4-wide tiles, the first tile's reads of h all fall
		// before the domain, so its h buffer is empty.
		{"guard over a whole tile", func(x *dsl.Variable, I *dsl.Image, h *dsl.Function) []dsl.Case {
			return []dsl.Case{
				{Cond: dsl.Or(dsl.Cond(x, "<", 5), dsl.Cond(h.At(dsl.Sub(x, 5)), ">", 0.5)), E: dsl.Add(I.At(x), 100)},
				{E: I.At(x)},
			}
		}},
		// The default excludes the first condition over its whole box, x = 0
		// included, where x >= 1 decides before h(-1) is read.
		{"guard then default", func(x *dsl.Variable, I *dsl.Image, h *dsl.Function) []dsl.Case {
			return []dsl.Case{
				{Cond: dsl.And(dsl.Cond(x, ">=", 1), dsl.Cond(h.At(dsl.Sub(x, 1)), ">", 0.5)), E: dsl.Add(I.At(x), 100)},
				{E: dsl.Sub(I.At(x), 100)},
			}
		}},
	}
	for _, def := range defs {
		b := dsl.NewBuilder()
		R := b.Param("R")
		I := b.Image("I", expr.Float, R.Affine())
		x := b.Var("x")
		dom := []dsl.Interval{dsl.Span(affine.Const(0), R.Affine().AddConst(-1))}
		h := b.Func("h", expr.Float, []*dsl.Variable{x}, dom)
		h.Define(dsl.Case{E: dsl.Mul(I.At(x), I.At(x))})
		f := b.Func("f", expr.Float, []*dsl.Variable{x}, dom)
		f.Define(def.cases(x, I, h)...)
		g, err := pipeline.Build(b, "f")
		if err != nil {
			t.Fatal(err)
		}
		params := map[string]int64{"R": 16}
		in, err := buffer.NewForDomain(I.Domain(), params)
		if err != nil {
			t.Fatal(err)
		}
		FillPattern(in, 3)
		inputs := map[string]*Buffer{"I": in}
		ref, err := Reference(g, params, inputs)
		if err != nil {
			t.Fatal(err)
		}
		if def.name == "box then default" {
			if got, want := ref["f"].At(8), in.At(8)+100; got != want {
				t.Fatalf("reference f(8) = %v, want %v", got, want)
			}
		}
		for _, fusion := range []bool{false, true} {
			gr, err := schedule.BuildGroups(g, params, schedule.Options{
				TileSizes: []int64{4}, MinTileExtent: 2, MinSize: 4, DisableFusion: !fusion})
			if err != nil {
				t.Fatal(err)
			}
			for _, fast := range []bool{false, true} {
				for _, debug := range []bool{false, true} {
					for threads := 1; threads <= 2; threads++ {
						name := fmt.Sprintf("%s/fusion=%v/fast=%v/debug=%v/threads=%d", def.name, fusion, fast, debug, threads)
						prog, err := Compile(gr, params, ExecOptions{Fast: fast, Threads: threads, Debug: debug})
						if err != nil {
							t.Fatal(err)
						}
						out, err := prog.Run(inputs)
						if err != nil {
							t.Errorf("%s: %v", name, err)
							continue
						}
						if eq, msg := out["f"].Equal(ref["f"], 0); !eq {
							t.Errorf("%s: %s", name, msg)
						}
					}
				}
			}
		}
	}
}

func TestMultipleLiveOuts(t *testing.T) {
	// Two outputs sharing a producer: both must be materialized exactly.
	b := dsl.NewBuilder()
	R := b.Param("R")
	I := b.Image("I", expr.Float, R.Affine().AddConst(2))
	x := b.Var("x")
	dom := []dsl.Interval{dsl.Span(affine.Const(1), R.Affine())}
	blur := b.Func("blur", expr.Float, []*dsl.Variable{x}, dom)
	blur.Define(dsl.Case{E: dsl.Mul(1.0/3, dsl.Add(dsl.Add(I.At(dsl.Sub(x, 1)), I.At(x)), I.At(dsl.Add(x, 1))))})
	sharp := b.Func("sharp", expr.Float, []*dsl.Variable{x}, dom)
	sharp.Define(dsl.Case{E: dsl.Sub(dsl.Mul(2, I.At(x)), blur.At(x))})
	edge := b.Func("edge", expr.Float, []*dsl.Variable{x}, dom)
	edge.Define(dsl.Case{E: dsl.Sub(I.At(x), blur.At(x))})
	g, err := pipeline.Build(b, "sharp", "edge")
	if err != nil {
		t.Fatal(err)
	}
	params := map[string]int64{"R": 200}
	in, err := buffer.NewForDomain(I.Domain(), params)
	if err != nil {
		t.Fatal(err)
	}
	FillPattern(in, 13)
	allVariants(t, g, params, map[string]*Buffer{"I": in},
		schedule.Options{TileSizes: []int64{32}, MinTileExtent: 16, MinSize: 64}, 1e-5)
}

// midGroupPipeline is the chain a → b → c over a 1-D image of extent R+4,
// with b a pipeline output beside c: fused with c, b is a live-out that is
// not its group's anchor.
func midGroupPipeline(t testing.TB, R int64) (*pipeline.Graph, map[string]int64, map[string]*Buffer) {
	t.Helper()
	bld := dsl.NewBuilder()
	Rp := bld.Param("R")
	I := bld.Image("I", expr.Float, Rp.Affine().AddConst(4))
	x := bld.Var("x")
	dom := []dsl.Interval{dsl.Span(affine.Const(2), Rp.Affine().AddConst(1))}
	a := bld.Func("a", expr.Float, []*dsl.Variable{x}, dom)
	a.Define(dsl.Case{E: dsl.Add(I.At(dsl.Sub(x, 1)), I.At(dsl.Add(x, 1)))})
	bf := bld.Func("b", expr.Float, []*dsl.Variable{x},
		[]dsl.Interval{dsl.Span(affine.Const(3), Rp.Affine())})
	bf.Define(dsl.Case{E: dsl.Add(a.At(dsl.Sub(x, 1)), a.At(dsl.Add(x, 1)))})
	cf := bld.Func("c", expr.Float, []*dsl.Variable{x},
		[]dsl.Interval{dsl.Span(affine.Const(4), Rp.Affine().AddConst(-1))})
	cf.Define(dsl.Case{E: dsl.Add(bf.At(dsl.Sub(x, 1)), bf.At(dsl.Add(x, 1)))})
	g, err := pipeline.Build(bld, "c", "b")
	if err != nil {
		t.Fatal(err)
	}
	params := map[string]int64{"R": R}
	in, err := buffer.NewForDomain(I.Domain(), params)
	if err != nil {
		t.Fatal(err)
	}
	FillPattern(in, 21)
	return g, params, map[string]*Buffer{"I": in}
}

// midGroupOptions fuses midGroupPipeline's b and c under tiles of size ts.
func midGroupOptions(ts int64) schedule.Options {
	return schedule.Options{TileSizes: []int64{ts}, MinTileExtent: 16, MinSize: 16, OverlapThreshold: 0.8}
}

func TestMidGroupLiveOut(t *testing.T) {
	// c consumes b; b is also a pipeline output: b is a non-anchor live-out
	// inside c's group and must be written via owned-region copies.
	g, params, inputs := midGroupPipeline(t, 300)
	allVariants(t, g, params, inputs, midGroupOptions(32), 1e-5)
	// Verify that fusion actually grouped b and c (otherwise this test is
	// not exercising the mid-group live-out path).
	gr, err := schedule.BuildGroups(g, params, midGroupOptions(32))
	if err != nil {
		t.Fatal(err)
	}
	if gr.ByName["b"] != gr.ByName["c"] {
		t.Error("expected b and c to be fused for the mid-group live-out test")
	}
}

// TestTileLoopAllocsFlat: a steady-state pooled Run allocates no more at
// many tiles than at few, also when a tile copies a live-out that is not
// the group's anchor (midGroupPipeline's b) out of its scratchpad — the tile
// loop's owned-box and required-region boxes are the worker's, by position.
func TestTileLoopAllocsFlat(t *testing.T) {
	g, params, inputs := midGroupPipeline(t, 1000)
	steady := func(ts int64) (allocs float64, tiles int64) {
		gr, err := schedule.BuildGroups(g, params, midGroupOptions(ts))
		if err != nil {
			t.Fatal(err)
		}
		grp := gr.ByName["c"]
		if gr.ByName["b"] != grp {
			t.Fatalf("tile size %d: b and c not fused", ts)
		}
		prog, err := Compile(gr, params, ExecOptions{Fast: true, Threads: 1, ReuseBuffers: true})
		if err != nil {
			t.Fatal(err)
		}
		defer prog.Close()
		for _, ge := range prog.groups {
			if ge.grp == grp {
				tiles = ge.tp.NumTiles()
			}
		}
		e := prog.Executor()
		run := func() {
			out, err := e.Run(inputs)
			if err != nil {
				t.Fatal(err)
			}
			e.Recycle(out)
		}
		run() // warm the arena and the worker's scratch
		return testing.AllocsPerRun(10, run), tiles
	}
	few, fewTiles := steady(256)
	many, manyTiles := steady(16)
	if manyTiles < 8*fewTiles {
		t.Fatalf("tile counts %d and %d differ by less than 8x", fewTiles, manyTiles)
	}
	if many != few {
		t.Errorf("steady-state Run allocates %.0f times at %d tiles, %.0f at %d tiles", many, manyTiles, few, fewTiles)
	}
}

// TestBufferPooling checks the ReuseBuffers extension: results match the
// unpooled execution, only declared outputs are returned, and intermediate
// buffers get recycled.
func TestBufferPooling(t *testing.T) {
	g, params, inputs := harrisPipeline(t)
	if _, err := inline.Apply(g, inline.DefaultOptions()); err != nil {
		t.Fatal(err)
	}
	gr, err := schedule.BuildGroups(g, params, schedule.Options{DisableFusion: true})
	if err != nil {
		t.Fatal(err)
	}
	plain, err := Compile(gr, params, ExecOptions{Fast: true})
	if err != nil {
		t.Fatal(err)
	}
	pooled, err := Compile(gr, params, ExecOptions{Fast: true, ReuseBuffers: true})
	if err != nil {
		t.Fatal(err)
	}
	a, err := plain.Run(inputs)
	if err != nil {
		t.Fatal(err)
	}
	b, err := pooled.Run(inputs)
	if err != nil {
		t.Fatal(err)
	}
	if len(b) != 1 {
		t.Errorf("pooled run should return only declared outputs, got %d buffers", len(b))
	}
	if eq, msg := a["harris"].Equal(b["harris"], 0); !eq {
		t.Errorf("pooled result differs: %s", msg)
	}
	// Allocation comparison: pooled execution must allocate fewer bytes.
	countAlloc := func(p *Program) uint64 {
		var ms1, ms2 runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms1)
		if _, err := p.Run(inputs); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&ms2)
		return ms2.TotalAlloc - ms1.TotalAlloc
	}
	ap := countAlloc(plain)
	bp := countAlloc(pooled)
	if bp >= ap {
		t.Errorf("pooled run allocated %d bytes, plain %d — expected a reduction", bp, ap)
	}
}

// TestAccumulatorOps exercises Min/Max/Mul reductions (sequential and
// parallel with per-worker partials).
func TestAccumulatorOps(t *testing.T) {
	for _, op := range []dsl.ReduceOp{dsl.MinOp, dsl.MaxOp, dsl.MulOp, dsl.SumOp} {
		b := dsl.NewBuilder()
		R := b.Param("R")
		I := b.Image("I", expr.Float, R.Affine())
		x, v := b.Var("x"), b.Var("v")
		acc := b.Accum("acc", expr.Float,
			[]*dsl.Variable{x}, []dsl.Interval{dsl.Span(affine.Const(0), R.Affine().AddConst(-1))},
			[]*dsl.Variable{v}, []dsl.Interval{dsl.ConstSpan(0, 3)})
		// Reduce values into 4 buckets by index mod-ish split (x/64).
		acc.Define([]any{dsl.IDiv(x, 64)}, dsl.Add(I.At(x), 0.5), op)
		g, err := pipeline.Build(b, "acc")
		if err != nil {
			t.Fatal(err)
		}
		params := map[string]int64{"R": 256}
		in, err := buffer.NewForDomain(I.Domain(), params)
		if err != nil {
			t.Fatal(err)
		}
		FillPattern(in, int64(op))
		inputs := map[string]*Buffer{"I": in}
		ref, err := Reference(g, params, inputs)
		if err != nil {
			t.Fatal(err)
		}
		for _, threads := range []int{1, 4} {
			out := compileAndRun(t, g, params, schedule.Options{},
				ExecOptions{Threads: threads, Debug: true}, inputs)
			tol := 1e-5
			if op == dsl.MulOp {
				tol = 1e-2 // products of 64 values: parallel split reorders roundoff
			}
			if eq, msg := out["acc"].Equal(ref["acc"], tol); !eq {
				t.Errorf("op=%v threads=%d: %s", op, threads, msg)
			}
		}
	}
}

// TestDebugPanicBecomesError: in Debug mode an out-of-region read inside a
// tiled worker must surface as an error, not crash the process.
func TestDebugPanicBecomesError(t *testing.T) {
	// Build a spec whose producer case region is narrower than what the
	// consumer reads (legal per static bounds since the producer DOMAIN is
	// wide enough, but reads of never-written points trip the debug check
	// only if outside the scratch region — so instead we force the issue
	// with a data-dependent index that escapes the producer's domain).
	b := dsl.NewBuilder()
	R := b.Param("R")
	I := b.Image("I", expr.Float, R.Affine())
	x := b.Var("x")
	dom := []dsl.Interval{dsl.Span(affine.Const(0), R.Affine().AddConst(-1))}
	f := b.Func("f", expr.Float, []*dsl.Variable{x}, dom)
	f.Define(dsl.Case{E: I.At(x)})
	out := b.Func("out", expr.Float, []*dsl.Variable{x}, dom)
	// Data-dependent gather far outside f's domain: f(x + I(x)*1e6).
	out.Define(dsl.Case{E: f.At(dsl.Cast(expr.Int, dsl.Add(x, dsl.Mul(I.At(x), 1e6))))})
	g, err := pipeline.Build(b, "out")
	if err != nil {
		t.Fatal(err)
	}
	params := map[string]int64{"R": 128}
	in, err := buffer.NewForDomain(I.Domain(), params)
	if err != nil {
		t.Fatal(err)
	}
	FillPattern(in, 3)
	gr, err := schedule.BuildGroups(g, params, schedule.Options{})
	if err != nil {
		t.Fatal(err)
	}
	prog, err := Compile(gr, params, ExecOptions{Debug: true, Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := prog.Run(map[string]*Buffer{"I": in}); err == nil {
		t.Error("expected an out-of-region error in debug mode")
	}
}

// TestAlternativeTilingStrategies checks the other two strategies of
// Figure 5: parallelogram (sequential skewed tiles) and split (two-phase
// trapezoids) must produce exactly the overlapped-tiling results on both
// unit-scale and sampling pipelines — neither recomputes any value.
func TestAlternativeTilingStrategies(t *testing.T) {
	for _, strat := range []struct {
		name   string
		tiling TilingStrategy
	}{
		{"parallelogram", ParallelogramTiling},
		{"split", SplitTiling},
	} {
		strat := strat
		t.Run(strat.name+"/harris", func(t *testing.T) {
			g, params, inputs := harrisPipeline(t)
			ref, err := Reference(g, params, inputs)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := inline.Apply(g, inline.DefaultOptions()); err != nil {
				t.Fatal(err)
			}
			sopts := schedule.Options{TileSizes: []int64{16, 32}, MinTileExtent: 8}
			for _, fast := range []bool{false, true} {
				out := compileAndRun(t, g, params, sopts,
					ExecOptions{Fast: fast, Debug: true, Tiling: strat.tiling}, inputs)
				if eq, msg := out["harris"].Equal(ref["harris"], 1e-5); !eq {
					t.Errorf("fast=%v: %s", fast, msg)
				}
			}
		})
		// Random sampling-pipeline coverage for both strategies lives in
		// internal/difftest (the parallelogram-fast and split-fast knobs
		// of its DefaultKnobs sweep).
	}
}

// TestSplitTilingPhases verifies the two-phase structure: most points are
// computed in the parallel phase 1 (the upward trapezoids are non-trivial)
// and the phase-2 boundary fill is small but non-empty.
func TestSplitTilingPhases(t *testing.T) {
	g, params, inputs := harrisPipeline(t)
	if _, err := inline.Apply(g, inline.DefaultOptions()); err != nil {
		t.Fatal(err)
	}
	gr, err := schedule.BuildGroups(g, params, schedule.Options{TileSizes: []int64{16, 32}, MinTileExtent: 8})
	if err != nil {
		t.Fatal(err)
	}
	prog, err := Compile(gr, params, ExecOptions{Fast: true, Tiling: SplitTiling})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := prog.Run(inputs); err != nil {
		t.Fatal(err)
	}
	p1, p2 := prog.SplitStats.Phase1, prog.SplitStats.Phase2
	if p1 == 0 || p2 == 0 {
		t.Fatalf("expected both phases to compute points: phase1=%d phase2=%d", p1, p2)
	}
	if p1 < p2 {
		t.Errorf("phase 1 should dominate: phase1=%d phase2=%d", p1, p2)
	}
	t.Logf("split tiling: phase1=%d points, phase2=%d points (%.1f%% boundary fill)",
		p1, p2, 100*float64(p2)/float64(p1+p2))
}
