package engine

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"repro/internal/affine"
	"repro/internal/buffer"
	"repro/internal/dsl"
	"repro/internal/expr"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/schedule"
)

// genTestPipeline builds a small two-stage blur whose blur factor is unique
// to this file, so a sentinel registered under one of its piece keys cannot
// bind to another test's pipeline through the process-wide registry.
func genTestPipeline(t testing.TB) (*pipeline.Graph, map[string]int64, map[string]*Buffer) {
	t.Helper()
	const factor = 0.3203125
	b := dsl.NewBuilder()
	R, C := b.Param("R"), b.Param("C")
	I := b.Image("I", expr.Float, R.Affine().AddConst(2), C.Affine().AddConst(2))
	x, y := b.Var("x"), b.Var("y")
	dom := []dsl.Interval{
		dsl.Span(affine.Const(1), R.Affine()),
		dsl.Span(affine.Const(1), C.Affine()),
	}
	gx := b.Func("genregBlurX", expr.Float, []*dsl.Variable{x, y}, dom)
	gx.Define(dsl.Case{E: dsl.Mul(factor,
		dsl.Add(dsl.Add(I.At(x, dsl.Sub(y, 1)), I.At(x, y)), I.At(x, dsl.Add(y, 1))))})
	// One row narrower than blurX on each side so the x±1 taps stay inside
	// the producer's domain.
	gyDom := []dsl.Interval{
		dsl.Span(affine.Const(2), R.Affine().AddConst(-1)),
		dsl.Span(affine.Const(1), C.Affine()),
	}
	gy := b.Func("genregBlurY", expr.Float, []*dsl.Variable{x, y}, gyDom)
	gy.Define(dsl.Case{E: dsl.Mul(factor,
		dsl.Add(dsl.Add(gx.At(dsl.Sub(x, 1), y), gx.At(x, y)), gx.At(dsl.Add(x, 1), y)))})
	g, err := pipeline.Build(b, "genregBlurY")
	if err != nil {
		t.Fatal(err)
	}
	params := map[string]int64{"R": 64, "C": 64}
	in, err := buffer.NewForDomain(I.Domain(), params)
	if err != nil {
		t.Fatal(err)
	}
	FillPattern(in, 7)
	return g, params, map[string]*Buffer{"I": in}
}

// genTestCompile lowers g under the given tile sizes.
func genTestCompile(t testing.TB, g *pipeline.Graph, params map[string]int64, eo ExecOptions, tiles ...int64) *Program {
	t.Helper()
	if tiles == nil {
		tiles = []int64{32, 32}
	}
	gr, err := schedule.BuildGroups(g, params, schedule.Options{TileSizes: tiles})
	if err != nil {
		t.Fatal(err)
	}
	prog, err := Compile(gr, params, eo)
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

func genCount(p *Program) int {
	n := 0
	for _, sm := range p.Stats().Stages {
		n += sm.Gen
	}
	return n
}

// genKeys lists the program's unit keys by "stage/piece".
func genKeys(p *Program) map[string]string {
	keys := map[string]string{}
	for _, u := range p.GenUnits() {
		keys[fmt.Sprintf("%s/%d", u.Stage, u.Piece)] = u.Key
	}
	return keys
}

// TestGenKeyStable: a piece's key is deterministic across compiles and
// depends on nothing a kernel receives at run time — not the tile plan,
// the image size or any execution option — and two stages computing
// different things never share one.
func TestGenKeyStable(t *testing.T) {
	g, params, _ := genTestPipeline(t)
	mk := func(params map[string]int64, eo ExecOptions, tiles ...int64) map[string]string {
		prog := genTestCompile(t, g, params, eo, tiles...)
		defer prog.Close()
		return genKeys(prog)
	}
	base := mk(params, ExecOptions{Fast: true, Threads: 1})
	if len(base) != 2 || len(base["genregBlurX/0"]) != 64 {
		t.Fatalf("unexpected keys %v", base)
	}
	if base["genregBlurX/0"] == base["genregBlurY/0"] {
		t.Error("a row blur and a column blur share a key")
	}
	for label, got := range map[string]map[string]string{
		"execution-only options": mk(params, ExecOptions{Fast: true, Threads: 4, Debug: true, NoGenKernels: true, NarrowTypes: true}),
		"tile plan":              mk(params, ExecOptions{Fast: true, Threads: 1}, 16, 16),
		"image size":             mk(map[string]int64{"R": 96, "C": 40}, ExecOptions{Fast: true, Threads: 1}),
	} {
		if !reflect.DeepEqual(got, base) {
			t.Errorf("%s changed the piece keys: %v vs %v", label, got, base)
		}
	}
	// A kernel is a printing of the piece's row program: without Fast there
	// is none, so there is no unit (and non-Fast programs never consult the
	// registry anyway).
	if slow := mk(params, ExecOptions{Threads: 1}); len(slow) != 0 {
		t.Errorf("a non-Fast program enumerated units %v", slow)
	}
}

// TestGenDispatchAndFallback registers a sentinel kernel (writes a
// constant) under the key of one piece of the test pipeline and checks the
// dispatch matrix: a key hit runs the kernel under any tile plan and image
// size, a later registration shadows an earlier one, entries without a
// function never bind, and NoGenKernels or a non-Fast compile fall back to
// the interpreted tiers bit-identically.
func TestGenDispatchAndFallback(t *testing.T) {
	g, params, inputs := genTestPipeline(t)

	// Baseline: nothing registered for these keys yet.
	ref := genTestCompile(t, g, params, ExecOptions{Fast: true, Threads: 1})
	defer ref.Close()
	if n := genCount(ref); n != 0 {
		t.Fatalf("%d kernels bound before any registration", n)
	}
	if m := ref.Stats().GenMisses; m.NoKernel != 2 {
		t.Fatalf("GenMisses = %+v, want both pieces under NoKernel", m)
	}
	refOut, err := ref.Run(inputs)
	if err != nil {
		t.Fatal(err)
	}
	keys := genKeys(ref)

	fill := func(v float32) func(*GenCtx) {
		return func(c *GenCtx) {
			last := len(c.Region) - 1
			n := c.Region[last].Hi - c.Region[last].Lo + 1
			for x := c.Region[0].Lo; x <= c.Region[0].Hi; x++ {
				base := (x-c.Out.Box[0].Lo)*c.Out.Stride[0] + (c.Region[last].Lo - c.Out.Box[last].Lo)
				for i := int64(0); i < n; i++ {
					c.Out.Data[base+i] = v
				}
			}
		}
	}
	const sentinel = float32(12345)
	t.Cleanup(func() {
		genMu.Lock()
		delete(genRegistry, keys["genregBlurY/0"])
		genMu.Unlock()
	})
	RegisterGenKernels([]GenKernel{
		{Key: keys["genregBlurY/0"], Fn: fill(-1)},
		{Key: keys["genregBlurX/0"], Fn: nil},
	})
	RegisterGenKernels([]GenKernel{{Key: keys["genregBlurY/0"], Fn: fill(sentinel)}})

	// Key hit under a tile plan and an image size the key never saw: the
	// later sentinel computes the live-out.
	big := map[string]int64{"R": 96, "C": 80}
	bigIn, err := buffer.NewForDomain(g.Images["I"].Domain(), big)
	if err != nil {
		t.Fatal(err)
	}
	for _, hit := range []*Program{
		genTestCompile(t, g, params, ExecOptions{Fast: true, Threads: 1}),
		genTestCompile(t, g, big, ExecOptions{Fast: true, Threads: 2}, 16, 48),
	} {
		defer hit.Close()
		if n := genCount(hit); n != 1 {
			t.Fatalf("attached %d kernels, want exactly the one registered with a function", n)
		}
		if m := hit.Stats().GenMisses; m.NoKernel != 1 {
			t.Fatalf("GenMisses = %+v, want the nil-function piece under NoKernel", m)
		}
		in := inputs
		if hit.Params["R"] == 96 {
			in = map[string]*Buffer{"I": bigIn}
		}
		out, err := hit.Run(in)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range out["genregBlurY"].Data {
			if v != sentinel {
				t.Fatalf("generated kernel did not run: got %v, want sentinel", v)
			}
		}
	}

	// NoGenKernels: knob wins over the registered kernel, output matches
	// the pre-registration baseline bit for bit.
	off := genTestCompile(t, g, params, ExecOptions{Fast: true, Threads: 1, NoGenKernels: true})
	defer off.Close()
	if n := genCount(off); n != 0 {
		t.Fatalf("NoGenKernels still attached %d kernels", n)
	}
	offOut, err := off.Run(inputs)
	if err != nil {
		t.Fatal(err)
	}
	bitEqual(t, "NoGenKernels", offOut["genregBlurY"], refOut["genregBlurY"])

	// Non-Fast compile never consults the registry (its scalar tier is a
	// different evaluator, so no output comparison here — only that the
	// sentinel cannot leak in).
	slow := genTestCompile(t, g, params, ExecOptions{Threads: 1})
	defer slow.Close()
	if n := genCount(slow); n != 0 {
		t.Fatalf("non-Fast program attached %d kernels", n)
	}
	slowOut, err := slow.Run(inputs)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range slowOut["genregBlurY"].Data {
		if v == sentinel {
			t.Fatal("sentinel leaked into a non-Fast run")
		}
	}
}

func bitEqual(t *testing.T, label string, got, want *Buffer) {
	t.Helper()
	if len(got.Data) != len(want.Data) {
		t.Fatalf("%s: length %d vs %d", label, len(got.Data), len(want.Data))
	}
	for i := range got.Data {
		if math.Float32bits(got.Data[i]) != math.Float32bits(want.Data[i]) {
			t.Fatalf("%s: index %d not bit-identical: %v vs %v", label, i, got.Data[i], want.Data[i])
		}
	}
}

// TestGenUnitsIrregular pins what "irregular" still means. Cross-dimension
// indices (f(x, x)) and data-dependent ones (lut(I(x,y))) are enumerated
// like any other piece, each shape under its own key; the reason is left to
// stages of rank above 3 and, under Debug, to gather pieces, whose
// per-dimension region check only the interpreted tiers carry.
func TestGenUnitsIrregular(t *testing.T) {
	b := dsl.NewBuilder()
	R, C := b.Param("R"), b.Param("C")
	I := b.Image("I", expr.Float, R.Affine().AddConst(2), C.Affine().AddConst(2))
	x, y, u, v := b.Var("x"), b.Var("y"), b.Var("u"), b.Var("v")
	dom := []dsl.Interval{
		dsl.Span(affine.Const(1), R.Affine()),
		dsl.Span(affine.Const(1), C.Affine()),
	}
	diag := b.Func("genregDiag", expr.Float, []*dsl.Variable{x, y}, dom)
	// f(x, x): the second index uses the other dimension's variable.
	diag.Define(dsl.Case{E: dsl.Add(I.At(x, x), I.At(x, y))})
	lut := b.Func("genregLUT", expr.Float, []*dsl.Variable{x, y}, dom)
	lut.Define(dsl.Case{E: I.At(x, dsl.Clamp(dsl.Cast(expr.Int, dsl.Mul(I.At(x, y), 31.0)), 0, 31))})
	two := []dsl.Interval{dsl.ConstSpan(0, 1), dsl.ConstSpan(0, 1)}
	deep := b.Func("genregRank4", expr.Float, []*dsl.Variable{u, v, x, y}, append(two, dom...))
	deep.Define(dsl.Case{E: dsl.Add(diag.At(x, y), lut.At(x, y))})
	g, err := pipeline.Build(b, "genregRank4")
	if err != nil {
		t.Fatal(err)
	}
	params := map[string]int64{"R": 32, "C": 32}
	prog := genTestCompile(t, g, params, ExecOptions{Fast: true, Threads: 1})
	defer prog.Close()
	keys := genKeys(prog)
	if len(keys) != 2 || keys["genregDiag/0"] == "" || keys["genregLUT/0"] == "" || keys["genregDiag/0"] == keys["genregLUT/0"] {
		t.Fatalf("eligible pieces = %v, want genregDiag and genregLUT under distinct keys", keys)
	}
	// No package in this binary holds their kernels; the rank-4 stage is
	// the only irregular piece.
	if m := prog.Stats().GenMisses; m != (obs.GenMisses{NoKernel: 2, Irregular: 1}) {
		t.Errorf("GenMisses = %+v, want 2 under NoKernel and the rank-4 piece under Irregular", m)
	}
	dbg := genTestCompile(t, g, params, ExecOptions{Fast: true, Threads: 1, Debug: true})
	defer dbg.Close()
	if m := dbg.Stats().GenMisses; m != (obs.GenMisses{NoKernel: 1, Irregular: 2}) {
		t.Errorf("GenMisses under Debug = %+v, want the gather piece moved to Irregular", m)
	}
}
