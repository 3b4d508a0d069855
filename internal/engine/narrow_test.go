package engine

import (
	"errors"
	"reflect"
	"slices"
	"testing"

	"repro/internal/affine"
	"repro/internal/dsl"
	"repro/internal/expr"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/schedule"
)

// --- interval arithmetic unit tests -------------------------------------

func TestIvArithmetic(t *testing.T) {
	r := func(lo, hi int64) iv { return ivRange(lo, hi) }
	cases := []struct {
		name string
		got  iv
		want iv
	}{
		{"add", ivBin(expr.Add, r(1, 3), r(10, 20)), r(11, 23)},
		{"sub", ivBin(expr.Sub, r(0, 255), r(0, 255)), r(-255, 255)},
		{"mul-corners", ivBin(expr.Mul, r(-2, 3), r(-5, 7)), r(-15, 21)},
		{"min", ivBin(expr.Min, r(0, 10), r(5, 20)), r(0, 10)},
		{"max", ivBin(expr.Max, r(0, 10), r(5, 20)), r(5, 20)},
		{"fdiv", ivBin(expr.FDiv, r(-7, 7), r(2, 2)), r(-4, 3)},
		{"fdiv-div-range", ivBin(expr.FDiv, r(0, 100), r(2, 10)), r(0, 50)},
		{"fdiv-zero-div", ivBin(expr.FDiv, r(0, 100), r(0, 4)), ivBad()},
		{"fdiv-neg-div", ivBin(expr.FDiv, r(0, 100), r(-4, -2)), ivBad()},
		{"mod", ivBin(expr.Mod, r(-10, 100), r(7, 7)), r(-6, 6)},
		{"mod-pos-dividend", ivBin(expr.Mod, r(0, 100), r(7, 7)), r(0, 6)},
		{"mod-zero-div", ivBin(expr.Mod, r(0, 10), r(-1, 1)), ivBad()},
		{"div-not-integral", ivBin(expr.Div, r(4, 4), r(2, 2)), ivBad()},
		{"neg", ivUn(expr.Neg, r(-3, 8)), r(-8, 3)},
		{"abs-straddle", ivUn(expr.Abs, r(-3, 8)), r(0, 8)},
		{"abs-neg", ivUn(expr.Abs, r(-9, -4)), r(4, 9)},
		{"floor-identity", ivUn(expr.Floor, r(1, 5)), r(1, 5)},
		{"sqrt-not-integral", ivUn(expr.Sqrt, r(4, 4)), ivBad()},
		{"overflow-cap", ivBin(expr.Mul, r(0, maxExact), r(0, 2)), ivBad()},
	}
	for _, c := range cases {
		if c.got != c.want {
			t.Errorf("%s: got %+v, want %+v", c.name, c.got, c.want)
		}
	}
}

func TestIvCastSoundness(t *testing.T) {
	// A saturating cast of an unprovable operand re-bounds Char/UChar/Short
	// (their ranges fit the exactness cap) but must clear exactness.
	exact := true
	got := ivCast(expr.UChar, ivBad(), &exact)
	if got != ivRange(0, 255) || exact {
		t.Errorf("UChar cast of unknown: got %+v exact=%v, want [0,255] exact=false", got, exact)
	}
	// Int/UInt saturate to 32-bit bounds beyond the ±2^24 cap, so they must
	// NOT claim a bounded interval for an unprovable operand.
	exact = true
	if got := ivCast(expr.Int, ivBad(), &exact); got.ok || exact {
		t.Errorf("Int cast of unknown: got %+v exact=%v, want unbounded inexact", got, exact)
	}
	exact = true
	if got := ivCast(expr.UInt, ivBad(), &exact); got.ok || exact {
		t.Errorf("UInt cast of unknown: got %+v exact=%v, want unbounded inexact", got, exact)
	}
	// Provable operands stay exact and clamp at the type bounds.
	exact = true
	if got := ivCast(expr.Char, ivRange(-500, 500), &exact); got != ivRange(-128, 127) || !exact {
		t.Errorf("Char cast of [-500,500]: got %+v exact=%v", got, exact)
	}
	exact = true
	if got := ivCast(expr.Int, ivRange(-500, 500), &exact); got != ivRange(-500, 500) || !exact {
		t.Errorf("Int cast of [-500,500]: got %+v exact=%v", got, exact)
	}
}

func TestElemFor(t *testing.T) {
	cases := []struct {
		r    iv
		want Elem
	}{
		{ivRange(0, 255), ElemU8},
		{ivRange(0, 256), ElemU16},
		{ivRange(0, 65535), ElemU16},
		{ivRange(-1, 10), ElemI32},
		{ivRange(0, 65536), ElemI32},
		{ivBad(), ElemF32},
	}
	for _, c := range cases {
		if got := elemFor(c.r); got != c.want {
			t.Errorf("elemFor(%+v) = %v, want %v", c.r, got, c.want)
		}
	}
}

// --- end-to-end narrow pipeline ------------------------------------------

// narrowTestPipeline is an all-integer three-stage pipeline over a uint8
// image: a 1-2-1 vertical stencil (range [0,1020] → uint16), a horizontal
// 1-2-1 pass divided by 16 (range [0,255] → uint8), and a clamped unsharp
// combination (2·I − blur, clamped to [0,255] → uint8). Every stage is
// provably integral within ±2^24, so all evaluator tiers must agree
// bit-for-bit.
func narrowTestPipeline(t testing.TB) (*pipeline.Graph, map[string]int64, map[string]*Buffer) {
	t.Helper()
	b := dsl.NewBuilder()
	R, C := b.Param("R"), b.Param("C")
	I := b.Image("I", expr.UChar, R.Affine().AddConst(2), C.Affine().AddConst(2))
	x, y := b.Var("x"), b.Var("y")
	dom := []dsl.Interval{
		dsl.Span(affine.Const(1), R.Affine()),
		dsl.Span(affine.Const(1), C.Affine()),
	}
	bx := b.Func("nrwBlurX", expr.Short, []*dsl.Variable{x, y}, dom)
	bx.Define(dsl.Case{E: dsl.Add(dsl.Add(I.At(x, dsl.Sub(y, 1)), dsl.Mul(2, I.At(x, y))), I.At(x, dsl.Add(y, 1)))})
	byDom := []dsl.Interval{
		dsl.Span(affine.Const(2), R.Affine().AddConst(-1)),
		dsl.Span(affine.Const(1), C.Affine()),
	}
	by := b.Func("nrwBlurY", expr.UChar, []*dsl.Variable{x, y}, byDom)
	by.Define(dsl.Case{E: dsl.IDiv(
		dsl.Add(dsl.Add(bx.At(dsl.Sub(x, 1), y), dsl.Mul(2, bx.At(x, y))), bx.At(dsl.Add(x, 1), y)),
		16)})
	sharp := b.Func("nrwSharp", expr.UChar, []*dsl.Variable{x, y}, byDom)
	sharp.Define(dsl.Case{E: dsl.Clamp(
		dsl.Sub(dsl.Mul(2, I.At(x, y)), by.At(x, y)), 0, 255)})
	g, err := pipeline.Build(b, "nrwSharp")
	if err != nil {
		t.Fatal(err)
	}
	params := map[string]int64{"R": 61, "C": 53}
	box, err := I.Domain().Eval(params)
	if err != nil {
		t.Fatal(err)
	}
	in := NewBufferElem(box, ElemU8)
	FillPattern(in, 11)
	return g, params, map[string]*Buffer{"I": in}
}

func narrowCompile(t testing.TB, g *pipeline.Graph, params map[string]int64, eo ExecOptions) *Program {
	t.Helper()
	gr, err := schedule.BuildGroups(g, params, schedule.Options{TileSizes: []int64{16, 16}})
	if err != nil {
		t.Fatal(err)
	}
	prog, err := Compile(gr, params, eo)
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// valuesEqual compares two buffers element-wise after exact widening to
// float64 (the buffers may have different element types).
func valuesEqual(t *testing.T, label string, got, want *Buffer) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("%s: length %d vs %d", label, got.Len(), want.Len())
	}
	for i := int64(0); i < int64(got.Len()); i++ {
		if got.LoadF64(i) != want.LoadF64(i) {
			t.Fatalf("%s: offset %d: %v vs %v", label, i, got.LoadF64(i), want.LoadF64(i))
		}
	}
}

// TestNarrowEndToEnd: the narrow program is bit-identical to the float32
// program and to the reference interpreter across every evaluator tier, its
// live-out is stored uint8, and the stats report the inference decisions.
func TestNarrowEndToEnd(t *testing.T) {
	g, params, inputs := narrowTestPipeline(t)

	ref, err := Reference(g, params, inputs)
	if err != nil {
		t.Fatal(err)
	}

	// float32 baseline (NarrowTypes off) needs float32 inputs.
	f32Inputs := map[string]*Buffer{"I": ConvertBuffer(inputs["I"], ElemF32)}
	base := narrowCompile(t, g, params, ExecOptions{Fast: true, Threads: 1})
	defer base.Close()
	baseOut, err := base.Run(f32Inputs)
	if err != nil {
		t.Fatal(err)
	}
	valuesEqual(t, "baseline vs reference", baseOut["nrwSharp"], ref["nrwSharp"])

	tiers := []struct {
		name string
		eo   ExecOptions
	}{
		{"fast-seq", ExecOptions{Fast: true, Threads: 1, NarrowTypes: true}},
		{"fast-par", ExecOptions{Fast: true, Threads: 4, NarrowTypes: true}},
		{"pooled", ExecOptions{Fast: true, Threads: 2, ReuseBuffers: true, NarrowTypes: true}},
	}
	for _, tier := range tiers {
		prog := narrowCompile(t, g, params, tier.eo)
		out, err := prog.Run(inputs)
		if err != nil {
			prog.Close()
			t.Fatalf("%s: %v", tier.name, err)
		}
		sharp := out["nrwSharp"]
		if sharp.Elem != ElemU8 {
			t.Errorf("%s: live-out element type %v, want uint8", tier.name, sharp.Elem)
		}
		valuesEqual(t, tier.name+" vs reference", sharp, ref["nrwSharp"])
		prog.Close()
	}

	// Stats must report the chosen types and the evaluators used.
	prog := narrowCompile(t, g, params, ExecOptions{Fast: true, Threads: 1, NarrowTypes: true})
	defer prog.Close()
	if _, err := prog.Run(inputs); err != nil {
		t.Fatal(err)
	}
	elems := map[string]string{}
	for _, sm := range prog.Stats().Stages {
		elems[sm.Name] = sm.Elem
		if !sm.IntExact {
			t.Errorf("stage %s not intExact", sm.Name)
		}
		// No kernels are linked here: every piece, the stencil-shaped
		// nrwBlurX included, runs the row VM's integer instruction set.
		if sm.RowVM != 1 || !sm.VMInt || sm.IntStencil != 0 {
			t.Errorf("stage %s: RowVM=%d VMInt=%v IntStencil=%d, want one integer-VM piece", sm.Name, sm.RowVM, sm.VMInt, sm.IntStencil)
		}
	}
	if elems["nrwBlurX"] != "uint16" {
		t.Errorf("nrwBlurX elem = %q, want uint16", elems["nrwBlurX"])
	}
	if elems["nrwBlurY"] != "uint8" || elems["nrwSharp"] != "uint8" {
		t.Errorf("blurY/sharp elems = %q/%q, want uint8/uint8", elems["nrwBlurY"], elems["nrwSharp"])
	}
}

// TestNarrowInputValidation: loads specialize on the slot element type at
// compile time, so Run must reject inputs whose element type mismatches.
func TestNarrowInputValidation(t *testing.T) {
	g, params, inputs := narrowTestPipeline(t)
	narrow := narrowCompile(t, g, params, ExecOptions{Fast: true, Threads: 1, NarrowTypes: true})
	defer narrow.Close()
	f32In := map[string]*Buffer{"I": ConvertBuffer(inputs["I"], ElemF32)}
	if _, err := narrow.Run(f32In); !errors.Is(err, ErrShape) {
		t.Errorf("narrow program with float32 input: err = %v, want ErrShape", err)
	}
	base := narrowCompile(t, g, params, ExecOptions{Fast: true, Threads: 1})
	defer base.Close()
	if _, err := base.Run(inputs); !errors.Is(err, ErrShape) {
		t.Errorf("float32 program with uint8 input: err = %v, want ErrShape", err)
	}
}

// TestNarrowGenKeys: a narrow program's pieces are generated-kernel units
// on int64 registers whose keys differ from the same pipeline's float32
// layout (a float32 kernel can never bind to a narrow slot, nor an int64
// kernel to a float one), none is refused for its element type, and an
// all-float32 program's piece keys are the same with the option on or off
// (checked-in kernels stay bound).
func TestNarrowGenKeys(t *testing.T) {
	g, params, _ := narrowTestPipeline(t)
	on := narrowCompile(t, g, params, ExecOptions{Fast: true, Threads: 1, NarrowTypes: true})
	defer on.Close()
	off := narrowCompile(t, g, params, ExecOptions{Fast: true, Threads: 1})
	defer off.Close()
	units, wide := on.GenUnits(), genKeys(off)
	if len(units) != 3 || len(wide) != 3 {
		t.Fatalf("narrow layout enumerated %d gen units, float32 layout %d, want 3 and 3", len(units), len(wide))
	}
	seen := map[string]string{}
	for at, key := range wide {
		seen[key] = "float32-layout " + at
	}
	for _, u := range units {
		if u.Set() != "int64" || u.Out == ElemF32 || len(u.Elems) != len(u.Reads) || slices.Contains(u.Elems, ElemF32) {
			t.Errorf("unit %s: set %s out %s reads %v, want int64 registers over narrow slots", u.Stage, u.Set(), u.Out, u.Elems)
		}
		if other, dup := seen[u.Key]; dup {
			t.Errorf("unit %s shares its key with %s", u.Stage, other)
		}
		seen[u.Key] = u.Stage
	}
	// No kernel is registered for this file's pipeline: each unit is a
	// "no kernel for key" miss, none a narrow-element one.
	if m, want := on.Stats().GenMisses, (obs.GenMisses{NoKernel: 3}); m != want {
		t.Errorf("GenMisses = %+v, want %+v", m, want)
	}

	gf, paramsF, _ := genTestPipeline(t)
	fOn := genTestCompile(t, gf, paramsF, ExecOptions{Fast: true, Threads: 1, NarrowTypes: true})
	defer fOn.Close()
	fOff := genTestCompile(t, gf, paramsF, ExecOptions{Fast: true, Threads: 1})
	defer fOff.Close()
	if on, off := genKeys(fOn), genKeys(fOff); len(on) == 0 || !reflect.DeepEqual(on, off) {
		t.Errorf("NarrowTypes changed the piece keys of an all-float32 program: %v vs %v", on, off)
	}
}

// TestVMIntOpcodes: vmIntOK accepts the integer subset and rejects
// instructions whose results are not integral.
func TestVMIntOpcodes(t *testing.T) {
	cp := &compiler{slots: map[string]int{"I": 0}, params: map[string]int64{}}
	intSet := func(e expr.Expr) bool {
		_, _, vm := lowerTest(t, cp, e, 0, setInt)
		return vm.set == setInt
	}
	acc := expr.Access{Target: "I", Args: []expr.Expr{expr.VarRef{Dim: 0}}}
	if !intSet(expr.Binary{Op: expr.Add, L: acc, R: expr.Const{V: 3}}) {
		t.Error("integral add rejected by vmIntOK")
	}
	if intSet(expr.Binary{Op: expr.Mul, L: acc, R: expr.Const{V: 0.5}}) {
		t.Error("fractional immediate accepted by vmIntOK")
	}
	if intSet(expr.Binary{Op: expr.Div, L: acc, R: expr.Const{V: 2}}) {
		t.Error("true division accepted by vmIntOK")
	}
	if intSet(expr.Unary{Op: expr.Sqrt, X: acc}) {
		t.Error("sqrt accepted by vmIntOK")
	}
}
