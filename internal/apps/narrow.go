package apps

import (
	"fmt"

	"repro/internal/affine"
	"repro/internal/dsl"
	"repro/internal/engine"
	"repro/internal/expr"
)

// Narrow-type application variants (Options.NarrowTypes): all-integer
// uint8 pipelines whose every stage bitwidth inference proves integral
// within ±2^24, so execution is bit-exact across the scalar, row-VM,
// integer-VM and generated int64 tiers and the narrowed buffers hold the
// same values as the float32 layout at a fraction of the footprint.
//
// These live in their own registry rather than apps.All(): the Table 2
// registry is consumed by many generic drivers (benchmarks, the serving
// layer, the kernel generator) that bind programs with the float32 layout,
// while the narrow variants must bind with NarrowTypes and uint8 inputs.

// NarrowApp is one narrow-type benchmark application.
type NarrowApp struct {
	// Name is the registry key (e.g. "blur-u8").
	Name string
	// Title as printed in tables.
	Title string
	// TestParams is a small binding used by tests; BenchParams the
	// full-size binding used by the narrow benchmark.
	TestParams, BenchParams map[string]int64
	// Build constructs the DSL specification, returning the builder and
	// the live-out stage names.
	Build func() (*dsl.Builder, []string)
	// Inputs allocates synthetic inputs: uint8 buffers for UChar images,
	// float32 for everything else.
	Inputs func(b *dsl.Builder, params map[string]int64, seed int64) (map[string]*engine.Buffer, error)
}

var narrowRegistry = map[string]*NarrowApp{}

func registerNarrow(a *NarrowApp) {
	if _, dup := narrowRegistry[a.Name]; dup {
		panic(fmt.Sprintf("apps: duplicate narrow app %q", a.Name))
	}
	narrowRegistry[a.Name] = a
}

// GetNarrow looks up a narrow app by name.
func GetNarrow(name string) (*NarrowApp, error) {
	a, ok := narrowRegistry[name]
	if !ok {
		return nil, fmt.Errorf("apps: unknown narrow app %q (have %v)", name, NarrowNames())
	}
	return a, nil
}

// NarrowNames lists the registered narrow apps in a fixed order.
func NarrowNames() []string {
	order := []string{"blur-u8", "unsharp-u8"}
	var out []string
	for _, n := range order {
		if _, ok := narrowRegistry[n]; ok {
			out = append(out, n)
		}
	}
	return out
}

// AllNarrow returns the registered narrow apps in NarrowNames order.
func AllNarrow() []*NarrowApp {
	var out []*NarrowApp
	for _, n := range NarrowNames() {
		out = append(out, narrowRegistry[n])
	}
	return out
}

// narrowInputs fills every declared image with the synthetic pattern,
// allocating uint8 storage for UChar images.
func narrowInputs(b *dsl.Builder, params map[string]int64, seed int64) (map[string]*engine.Buffer, error) {
	out := make(map[string]*engine.Buffer)
	for name, im := range b.Images() {
		box, err := im.Domain().Eval(params)
		if err != nil {
			return nil, err
		}
		elem := engine.ElemF32
		if im.ElemType() == expr.UChar {
			elem = engine.ElemU8
		}
		buf := engine.NewBufferElem(box, elem)
		engine.FillPattern(buf, seed+int64(len(name))*131)
		out[name] = buf
	}
	return out, nil
}

// blur-u8: a separable 5-tap binomial blur over a uint8 image with
// integral weights throughout. blurx holds Σ w·I in [0, 4080] (uint16),
// blury Σ w·blurx in [0, 65280] (uint16), and the final stage divides by
// the total mass 256 back into [0, 255] (uint8). All three stages are
// int-exact: int64 kernels where internal/apps/gen is linked, integer-VM
// programs otherwise, the power-of-two floor division an arithmetic shift
// in both.
func init() {
	registerNarrow(&NarrowApp{
		Name:        "blur-u8",
		Title:       "Binomial Blur (uint8)",
		TestParams:  map[string]int64{"R": 93, "C": 87},
		BenchParams: map[string]int64{"R": 2048, "C": 2048},
		Build:       buildBlurU8,
		Inputs:      narrowInputs,
	})
}

func buildBlurU8() (*dsl.Builder, []string) {
	b := dsl.NewBuilder()
	R, C := b.Param("R"), b.Param("C")
	I := b.Image("I", expr.UChar, R.Affine().AddConst(4), C.Affine().AddConst(4))
	x, y := b.Var("x"), b.Var("y")
	dom := []dsl.Interval{
		dsl.Span(affine.Const(2), R.Affine().AddConst(1)),
		dsl.Span(affine.Const(2), C.Affine().AddConst(1)),
	}
	w := []int64{1, 4, 6, 4, 1}
	tap := func(f interface{ At(args ...any) expr.Expr }, dim int) expr.Expr {
		var e expr.Expr
		for t, wt := range w {
			var at expr.Expr
			if dim == 1 {
				at = f.At(x, dsl.Add(y, t-2))
			} else {
				at = f.At(dsl.Add(x, t-2), y)
			}
			term := dsl.Mul(wt, at)
			if t == 0 {
				e = term
			} else {
				e = dsl.Add(e, term)
			}
		}
		return e
	}
	bx := b.Func("blurx", expr.Short, []*dsl.Variable{x, y}, dom)
	bx.Define(dsl.Case{E: tap(I, 1)})
	byDom := []dsl.Interval{
		dsl.Span(affine.Const(4), R.Affine().AddConst(-1)),
		dsl.Span(affine.Const(2), C.Affine().AddConst(1)),
	}
	by := b.Func("blury", expr.Int, []*dsl.Variable{x, y}, byDom)
	by.Define(dsl.Case{E: tap(bx, 0)})
	final := b.Func("blur8", expr.UChar, []*dsl.Variable{x, y}, byDom)
	final.Define(dsl.Case{E: dsl.IDiv(by.At(x, y), 256)})
	return b, []string{"blur8"}
}

// unsharp-u8: the unsharp-mask shape in pure integer arithmetic — a
// separable 1-2-1 blur normalized by floor division, then a clamped
// 2·I − blur sharpening cast back to uint8. Exercises an integer stencil
// shape (blurx), integer floor division (blury), and the saturating UChar
// cast of a provably bounded operand (sharp).
func init() {
	registerNarrow(&NarrowApp{
		Name:        "unsharp-u8",
		Title:       "Unsharp Mask (uint8)",
		TestParams:  map[string]int64{"R": 61, "C": 119},
		BenchParams: map[string]int64{"R": 2048, "C": 2048},
		Build:       buildUnsharpU8,
		Inputs:      narrowInputs,
	})
}

func buildUnsharpU8() (*dsl.Builder, []string) {
	b := dsl.NewBuilder()
	R, C := b.Param("R"), b.Param("C")
	I := b.Image("I", expr.UChar, R.Affine().AddConst(2), C.Affine().AddConst(2))
	x, y := b.Var("x"), b.Var("y")
	dom := []dsl.Interval{
		dsl.Span(affine.Const(1), R.Affine()),
		dsl.Span(affine.Const(1), C.Affine()),
	}
	bx := b.Func("ublurx", expr.Short, []*dsl.Variable{x, y}, dom)
	bx.Define(dsl.Case{E: dsl.Add(dsl.Add(I.At(x, dsl.Sub(y, 1)), dsl.Mul(2, I.At(x, y))), I.At(x, dsl.Add(y, 1)))})
	byDom := []dsl.Interval{
		dsl.Span(affine.Const(2), R.Affine().AddConst(-1)),
		dsl.Span(affine.Const(1), C.Affine()),
	}
	by := b.Func("ublury", expr.UChar, []*dsl.Variable{x, y}, byDom)
	by.Define(dsl.Case{E: dsl.IDiv(
		dsl.Add(dsl.Add(bx.At(dsl.Sub(x, 1), y), dsl.Mul(2, bx.At(x, y))), bx.At(dsl.Add(x, 1), y)),
		16)})
	sharp := b.Func("usharp8", expr.UChar, []*dsl.Variable{x, y}, byDom)
	sharp.Define(dsl.Case{E: dsl.Cast(expr.UChar, dsl.Clamp(
		dsl.Sub(dsl.Mul(2, I.At(x, y)), by.At(x, y)), 0, 255))})
	return b, []string{"usharp8"}
}
