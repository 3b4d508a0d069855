package engine

import (
	"math"
	"testing"

	"repro/internal/affine"
	"repro/internal/dsl"
	"repro/internal/expr"
	"repro/internal/pipeline"
	"repro/internal/schedule"
)

// genTestPipeline builds a small two-stage blur whose stage names are
// unique to this file, so registrations under its hash cannot collide with
// other tests sharing the process-wide registry.
func genTestPipeline(t testing.TB) (*pipeline.Graph, map[string]int64, map[string]*Buffer) {
	t.Helper()
	b := dsl.NewBuilder()
	R, C := b.Param("R"), b.Param("C")
	I := b.Image("I", expr.Float, R.Affine().AddConst(2), C.Affine().AddConst(2))
	x, y := b.Var("x"), b.Var("y")
	dom := []dsl.Interval{
		dsl.Span(affine.Const(1), R.Affine()),
		dsl.Span(affine.Const(1), C.Affine()),
	}
	gx := b.Func("genregBlurX", expr.Float, []*dsl.Variable{x, y}, dom)
	gx.Define(dsl.Case{E: dsl.Mul(1.0/3,
		dsl.Add(dsl.Add(I.At(x, dsl.Sub(y, 1)), I.At(x, y)), I.At(x, dsl.Add(y, 1))))})
	// One row narrower than blurX on each side so the x±1 taps stay inside
	// the producer's domain.
	gyDom := []dsl.Interval{
		dsl.Span(affine.Const(2), R.Affine().AddConst(-1)),
		dsl.Span(affine.Const(1), C.Affine()),
	}
	gy := b.Func("genregBlurY", expr.Float, []*dsl.Variable{x, y}, gyDom)
	gy.Define(dsl.Case{E: dsl.Mul(1.0/3,
		dsl.Add(dsl.Add(gx.At(dsl.Sub(x, 1), y), gx.At(x, y)), gx.At(dsl.Add(x, 1), y)))})
	g, err := pipeline.Build(b, "genregBlurY")
	if err != nil {
		t.Fatal(err)
	}
	params := map[string]int64{"R": 64, "C": 64}
	in, err := NewBufferForDomain(I.Domain(), params)
	if err != nil {
		t.Fatal(err)
	}
	FillPattern(in, 7)
	return g, params, map[string]*Buffer{"I": in}
}

func genTestCompile(t testing.TB, g *pipeline.Graph, params map[string]int64, eo ExecOptions) *Program {
	t.Helper()
	gr, err := schedule.BuildGroups(g, params, schedule.Options{TileSizes: []int64{32, 32}})
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

// TestGenScheduleHashStable: the hash is deterministic across compiles,
// invariant to execution-only options (threads, debug, kernel toggles),
// and sensitive to the tile plan and the parameter binding.
func TestGenScheduleHashStable(t *testing.T) {
	g, params, _ := genTestPipeline(t)
	mk := func(params map[string]int64, tiles []int64, eo ExecOptions) string {
		gr, err := schedule.BuildGroups(g, params, schedule.Options{TileSizes: tiles})
		if err != nil {
			t.Fatal(err)
		}
		prog, err := Compile(gr, params, eo)
		if err != nil {
			t.Fatal(err)
		}
		defer prog.Close()
		return prog.ScheduleHash()
	}
	base := mk(params, []int64{32, 32}, ExecOptions{Fast: true, Threads: 1})
	if base == "" || len(base) != 64 {
		t.Fatalf("unexpected hash %q", base)
	}
	if h := mk(params, []int64{32, 32}, ExecOptions{Fast: true, Threads: 4, Debug: true, NoGenKernels: true}); h != base {
		t.Error("execution-only options changed the schedule hash")
	}
	if h := mk(params, []int64{16, 16}, ExecOptions{Fast: true, Threads: 1}); h == base {
		t.Error("tile plan change did not change the schedule hash")
	}
	if h := mk(map[string]int64{"R": 96, "C": 64}, []int64{32, 32}, ExecOptions{Fast: true, Threads: 1}); h == base {
		t.Error("parameter change did not change the schedule hash")
	}
}

// TestGenRegistryLaterWins: re-registering a hash replaces the package.
func TestGenRegistryLaterWins(t *testing.T) {
	h := "genregtest-later-wins"
	RegisterGenKernels(&GenPackage{Hash: h, Name: "first"})
	RegisterGenKernels(&GenPackage{Hash: h, Name: "second"})
	if got := LookupGenKernels(h); got == nil || got.Name != "second" {
		t.Fatalf("lookup = %+v, want the later registration", got)
	}
	if GenRegistrySize() == 0 {
		t.Fatal("registry reports empty after registration")
	}
}

// TestGenDispatchAndFallback registers a sentinel kernel (writes a
// constant) under the test pipeline's real hash and checks the dispatch
// matrix: hash hit runs the kernel; NoGenKernels, a hash miss, and
// non-covered pieces fall back to the interpreted tiers bit-identically.
func TestGenDispatchAndFallback(t *testing.T) {
	g, params, inputs := genTestPipeline(t)

	// Baseline: nothing registered for this hash yet.
	ref := genTestCompile(t, g, params, ExecOptions{Fast: true, Threads: 1})
	defer ref.Close()
	refOut, err := ref.Run(inputs)
	if err != nil {
		t.Fatal(err)
	}
	hash := ref.ScheduleHash()

	const sentinel = float32(12345)
	fill := func(c *GenCtx) {
		last := len(c.Region) - 1
		n := c.Region[last].Hi - c.Region[last].Lo + 1
		for x := c.Region[0].Lo; x <= c.Region[0].Hi; x++ {
			base := (x-c.Out.Box[0].Lo)*c.Out.Stride[0] + (c.Region[last].Lo - c.Out.Box[last].Lo)
			for i := int64(0); i < n; i++ {
				c.Out.Data[base+i] = sentinel
			}
		}
	}
	RegisterGenKernels(&GenPackage{
		Hash: hash,
		Name: "genregtest-sentinel",
		Kernels: []GenKernel{
			{Stage: "genregBlurY", Piece: 0, Rank: 2, Reads: []string{"genregBlurX"}, Fn: fill},
			// Invalid entries that attach must never bind: unknown stage,
			// piece out of range, rank mismatch, unresolvable read, nil fn.
			{Stage: "noSuchStage", Piece: 0, Rank: 2, Fn: fill},
			{Stage: "genregBlurY", Piece: 9, Rank: 2, Fn: fill},
			{Stage: "genregBlurX", Piece: 0, Rank: 3, Fn: fill},
			{Stage: "genregBlurX", Piece: 0, Rank: 2, Reads: []string{"notARead"}, Fn: fill},
			{Stage: "genregBlurX", Piece: 0, Rank: 2, Fn: nil},
		},
	})

	// Hash hit: the sentinel kernel computes the live-out.
	hit := genTestCompile(t, g, params, ExecOptions{Fast: true, Threads: 1})
	defer hit.Close()
	if n := genCount(hit); n != 1 {
		t.Fatalf("attached %d kernels, want exactly the one valid entry", n)
	}
	out, err := hit.Run(inputs)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range out["genregBlurY"].Data {
		if v != sentinel {
			t.Fatalf("generated kernel did not run: got %v, want sentinel", v)
		}
	}

	// NoGenKernels: knob wins over the registered package, output matches
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

	// Hash miss: a different tile plan must ignore the package entirely.
	gr, err := schedule.BuildGroups(g, params, schedule.Options{TileSizes: []int64{16, 16}})
	if err != nil {
		t.Fatal(err)
	}
	miss, err := Compile(gr, params, ExecOptions{Fast: true, Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer miss.Close()
	if n := genCount(miss); n != 0 {
		t.Fatalf("hash-mismatched program attached %d kernels", n)
	}

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

// TestGenUnitsIrregular: pieces with data-dependent or cross-dimension
// accesses are never enumerated (and so can never bind a kernel) — they
// stay on the row VM.
func TestGenUnitsIrregular(t *testing.T) {
	b := dsl.NewBuilder()
	R, C := b.Param("R"), b.Param("C")
	I := b.Image("I", expr.Float, R.Affine().AddConst(2), C.Affine().AddConst(2))
	x, y := b.Var("x"), b.Var("y")
	dom := []dsl.Interval{
		dsl.Span(affine.Const(1), R.Affine()),
		dsl.Span(affine.Const(1), C.Affine()),
	}
	diag := b.Func("genregDiag", expr.Float, []*dsl.Variable{x, y}, dom)
	// f(x, x): the second index uses the wrong dimension's variable.
	diag.Define(dsl.Case{E: dsl.Add(I.At(x, x), I.At(x, y))})
	g, err := pipeline.Build(b, "genregDiag")
	if err != nil {
		t.Fatal(err)
	}
	params := map[string]int64{"R": 32, "C": 32}
	prog := genTestCompile(t, g, params, ExecOptions{Fast: true, Threads: 1})
	defer prog.Close()
	for _, u := range prog.GenUnits() {
		if u.Stage == "genregDiag" {
			t.Fatalf("irregular stage enumerated as eligible: %+v", u)
		}
	}
}
