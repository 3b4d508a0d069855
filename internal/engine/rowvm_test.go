package engine

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"repro/internal/affine"
	"repro/internal/buffer"
	"repro/internal/dsl"
	"repro/internal/expr"
	"repro/internal/pipeline"
	"repro/internal/schedule"
)

// vmHarness compiles an expression to a row program and evaluates it over
// one row, comparing element-wise with the reference evaluator expr.Eval. It
// returns the compiled program so callers can assert on its shape
// (instruction mix, register counts). The float64 instantiation runs every
// program and must equal the reference bit for bit (a NaN matches a NaN);
// the program also asks for the float32 set, or for the int64 set when
// every buffer is integer-typed, and when it gets it that instantiation is
// checked against the float64 result too: within float32 rounding, or
// exactly.
func vmHarness(t *testing.T, e expr.Expr, bufs map[string]*Buffer, pt []int64, n int) *rowVM {
	t.Helper()
	slots := map[string]int{}
	ctxBufs := []*Buffer{}
	var elems []Elem
	integral := true
	for name, b := range bufs {
		slots[name] = len(ctxBufs)
		ctxBufs = append(ctxBufs, b)
		elems = append(elems, b.Elem)
		integral = integral && b.Elem != ElemF32
	}
	params := map[string]int64{"P": 3}
	cp := &compiler{slots: slots, params: params, elems: elems}
	want := setF32
	if integral {
		want = setInt
	}
	vm, err := cp.compileRowVM(e, len(pt)-1, want)
	if err != nil {
		t.Fatal(err)
	}
	rc := &RowCtx{}
	rc.pt = append([]int64(nil), pt...)
	rc.bufs = ctxBufs
	rc.last = len(pt) - 1
	rc.jLo = pt[len(pt)-1]
	rc.n = n
	got := append([]float64(nil), evalRow[float64](vm, rc)...)

	env := &expr.Env{Point: append([]int64(nil), pt...), Params: params,
		Lookup: func(target string, idx []int64) float64 {
			b := bufs[target]
			return b.LoadF64(b.Offset(idx))
		}}
	for i := 0; i < n; i++ {
		env.Point[len(pt)-1] = pt[len(pt)-1] + int64(i)
		want := expr.Eval(e, env)
		if math.Float64bits(got[i]) != math.Float64bits(want) && !(math.IsNaN(got[i]) && math.IsNaN(want)) {
			t.Fatalf("vm[%d] = %v, reference = %v (expr %v)", i, got[i], want, e)
		}
	}
	switch vm.set {
	case setF32:
		for i, v := range evalRow[float32](vm, rc) {
			if d := math.Abs(float64(v) - got[i]); d > 1e-5+1e-5*math.Abs(got[i]) {
				t.Fatalf("f32[%d] = %v, f64 = %v (expr %v)", i, v, got[i], e)
			}
		}
	case setInt:
		for i, v := range evalRow[int64](vm, rc) {
			if float64(v) != got[i] {
				t.Fatalf("int[%d] = %v, f64 = %v (expr %v)", i, v, got[i], e)
			}
		}
	}
	return vm
}

// TestRowVMMatchesScalar is the differential property for the bytecode
// evaluator: array-at-a-time evaluation must agree with the reference's
// point-at-a-time evaluation for every expression form, including forms
// that exercise the fused superinstructions and the gather instruction.
func TestRowVMMatchesScalar(t *testing.T) {
	src := NewBuffer(affine.Box{{Lo: 0, Hi: 19}, {Lo: 0, Hi: 39}})
	FillPattern(src, 9)
	bufs := map[string]*Buffer{"g": src}
	x := expr.VarRef{Dim: 0, Name: "x"}
	y := expr.VarRef{Dim: 1, Name: "y"}
	g := func(a, b expr.Expr) expr.Expr {
		return expr.Access{Target: "g", Args: []expr.Expr{a, b}}
	}
	cases := []expr.Expr{
		expr.C(2.5),
		x, y,
		expr.ParamRef{Name: "P"},
		g(x, y), // unit stride
		g(expr.AddE(x, expr.C(1)), expr.SubE(y, expr.C(2))),                       // offsets
		g(x, expr.MulE(expr.C(2), y)),                                             // strided gather
		g(x, expr.Binary{Op: expr.FDiv, L: y, R: expr.C(2)}),                      // divided gather
		g(expr.Binary{Op: expr.FDiv, L: x, R: expr.C(2)}, y),                      // row-constant div
		expr.AddE(g(x, y), expr.MulE(expr.C(0.5), g(x, expr.AddE(y, expr.C(1))))), // madLoad
		expr.Unary{Op: expr.Sqrt, X: expr.Unary{Op: expr.Abs, X: g(x, y)}},
		expr.MinE(g(x, y), expr.C(0.5)),
		expr.Binary{Op: expr.Pow, L: expr.MaxE(g(x, y), expr.C(0.1)), R: expr.C(1.5)},
		expr.Select{
			Cond: expr.Cmp{Op: expr.GT, L: g(x, y), R: expr.C(0.5)},
			Then: expr.C(1),
			Else: g(x, expr.AddE(y, expr.C(2))),
		},
		expr.Cast{To: expr.Int, X: expr.MulE(g(x, y), expr.C(100))},
		// Data-dependent gather: a gather instruction over a value index row.
		g(x, expr.Cast{To: expr.Int, X: expr.MulE(g(x, y), expr.C(30))}),
		// Reg-reg forms (no literal operand anywhere).
		expr.DivE(g(x, y), expr.AddE(g(x, expr.AddE(y, expr.C(1))), expr.C(2))),
		expr.Binary{Op: expr.Mod, L: expr.MulE(g(x, y), expr.C(7)), R: expr.AddE(g(x, expr.AddE(y, expr.C(1))), expr.C(1.5))},
		expr.Binary{Op: expr.FDiv, L: expr.MulE(g(x, y), expr.C(9)), R: expr.AddE(g(x, expr.AddE(y, expr.C(1))), expr.C(1))},
		// Constant-left forms (ISub, IDiv, flipped compares).
		expr.SubE(expr.C(1), g(x, y)),
		expr.DivE(expr.C(1), expr.AddE(g(x, y), expr.C(2))),
		expr.Select{
			Cond: expr.Cmp{Op: expr.LT, L: expr.C(0.5), R: g(x, y)},
			Then: g(x, y),
			Else: expr.C(0),
		},
		// Clamp pattern, both operand orders of the outer Min.
		expr.MinE(expr.MaxE(g(x, y), expr.C(0.2)), expr.C(0.8)),
		expr.MinE(expr.C(0.8), expr.MaxE(g(x, y), expr.C(0.2))),
		// Compound conditions.
		expr.Select{
			Cond: expr.And{
				A: expr.Cmp{Op: expr.GE, L: g(x, y), R: expr.C(0.25)},
				B: expr.Not{A: expr.Cmp{Op: expr.EQ, L: y, R: expr.C(7)}},
			},
			Then: expr.MulE(g(x, y), expr.C(2)),
			Else: expr.Select{
				Cond: expr.Or{
					A: expr.Cmp{Op: expr.NE, L: g(x, y), R: g(x, expr.AddE(y, expr.C(1)))},
					B: expr.BoolConst{V: true},
				},
				Then: expr.C(3),
				Else: expr.C(4),
			},
		},
		// axpy: literal weight times a non-load expression, plus another row.
		expr.AddE(expr.MulE(expr.C(0.3), expr.Unary{Op: expr.Sqrt, X: expr.Unary{Op: expr.Abs, X: g(x, y)}}), g(x, expr.AddE(y, expr.C(1)))),
		// General FMA shape: product of two non-literal rows plus a third.
		expr.AddE(expr.MulE(g(x, y), g(x, expr.AddE(y, expr.C(1)))), g(x, expr.AddE(y, expr.C(2)))),
		// mulAdd fused from a*b + a names the same value in two operand
		// slots (a == m, with b between them); the allocator must free its
		// register once. The trailing sqrt terms create register pressure
		// so a double-free would hand the live mulAdd register to a later
		// value and silently corrupt the result.
		func() expr.Expr {
			a := g(x, y)
			b := g(x, expr.AddE(y, expr.C(1)))
			ma := expr.AddE(expr.MulE(a, b), a)
			press := expr.AddE(
				expr.Unary{Op: expr.Sqrt, X: expr.Unary{Op: expr.Abs, X: g(x, expr.AddE(y, expr.C(2)))}},
				expr.Unary{Op: expr.Sqrt, X: expr.Unary{Op: expr.Abs, X: g(x, expr.AddE(y, expr.C(3)))}},
			)
			return expr.AddE(ma, press)
		}(),
		// Degenerate shared operand: a*a + a puts one value in all three slots.
		func() expr.Expr {
			a := g(x, y)
			return expr.AddE(expr.AddE(expr.MulE(a, a), a), expr.Unary{Op: expr.Sqrt, X: expr.Unary{Op: expr.Abs, X: g(x, expr.AddE(y, expr.C(1)))}})
		}(),
		// Shared subtree (DAG): value numbering must evaluate it once.
		func() expr.Expr {
			sh := expr.Unary{Op: expr.Sqrt, X: expr.AddE(expr.Unary{Op: expr.Abs, X: g(x, y)}, expr.C(1))}
			return expr.AddE(expr.MulE(sh, expr.C(2)), sh)
		}(),
		// Select over a BoolConst condition folds to the taken branch.
		expr.Select{Cond: expr.BoolConst{V: false}, Then: expr.C(1), Else: g(x, y)},
		// Floor and float division of the same operands print alike but are
		// different values: value numbering must keep them apart.
		func() expr.Expr {
			c := expr.Cast{To: expr.Int, X: expr.MulE(g(x, y), expr.C(100))}
			return expr.SubE(expr.Binary{Op: expr.FDiv, L: c, R: expr.C(7)}, expr.DivE(c, expr.C(7)))
		}(),
	}
	for _, e := range cases {
		vmHarness(t, e, bufs, []int64{3, 2}, 30)
	}

	// Weighted sums of (products of) strided and floor-divided reads: the
	// pyramid reduce/expand and Harris shapes. Each shape appears once with
	// weighted mass <= 4 (the float32 instruction set, checked by vmHarness
	// next to the float64 one) and once above the gate (float64 only).
	wide := NewBuffer(affine.Box{{Lo: 0, Hi: 19}, {Lo: 0, Hi: 79}})
	FillPattern(wide, 4)
	bufs["h"] = wide
	h := func(a, b expr.Expr) expr.Expr {
		return expr.Access{Target: "h", Args: []expr.Expr{a, b}}
	}
	// reduce: scale · Σ w_i·w_j · h(2x+i, 2y+j), the 3x3 binomial of pyramid's
	// down stage.
	reduce := func(scale float64) expr.Expr {
		w := []float64{1, 2, 1}
		var terms []expr.Expr
		for i := -1; i <= 1; i++ {
			for j := -1; j <= 1; j++ {
				terms = append(terms, expr.MulE(expr.C(scale*w[i+1]*w[j+1]),
					h(expr.AddE(expr.MulE(expr.C(2), x), expr.C(float64(i))),
						expr.AddE(expr.MulE(expr.C(2), y), expr.C(float64(j))))))
			}
		}
		return expr.Sum(terms...)
	}
	half := func(v expr.Expr, d float64) expr.Expr {
		return expr.AddE(expr.Binary{Op: expr.FDiv, L: expr.AddE(v, expr.C(2)), R: expr.C(2)}, expr.C(d))
	}
	// expand with constant weights: Σ w · g((x+2)/2+dx, (y+2)/2+dy).
	expand := func(scale float64) expr.Expr {
		var terms []expr.Expr
		for dx := 0.0; dx <= 1; dx++ {
			for dy := 0.0; dy <= 1; dy++ {
				terms = append(terms, expr.MulE(expr.C(scale*0.25), g(half(x, dx), half(y, dy))))
			}
		}
		return expr.Sum(terms...)
	}
	// expandParity is pyramid's up stage as written: bilinear weights from
	// the parity of the loop variables (iota rows keep it on float64).
	py := expr.SubE(expr.AddE(y, expr.C(2)), expr.MulE(expr.C(2), half(y, 0)))
	expandParity := expr.AddE(
		expr.MulE(expr.SubE(expr.C(1), expr.MulE(expr.C(0.5), py)), g(half(x, 0), half(y, 0))),
		expr.MulE(expr.MulE(expr.C(0.5), py), g(half(x, 0), half(y, 1))))
	// products: scale · Σ g·h over shifted taps (Harris' Sxy after inlining).
	products := func(scale float64) expr.Expr {
		var terms []expr.Expr
		for j := -1.0; j <= 1; j++ {
			terms = append(terms, expr.MulE(expr.C(scale), expr.MulE(g(x, expr.AddE(y, expr.C(j))), h(x, expr.AddE(y, expr.C(j))))))
		}
		return expr.Sum(terms...)
	}
	for _, c := range []struct {
		name string
		e    expr.Expr
		f32  bool
	}{
		{"reduce", reduce(1.0 / 16), true},
		{"reduce-unnormalized", reduce(1), false},
		{"expand", expand(1), true},
		{"expand-unnormalized", expand(8), false},
		{"expand-parity", expandParity, false},
		{"products", products(1), true},
		{"products-unnormalized", products(2), false},
	} {
		if vm := vmHarness(t, c.e, bufs, []int64{3, 2}, 30); (vm.set == setF32) != c.f32 {
			t.Errorf("%s: float32 instruction set = %v, want %v", c.name, vm.set == setF32, c.f32)
		}
	}
}

// TestRowVMFusion checks the peephole pass on the canonical stencil shape:
// a 9-term weighted sum of shifted unit loads must compile to one
// loadMul + eight madLoad superinstructions running in a single register.
func TestRowVMFusion(t *testing.T) {
	src := NewBuffer(affine.Box{{Lo: 0, Hi: 19}, {Lo: 0, Hi: 39}})
	FillPattern(src, 5)
	x := expr.VarRef{Dim: 0, Name: "x"}
	y := expr.VarRef{Dim: 1, Name: "y"}
	var e expr.Expr
	w := []float64{1, 2, 1, 2, 4, 2, 1, 2, 1}
	k := 0
	for dx := -1; dx <= 1; dx++ {
		for dy := -1; dy <= 1; dy++ {
			tap := expr.MulE(expr.C(w[k]/16), expr.Access{Target: "g", Args: []expr.Expr{
				expr.AddE(x, expr.C(float64(dx))), expr.AddE(y, expr.C(float64(dy))),
			}})
			if e == nil {
				e = tap
			} else {
				e = expr.AddE(e, tap)
			}
			k++
		}
	}
	vm := vmHarness(t, e, map[string]*Buffer{"g": src}, []int64{3, 2}, 30)
	if len(vm.instrs) != 9 {
		t.Fatalf("9-tap sum compiled to %d instructions, want 9 (one per tap)", len(vm.instrs))
	}
	if vm.nRegs != 1 {
		t.Fatalf("9-tap sum uses %d registers, want 1", vm.nRegs)
	}
	if vm.fused != 9 {
		t.Fatalf("fused = %d, want 9", vm.fused)
	}
	var loadMul, madLoad int
	for _, in := range vm.instrs {
		switch in.op {
		case rLoadMulI:
			loadMul++
		case rMadLoad:
			madLoad++
		}
	}
	if loadMul != 1 || madLoad != 8 {
		t.Fatalf("got %d loadMul + %d madLoad, want 1 + 8", loadMul, madLoad)
	}
	if vm.set != setF32 {
		t.Fatal("normalized 9-tap sum should qualify for the float32 instruction set")
	}
}

// TestRowVMRegisterAllocation verifies the liveness allocator: a balanced
// 16-leaf multiply tree (31 SSA values, no fusion opportunities) must run
// in at most 6 live rows, not one row per node.
func TestRowVMRegisterAllocation(t *testing.T) {
	src := NewBuffer(affine.Box{{Lo: 0, Hi: 19}, {Lo: 0, Hi: 39}})
	FillPattern(src, 7)
	x := expr.VarRef{Dim: 0, Name: "x"}
	y := expr.VarRef{Dim: 1, Name: "y"}
	var build func(lo, hi int) expr.Expr
	build = func(lo, hi int) expr.Expr {
		if lo == hi {
			return expr.Access{Target: "g", Args: []expr.Expr{
				x, expr.AddE(y, expr.C(float64(lo))),
			}}
		}
		mid := (lo + hi) / 2
		return expr.MulE(build(lo, mid), build(mid+1, hi))
	}
	e := build(0, 15)
	vm := vmHarness(t, e, map[string]*Buffer{"g": src}, []int64{3, 2}, 16)
	if len(vm.instrs) != 31 {
		t.Fatalf("16-leaf tree compiled to %d instructions, want 31", len(vm.instrs))
	}
	if vm.nRegs > 6 {
		t.Fatalf("16-leaf balanced tree uses %d registers, want <= 6", vm.nRegs)
	}
	if vm.nRegs < 2 {
		t.Fatalf("register count %d implausibly low for a product tree", vm.nRegs)
	}
}

// TestRowVMFallback pins the forms that once fell back to per-element
// evaluation: a data-dependent gather and a diagonal access are each one
// gather instruction whose index rows are shared VM values.
func TestRowVMFallback(t *testing.T) {
	src := NewBuffer(affine.Box{{Lo: 0, Hi: 19}, {Lo: 0, Hi: 39}})
	FillPattern(src, 9)
	bufs := map[string]*Buffer{"g": src}
	x := expr.VarRef{Dim: 0, Name: "x"}
	y := expr.VarRef{Dim: 1, Name: "y"}
	g := func(a, b expr.Expr) expr.Expr {
		return expr.Access{Target: "g", Args: []expr.Expr{a, b}}
	}
	count := func(vm *rowVM, op rop) int {
		n := 0
		for _, in := range vm.instrs {
			if in.op == op {
				n++
			}
		}
		return n
	}
	idx := expr.Cast{To: expr.Int, X: expr.MulE(g(x, y), expr.C(30))}
	// Two taps through one data-dependent index: the index row is computed
	// once, each tap is one gather.
	e := expr.AddE(expr.MulE(g(x, idx), expr.C(0.5)), g(expr.AddE(x, expr.C(1)), idx))
	vm := vmHarness(t, e, bufs, []int64{3, 2}, 30)
	if count(vm, rGather) != 2 || count(vm, rCast) != 1 {
		t.Fatalf("two-tap gather: %d gathers, %d casts; want 2, 1", count(vm, rGather), count(vm, rCast))
	}
	if vm.set != setF64 {
		t.Fatal("a program with a gather must stay on the float64 instruction set")
	}
	// A diagonal access g(y/4, y) varies two producer dims along the row:
	// two affine index rows feed one gather.
	diag := vmHarness(t, g(expr.Binary{Op: expr.FDiv, L: y, R: expr.C(4)}, y), bufs, []int64{3, 2}, 18)
	if count(diag, rGather) != 1 || count(diag, rIdx) != 2 {
		t.Fatalf("diagonal access: %d gathers, %d index rows; want 1, 2", count(diag, rGather), count(diag, rIdx))
	}
	// Negative and non-unit coefficients step the divided index exactly.
	vmHarness(t, g(expr.Binary{Op: expr.FDiv, L: expr.SubE(expr.C(57), expr.MulE(expr.C(3), y)), R: expr.C(4)},
		expr.Binary{Op: expr.FDiv, L: expr.MulE(expr.C(5), y), R: expr.C(3)}), bufs, []int64{3, 0}, 8)
}

// TestRowVMDebugLoads: under Debug every affine load checks its indices
// once per row against the region of the buffer it is bound to — both ends
// of the varying index and each row-invariant one — so a read one element
// past a buffer narrower than it panics with the region check's message
// instead of landing in a neighbouring row. Every load form is bound here
// to a 10×10 buffer its row reads past in the named dimension.
func TestRowVMDebugLoads(t *testing.T) {
	src := NewBuffer(affine.Box{{Lo: 0, Hi: 9}, {Lo: 0, Hi: 9}})
	FillPattern(src, 4)
	x := expr.VarRef{Dim: 0, Name: "x"}
	y := expr.VarRef{Dim: 1, Name: "y"}
	g := func(a, b expr.Expr) expr.Expr {
		return expr.Access{Target: "g", Args: []expr.Expr{a, b}}
	}
	half := func(e expr.Expr) expr.Expr { return expr.Binary{Op: expr.FDiv, L: e, R: expr.C(2)} }
	cases := []struct {
		name string
		e    expr.Expr
		dim  int
		op   rop
	}{
		{"unit", g(x, expr.AddE(y, expr.C(1))), 1, rLoadU},
		{"strided", g(x, expr.MulE(expr.C(2), y)), 1, rLoadS},
		{"divided", g(x, half(expr.AddE(y, expr.C(12)))), 1, rLoadDiv},
		{"broadcast", g(expr.AddE(x, expr.C(7)), expr.C(3)), 0, rLoadB},
		{"taps", expr.AddE(expr.MulE(expr.C(0.5), g(x, expr.SubE(y, expr.C(1)))), expr.MulE(expr.C(0.5), g(x, y))), 1, rMadLoad},
		{"in-region", g(x, y), -1, rLoadU},
	}
	for _, c := range cases {
		cp := &compiler{slots: map[string]int{"g": 0}, params: map[string]int64{}, debug: true}
		vm, err := cp.compileRowVM(c.e, 1, setF64)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.ContainsFunc(vm.instrs, func(in rinstr) bool { return in.op == c.op }) {
			t.Fatalf("%s: no opcode %d in %v", c.name, c.op, vm.instrs)
		}
		rc := &RowCtx{pt: []int64{3, 0}, bufs: []*Buffer{src}, last: 1, n: 10}
		msg := func() (msg string) {
			defer func() {
				if r := recover(); r != nil {
					msg = fmt.Sprint(r)
				}
			}()
			evalRow[float64](vm, rc)
			return ""
		}()
		want := fmt.Sprintf("engine: out-of-region read of g dim %d at ", c.dim)
		if c.dim < 0 {
			want = ""
		}
		if !strings.HasPrefix(msg, want) || (want == "") != (msg == "") {
			t.Errorf("%s: got %q, want the region check's %q", c.name, msg, want)
		}
	}
}

// TestRowVMCoversIR pins why the row VM needs no per-element escape hatch:
// the expression IR is sealed (expr's unexported isExpr/isCond), and every
// Expr kind, BinOp, UnOp, CmpOp, Cond kind and cast Type lowers to row
// instructions. Each form compiles with no error and matches the reference
// evaluator over a row on float64 registers and, where the gates admit it,
// on float32 (a float32 buffer) and int64 (a uint8 buffer).
func TestRowVMCoversIR(t *testing.T) {
	box := affine.Box{{Lo: 0, Hi: 19}, {Lo: 0, Hi: 39}}
	f32, u8 := NewBuffer(box), NewBufferElem(box, ElemU8)
	FillPattern(f32, 5)
	FillPattern(u8, 5)
	x := expr.VarRef{Dim: 0, Name: "x"}
	y := expr.VarRef{Dim: 1, Name: "y"}
	a := expr.Access{Target: "g", Args: []expr.Expr{x, y}}
	b := expr.AddE(expr.Access{Target: "g", Args: []expr.Expr{x, expr.AddE(y, expr.C(1))}}, expr.C(1))
	lt := expr.Cmp{Op: expr.LT, L: a, R: b}
	sel := func(c expr.Cond) expr.Expr { return expr.Select{Cond: c, Then: a, Else: b} }
	cases := []expr.Expr{
		expr.C(2.5), expr.ParamRef{Name: "P"}, x, y, a,
		sel(expr.And{A: lt, B: expr.Cmp{Op: expr.GT, L: a, R: expr.C(0.5)}}),
		sel(expr.Or{A: lt, B: expr.Cmp{Op: expr.EQ, L: a, R: expr.C(0)}}),
		sel(expr.Not{A: lt}),
		sel(expr.And{A: expr.BoolConst{V: true}, B: lt}),
		sel(expr.BoolConst{V: false}),
	}
	for op := expr.Add; op <= expr.FDiv; op++ {
		cases = append(cases, expr.Binary{Op: op, L: a, R: b})
	}
	for op := expr.Neg; op <= expr.Ceil; op++ {
		cases = append(cases, expr.Unary{Op: op, X: a})
	}
	for op := expr.LT; op <= expr.NE; op++ {
		cases = append(cases, sel(expr.Cmp{Op: op, L: a, R: b}))
	}
	for to := expr.Float; to <= expr.Short; to++ {
		cases = append(cases, expr.Cast{To: to, X: expr.SubE(expr.MulE(a, expr.C(300)), expr.C(100))})
	}
	sets := map[vmSet]int{}
	for _, e := range cases {
		for _, buf := range []*Buffer{f32, u8} {
			sets[vmHarness(t, e, map[string]*Buffer{"g": buf}, []int64{3, 2}, 30).set]++
		}
	}
	if sets[setF32] == 0 || sets[setInt] == 0 {
		t.Errorf("programs per register type %v: the float32 and int64 sets must each be reached", sets)
	}
}

// TestRowVMFloat32Gate pins the eligibility analysis for the float32
// instruction set.
func TestRowVMFloat32Gate(t *testing.T) {
	src := NewBuffer(affine.Box{{Lo: 0, Hi: 19}, {Lo: 0, Hi: 39}})
	FillPattern(src, 3)
	bufs := map[string]*Buffer{"g": src}
	x := expr.VarRef{Dim: 0, Name: "x"}
	y := expr.VarRef{Dim: 1, Name: "y"}
	g := func(dy float64) expr.Expr {
		return expr.Access{Target: "g", Args: []expr.Expr{x, expr.AddE(y, expr.C(dy))}}
	}
	// Normalized blend, clamped: mass 1, fully in the f32 subset.
	in := expr.MinE(expr.MaxE(expr.AddE(expr.MulE(expr.C(0.25), g(0)), expr.MulE(expr.C(0.75), g(1))), expr.C(0)), expr.C(1))
	if vm := vmHarness(t, in, bufs, []int64{3, 2}, 30); vm.set != setF32 {
		t.Fatal("normalized clamped blend should qualify for float32")
	}
	// Unnormalized 9x sum: mass 9 exceeds the gate.
	big := expr.AddE(expr.MulE(expr.C(4.5), g(0)), expr.MulE(expr.C(4.5), g(1)))
	if vm := vmHarness(t, big, bufs, []int64{3, 2}, 30); vm.set == setF32 {
		t.Fatal("mass-9 sum must keep float64 accumulation")
	}
	// Transcendentals and loop-variable rows stay in float64.
	if vm := vmHarness(t, expr.Unary{Op: expr.Exp, X: g(0)}, bufs, []int64{3, 2}, 30); vm.set == setF32 {
		t.Fatal("exp must disqualify the float32 path")
	}
	if vm := vmHarness(t, expr.AddE(y, g(0)), bufs, []int64{3, 2}, 30); vm.set == setF32 {
		t.Fatal("iota rows must disqualify the float32 path")
	}
	// Integer-semantics cast disqualifies; cast to Float is the identity.
	if vm := vmHarness(t, expr.Cast{To: expr.Int, X: g(0)}, bufs, []int64{3, 2}, 30); vm.set == setF32 {
		t.Fatal("int cast must disqualify the float32 path")
	}
	if vm := vmHarness(t, expr.Cast{To: expr.Float, X: expr.MulE(expr.C(0.5), g(0))}, bufs, []int64{3, 2}, 30); vm.set != setF32 {
		t.Fatal("float cast is the identity in float32 registers and should qualify")
	}
}

// TestVMIntMatchesFloat64 runs uint8-buffer programs through vmHarness, which
// requires the integer instruction set to equal the float64 one exactly, and
// checks that together they reach every opcode vmIntOK accepts: floor
// division and modulo on negative numerators, clamps, saturating casts,
// masks and selects, every load form and the fused forms.
func TestVMIntMatchesFloat64(t *testing.T) {
	box := affine.Box{{Lo: 0, Hi: 19}, {Lo: 0, Hi: 79}}
	I, J := NewBufferElem(box, ElemU8), NewBufferElem(box, ElemU8)
	FillPattern(I, 3)
	FillPattern(J, 8)
	bufs := map[string]*Buffer{"I": I, "J": J}
	x := expr.VarRef{Dim: 0, Name: "x"}
	y := expr.VarRef{Dim: 1, Name: "y"}
	at := func(name string, a, b expr.Expr) expr.Expr {
		return expr.Access{Target: name, Args: []expr.Expr{a, b}}
	}
	i, j := at("I", x, y), at("J", x, y)
	fdiv := func(l, r expr.Expr) expr.Expr { return expr.Binary{Op: expr.FDiv, L: l, R: r} }
	mod := func(l, r expr.Expr) expr.Expr { return expr.Binary{Op: expr.Mod, L: l, R: r} }
	neg := expr.SubE(i, expr.C(200)) // numerators in [-200, 55]
	big := expr.MulE(expr.MulE(expr.MulE(i, i), expr.MulE(i, i)), expr.SubE(j, expr.C(128)))
	cases := []expr.Expr{
		fdiv(neg, expr.C(8)),
		fdiv(neg, expr.C(3)),
		mod(neg, expr.C(7)),
		fdiv(neg, expr.AddE(j, expr.C(1))),
		mod(neg, expr.AddE(j, expr.C(1))),
		expr.MinE(expr.MaxE(expr.SubE(expr.MulE(expr.C(3), i), expr.C(300)), expr.C(0)), expr.C(255)),
		expr.Cast{To: expr.Char, X: expr.SubE(expr.MulE(i, expr.C(300)), expr.C(40000))},
		expr.Cast{To: expr.UChar, X: expr.SubE(expr.MulE(i, expr.C(3)), expr.C(200))},
		expr.Cast{To: expr.Short, X: expr.SubE(expr.MulE(i, expr.C(300)), expr.C(40000))},
		expr.Cast{To: expr.Int, X: big},
		expr.Cast{To: expr.UInt, X: big},
		expr.Select{
			Cond: expr.And{
				A: expr.Cmp{Op: expr.GT, L: i, R: j},
				B: expr.Not{A: expr.Cmp{Op: expr.LE, L: i, R: expr.C(100)}},
			},
			Then: i,
			Else: expr.Select{
				Cond: expr.Or{A: expr.Cmp{Op: expr.EQ, L: j, R: expr.C(3)}, B: expr.BoolConst{V: true}},
				Then: expr.SubE(j, i),
				Else: expr.C(7),
			},
		},
		expr.Select{Cond: expr.Cmp{Op: expr.NE, L: expr.C(9), R: i}, Then: expr.C(7), Else: j},
		expr.AddE(expr.AddE(at("I", x, expr.MulE(expr.C(2), y)), at("J", x, fdiv(y, expr.C(2)))), at("I", x, expr.C(5))),
		expr.AddE(expr.AddE(expr.MulE(expr.C(3), at("I", x, expr.SubE(y, expr.C(1)))), expr.MulE(expr.C(2), i)),
			expr.MulE(expr.C(5), at("I", x, expr.AddE(y, expr.C(1))))),
		expr.AddE(expr.MulE(i, j), fdiv(i, expr.C(2))),
		expr.AddE(expr.MulE(expr.C(3), expr.Unary{Op: expr.Abs, X: neg}), j),
		expr.AddE(expr.MulE(x, y), expr.SubE(expr.C(10), i)),
		expr.AddE(expr.MinE(i, j), expr.MaxE(expr.MinE(i, expr.C(100)), expr.MaxE(j, expr.C(50)))),
		expr.SubE(expr.Unary{Op: expr.Neg, X: expr.Unary{Op: expr.Floor, X: i}}, expr.Unary{Op: expr.Ceil, X: j}),
		expr.AddE(i, expr.MulE(j, j)),
		expr.MulE(expr.SubE(i, j), expr.C(-3)),
	}
	reached := map[rop]bool{}
	for _, e := range cases {
		vm := vmHarness(t, e, bufs, []int64{3, 2}, 30)
		if vm.set != setInt {
			t.Fatalf("%v: not in the integer instruction set", e)
		}
		for _, in := range vm.instrs {
			reached[in.op] = true
		}
	}
	for op := rNop; op <= bNot; op++ {
		if vmIntOK([]vmValue{{op: op, a: -1, b: -1, m: -1, imm: 1, imm2: 1}}) && !reached[op] {
			t.Errorf("opcode %d is in the integer instruction set but no case reaches it", op)
		}
	}
}

// TestRowVMEndToEnd compiles a small two-stage pipeline, compares the VM's
// output with the reference interpreter's, with and without Fast, and
// checks that the lowering decisions are visible in Program.Stats().
func TestRowVMEndToEnd(t *testing.T) {
	bl := dsl.NewBuilder()
	R, C := bl.Param("R"), bl.Param("C")
	I := bl.Image("I", expr.Float, R.Affine().AddConst(2), C.Affine().AddConst(2))
	x, y := bl.Var("x"), bl.Var("y")
	dom := []dsl.Interval{
		dsl.Span(affine.Const(0), R.Affine().AddConst(1)),
		dsl.Span(affine.Const(0), C.Affine().AddConst(1)),
	}
	inner := dsl.InBox([]*dsl.Variable{x, y}, []any{1, 1}, []any{dsl.Add(R, 0), dsl.Add(C, 0)})
	// u: a normalized 3-tap stencil under sqrt/abs.
	u := bl.Func("u", expr.Float, []*dsl.Variable{x, y}, dom)
	u.Define(dsl.Case{Cond: inner, E: dsl.Sqrt(dsl.Abs(dsl.Add(
		dsl.Mul(0.25, I.At(x, dsl.Sub(y, 1))),
		dsl.Add(dsl.Mul(0.5, I.At(x, y)), dsl.Mul(0.25, I.At(x, dsl.Add(y, 1)))))))})
	// out: select-heavy stage over u.
	out := bl.Func("out", expr.Float, []*dsl.Variable{x, y}, dom)
	out.Define(dsl.Case{E: dsl.Sel(dsl.Cond(u.At(x, y), ">", 0.5),
		dsl.Min(dsl.Mul(u.At(x, y), 2.0), 1.5),
		dsl.Max(dsl.Sub(1.0, u.At(x, y)), 0.0))})
	gph, err := pipeline.Build(bl, "out")
	if err != nil {
		t.Fatal(err)
	}
	params := map[string]int64{"R": 96, "C": 96}
	in, err := buffer.NewForDomain(I.Domain(), params)
	if err != nil {
		t.Fatal(err)
	}
	FillPattern(in, 19)
	inputs := map[string]*Buffer{"I": in}
	gr, err := schedule.BuildGroups(gph, params, schedule.Options{})
	if err != nil {
		t.Fatal(err)
	}
	run := func(fast bool) (*Buffer, *Program) {
		prog, err := Compile(gr, params, ExecOptions{Fast: fast, Threads: 1})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(prog.Close)
		outs, err := prog.Run(inputs)
		if err != nil {
			t.Fatal(err)
		}
		return outs["out"], prog
	}
	ref, err := Reference(gph, params, inputs)
	if err != nil {
		t.Fatal(err)
	}
	refOut := ref["out"]
	vmOut, vmProg := run(true)
	slowOut, _ := run(false)
	for _, got := range []*Buffer{vmOut, slowOut} {
		if len(got.Data) != len(refOut.Data) {
			t.Fatalf("output sizes differ: %d vs %d", len(got.Data), len(refOut.Data))
		}
		for i := range got.Data {
			a, b := float64(got.Data[i]), float64(refOut.Data[i])
			if d := math.Abs(a - b); d > 1e-5+1e-5*math.Abs(b) {
				t.Fatalf("output[%d]: vm %v vs reference %v", i, a, b)
			}
		}
	}
	var vmPieces, vmInstrs int
	for _, sm := range vmProg.Stats().Stages {
		vmPieces += sm.RowVM
		vmInstrs += sm.VMInstrs
		if sm.RowVM > 0 && sm.VMRegs == 0 {
			t.Fatalf("stage %s reports a VM piece with zero registers", sm.Name)
		}
	}
	if vmPieces < 2 || vmInstrs == 0 {
		t.Fatalf("expected >= 2 VM-lowered pieces with instructions, got %d pieces / %d instrs", vmPieces, vmInstrs)
	}
}

// TestRowVMRegisterGauge pins Executor.Snapshot's register-file gauge: after
// one run of a one-stage program on a fresh executor it equals the program's
// register rows × the row length × the element width (4 for float32, 8 for
// float64 and int64, 1 for bool rows), plus 8 per element of the offset row
// a gather or divided load uses. Each register type's program runs once.
func TestRowVMRegisterGauge(t *testing.T) {
	const rows, cols = 12, 40
	for _, c := range []struct {
		name string
		ty   expr.Type
		set  vmSet
		mk   func(I *dsl.Image, x, y *dsl.Variable) expr.Expr
	}{
		{"float32", expr.Float, setF32, func(I *dsl.Image, x, y *dsl.Variable) expr.Expr {
			return dsl.Add(dsl.Mul(0.25, I.At(x, dsl.Sub(y, 1))), dsl.Mul(0.75, I.At(x, y)))
		}},
		// A mask and a data-dependent gather: bool rows and the offset row.
		{"float64", expr.Float, setF64, func(I *dsl.Image, x, y *dsl.Variable) expr.Expr {
			idx := dsl.Cast(expr.Int, dsl.Mul(I.At(x, y), 30))
			return dsl.Sel(dsl.Cond(I.At(x, y), ">", 0.5), I.At(x, idx), dsl.Sub(1.0, I.At(x, y)))
		}},
		{"int64", expr.UChar, setInt, func(I *dsl.Image, x, y *dsl.Variable) expr.Expr {
			return dsl.IDiv(dsl.Add(I.At(x, dsl.Sub(y, 1)), dsl.Mul(2, I.At(x, y))), 4)
		}},
	} {
		bl := dsl.NewBuilder()
		R, C := bl.Param("R"), bl.Param("C")
		I := bl.Image("I", c.ty, R.Affine().AddConst(2), C.Affine().AddConst(2))
		x, y := bl.Var("x"), bl.Var("y")
		f := bl.Func("f", expr.Float, []*dsl.Variable{x, y},
			[]dsl.Interval{dsl.Span(affine.Const(1), R.Affine()), dsl.Span(affine.Const(1), C.Affine())})
		f.Define(dsl.Case{E: c.mk(I, x, y)})
		g, err := pipeline.Build(bl, "f")
		if err != nil {
			t.Fatal(err)
		}
		params := map[string]int64{"R": rows, "C": cols}
		in, err := buffer.NewForDomain(I.Domain(), params)
		if err != nil {
			t.Fatal(err)
		}
		narrow := c.ty == expr.UChar
		if narrow {
			in = ConvertBuffer(in, ElemU8)
		}
		FillPattern(in, 5)
		gr, err := schedule.BuildGroups(g, params, schedule.Options{})
		if err != nil {
			t.Fatal(err)
		}
		prog, err := Compile(gr, params, ExecOptions{Threads: 1, NarrowTypes: narrow})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(prog.Close)
		if _, err := prog.Run(map[string]*Buffer{"I": in}); err != nil {
			t.Fatal(err)
		}
		vm := prog.stages["f"].pieces[0].vm
		if vm.set != c.set {
			t.Fatalf("%s: program runs on set %d, want %d", c.name, vm.set, c.set)
		}
		width := map[vmSet]int64{setF32: 4, setF64: 8, setInt: 8}[vm.set]
		want := int64(vm.nRegs)*cols*width + int64(vm.nBool)*cols
		for _, in := range vm.instrs {
			if in.op == rGather || in.op == rLoadDiv {
				want += cols * 8
				break
			}
		}
		if c.set == setF64 && (vm.nBool == 0 || len(vm.gathers) == 0) {
			t.Fatalf("%s: %d bool registers, %d gathers; the case needs both", c.name, vm.nBool, len(vm.gathers))
		}
		if got := prog.Executor().Snapshot().TempPools.VMRegBytes; got != want {
			t.Errorf("%s: VMRegBytes = %d, want %d (%d registers, %d bool)", c.name, got, want, vm.nRegs, vm.nBool)
		}
	}
}
