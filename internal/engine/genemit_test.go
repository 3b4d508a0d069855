package engine

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"repro/internal/expr"
)

// genUnitOf lowers a hand-built canonical expression over reads b0, b1, …
// of the given element types into a unit, asking for register type want as
// lowering does for a piece.
func genUnitOf(t *testing.T, e expr.Expr, rank int, want vmSet, out Elem, elems ...Elem) GenUnit {
	t.Helper()
	cp := &compiler{slots: map[string]int{}}
	for i := range elems {
		cp.slots[fmt.Sprintf("b%d", i)] = i
	}
	vb, res, vm := lowerTest(t, cp, e, rank-1, want)
	return GenUnit{Key: fmt.Sprintf("%064x", 1), Rank: rank, Expr: e, Out: out, Elems: elems, Reads: make([]string, len(elems)),
		prog: vb, res: res, set: vm.set}
}

// TestGenPrintsEveryOpcode: for every row-VM opcode but rNop, a
// one-opcode expression lowers to that opcode, and under every register
// type whose gate admits the program EmitGo prints it. An opcode added to
// the VM fails here until it has an expression below and a printer case.
func TestGenPrintsEveryOpcode(t *testing.T) {
	x0, x1 := expr.VarRef{Dim: 0}, expr.VarRef{Dim: 1}
	ld := func(i int) expr.Expr { return expr.Access{Target: fmt.Sprintf("b%d", i), Args: []expr.Expr{x0, x1}} }
	at := func(args ...expr.Expr) expr.Expr { return expr.Access{Target: "b0", Args: args} }
	c := func(v float64) expr.Expr { return expr.Const{V: v} }
	bin := func(op expr.BinOp, l, r expr.Expr) expr.Expr { return expr.Binary{Op: op, L: l, R: r} }
	un := func(op expr.UnOp) expr.Expr { return expr.Unary{Op: op, X: ld(0)} }
	sel := func(cond expr.Cond) expr.Expr { return expr.Select{Cond: cond, Then: ld(0), Else: ld(1)} }
	lt := expr.Cmp{Op: expr.LT, L: ld(0), R: ld(1)}
	neg := expr.Unary{Op: expr.Neg, X: ld(0)}
	cases := map[rop]expr.Expr{
		rConst: c(3), rIota: x1, rVarB: x0,
		rLoadU: ld(0), rLoadS: at(x0, bin(expr.Mul, c(2), x1)), rLoadDiv: at(x0, bin(expr.FDiv, x1, c(2))), rLoadB: at(x0, c(1)),
		rIdx: at(x1, x1), rGather: at(x0, expr.Cast{To: expr.Int, X: ld(1)}),
		rLoadMulI: bin(expr.Mul, c(3), ld(0)), rMadLoad: bin(expr.Add, ld(1), bin(expr.Mul, c(3), ld(0))),
		rAdd: bin(expr.Add, ld(0), ld(1)), rSub: bin(expr.Sub, ld(0), ld(1)), rMul: bin(expr.Mul, ld(0), ld(1)),
		rDiv: bin(expr.Div, ld(0), ld(1)), rMod: bin(expr.Mod, ld(0), ld(1)), rMin: bin(expr.Min, ld(0), ld(1)),
		rMax: bin(expr.Max, ld(0), ld(1)), rPow: bin(expr.Pow, ld(0), ld(1)), rFDiv: bin(expr.FDiv, ld(0), ld(1)),
		rAddI: bin(expr.Add, ld(0), c(3)), rISub: bin(expr.Sub, c(3), ld(0)), rMulI: bin(expr.Mul, neg, c(3)),
		rDivI: bin(expr.Div, ld(0), c(4)), rIDiv: bin(expr.Div, c(4), ld(0)), rMinI: bin(expr.Min, ld(0), c(3)),
		rMaxI: bin(expr.Max, ld(0), c(3)), rPowI: bin(expr.Pow, ld(0), c(2)), rModI: bin(expr.Mod, ld(0), c(3)),
		rFDivI: bin(expr.FDiv, ld(0), c(3)), rNeg: un(expr.Neg), rAbs: un(expr.Abs), rSqrt: un(expr.Sqrt),
		rExp: un(expr.Exp), rLog: un(expr.Log), rSin: un(expr.Sin), rCos: un(expr.Cos), rFloor: un(expr.Floor), rCeil: un(expr.Ceil),
		rMulAdd: bin(expr.Add, bin(expr.Mul, ld(0), ld(1)), ld(2)), rAxpy: bin(expr.Add, bin(expr.Mul, c(3), neg), ld(1)),
		rClampI: bin(expr.Min, bin(expr.Max, ld(0), c(0)), c(5)), rCast: expr.Cast{To: expr.Float, X: ld(0)},
		rSelect: sel(lt), bConst: sel(expr.And{A: expr.BoolConst{V: true}, B: lt}), bCmp: sel(lt),
		bCmpI: sel(expr.Cmp{Op: expr.GE, L: ld(0), R: c(3)}), bAnd: sel(expr.And{A: lt, B: lt}),
		bOr: sel(expr.Or{A: lt, B: lt}), bNot: sel(expr.Not{A: lt}),
	}
	for op := rConst; op <= bNot; op++ {
		e, ok := cases[op]
		if !ok {
			t.Errorf("opcode %d: no expression lowers to it here", op)
			continue
		}
		for _, set := range []vmSet{setF64, setF32, setInt} {
			out := ElemF32
			if set == setInt {
				out = ElemI32
			}
			u := genUnitOf(t, e, 2, set, out, ElemF32, ElemF32, ElemF32)
			if u.set != set {
				continue // the gate does not admit the program
			}
			if !slices.ContainsFunc(u.prog.vals, func(v vmValue) bool { return v.op == op }) {
				t.Errorf("%s does not lower to opcode %d", e, op)
			}
			if _, err := EmitGo("gen", []GenUnit{u}); err != nil {
				t.Errorf("opcode %d on %s registers: %v", op, set, err)
			}
		}
	}
}

// TestGenGoTypedBodies pins what the printer renders for hand-built units:
// the int64 body's operations (floor division is an arithmetic shift or
// floorDiv, never Go's truncating `/`), its clamp on store per output type,
// the typed row slices of both bodies, and the float64 body's saturating
// stores, and every float product or division by a constant rounded by a
// conversion (no FMA), none on int64. What the rendered kernels compute is
// held to the interpreted tiers by difftest's TestGenIntBodyTable.
func TestGenGoTypedBodies(t *testing.T) {
	x := expr.VarRef{Dim: 0}
	b := func(i int) expr.Expr { return expr.Access{Target: fmt.Sprintf("b%d", i), Args: []expr.Expr{x}} }
	c := func(v float64) expr.Expr { return expr.Const{V: v} }
	bin := func(op expr.BinOp, l, r expr.Expr) expr.Expr { return expr.Binary{Op: op, L: l, R: r} }
	u8, u16, i32, f32 := ElemU8, ElemU16, ElemI32, ElemF32
	cases := []struct {
		name  string
		set   vmSet
		e     expr.Expr
		out   Elem
		elems []Elem
		want  []string
	}{
		{"shift", setInt, bin(expr.FDiv, bin(expr.Sub, b(0), c(200)), c(8)), i32, []Elem{u8},
			[]string{"r0 := b0.U8[q0:][:n]", "orow := out.I32[oq:][:n]", "v0 := int64(r0[i]) + (-200)", "v1 := v0 >> 3",
				"orow[i] = int32(min(max(v1, -2147483648), 2147483647))"}},
		{"floordiv", setInt, bin(expr.FDiv, b(0), c(7)), u8, []Elem{i32},
			[]string{"r0 := b0.I32[q0:][:n]", "v0 := floorDiv(int64(r0[i]), 7)", "orow[i] = uint8(min(max(v0, 0), 255))", "func floorDiv(a, b int64) int64"}},
		{"floordiv-by-row", setInt, bin(expr.FDiv, b(0), b(1)), u16, []Elem{u16, u8},
			[]string{"v0 := floorDiv(int64(r0[i]), int64(r1[i]))", "orow[i] = uint16(min(max(v0, 0), 65535))"}},
		{"div-by-one", setInt, bin(expr.FDiv, b(0), c(1)), u8, []Elem{u8},
			[]string{"orow[i] = uint8(min(max(int64(r0[i]), 0), 255))"}},
		{"mod-neg-abs", setInt, expr.Unary{Op: expr.Abs, X: expr.Unary{Op: expr.Neg, X: bin(expr.Mod, b(0), c(7))}}, i32, []Elem{i32},
			[]string{"v0 := int64(r0[i]) % 7", "v1 := -v0", "v2 := max(v1, -v1)"}},
		{"select", setInt, expr.Select{Cond: expr.Cmp{Op: expr.GT, L: b(0), R: c(128)}, Then: bin(expr.Min, b(0), c(200)), Else: bin(expr.Max, x, c(-3))}, i32, []Elem{u8},
			[]string{"t0 := int64(r0[i]) > 128", "v0 := min(int64(r0[i]), 200)", "v1 := max(xl, (-3))", "v2 := v1", "if t0 {"}},
		{"casts", setInt, expr.Cast{To: expr.UInt, X: expr.Cast{To: expr.Short, X: expr.Cast{To: expr.Char, X: expr.Cast{To: expr.Float, X: b(0)}}}}, i32, []Elem{i32},
			[]string{"v0 := min(max(int64(r0[i]), -128), 127)", "v1 := min(max(v0, -32768), 32767)", "v2 := min(max(v1, 0), 4294967295)"}},
		{"int-over-float32-slot", setInt, bin(expr.Mul, b(0), c(3)), u16, []Elem{f32},
			[]string{"r0 := b0.Data[q0:][:n]", "v0 := 3 * int64(r0[i])", "orow := out.U16[oq:][:n]"}},
		{"float64-over-narrow", setF64, bin(expr.Add, bin(expr.Mul, c(0.5), b(0)), b(1)), f32, []Elem{u8, u16},
			[]string{"r0 := b1.U16[q0 : q0+int64(n)]", "r1 := b0.U8[q1 : q1+int64(n)]", "v0 := float64(r0[i]) + float64(0.5*float64(r1[i]))", "orow := out.Data[oq : oq+int64(n)]", "orow[i] = float32(v0)"}},
		{"float64-narrow-store", setF64, bin(expr.Mul, c(0.5), b(0)), u16, []Elem{f32},
			[]string{"orow := out.U16[oq : oq+int64(n)]", "v0 := float64(0.5 * float64(r0[i]))", "orow[i] = numeric.SatU16(v0)", `"repro/internal/numeric"`}},
		// Floor and float division of the same operands are two values, not
		// one value-numbered local.
		{"floordiv-beside-div", setF64, bin(expr.Sub, bin(expr.FDiv, b(0), c(7)), bin(expr.Div, b(0), c(7))), f32, []Elem{f32},
			[]string{"v0 := math.Floor(float64(r0[i]) / 7)", "v1 := float64(float64(r0[i]) / 7)", "v2 := v0 - v1"}},
	}
	for _, tc := range cases {
		u := genUnitOf(t, tc.e, 1, tc.set, tc.out, tc.elems...)
		if u.set != tc.set {
			t.Errorf("%s: lowered to %s registers, want %s", tc.name, u.set, tc.set)
			continue
		}
		src, err := EmitGo("gen", []GenUnit{u})
		if err != nil {
			t.Errorf("%s: %v", tc.name, err)
			continue
		}
		for _, w := range tc.want {
			if !bytes.Contains(src, []byte(w)) {
				t.Errorf("%s: emitted kernel lacks %q:\n%s", tc.name, w, src)
			}
		}
		if tc.set == setInt && bytes.Contains(src, []byte("float64(")) {
			t.Errorf("%s: int64 body converts to float64:\n%s", tc.name, src)
		}
	}
}

// TestGenPhasePlan pins when a kernel's inner loop runs as phase loops and
// how many: every read varying along the row a divided innermost index, D
// the least common multiple of d/gcd(c, d), at most maxPhases, and no
// phase-header value computed from one of the inner loop's. What the phase
// kernels compute is held to the interpreted tiers by difftest's
// TestGenPhaseLoops.
func TestGenPhasePlan(t *testing.T) {
	x0, x1 := expr.VarRef{Dim: 0}, expr.VarRef{Dim: 1}
	c := func(v float64) expr.Expr { return expr.Const{V: v} }
	div := func(e expr.Expr, d float64) expr.Expr { return expr.Binary{Op: expr.FDiv, L: e, R: c(d)} }
	at := func(a, b expr.Expr) expr.Expr { return expr.Access{Target: "b0", Args: []expr.Expr{a, b}} }
	v := expr.AddE(x1, c(1))
	cases := []struct {
		name   string
		e      expr.Expr
		phases int
		want   []string
	}{
		{"div2", at(x0, div(x1, 2)), 2, []string{"for p := 0; p < 2 && p < n; p++ {", "cnt := (n - p + 1) / 2",
			"j1 := xl >> 1", "r0 := b0.Data[q0:][:cnt]", "o[2*m] = float32(float64(r0[m]))"}},
		{"div3", at(x0, div(x1, 3)), 3, []string{"j1 := floorDiv(xl, 3)"}},
		{"div2-div3", expr.AddE(at(x0, div(expr.AddE(x1, c(1)), 3)), at(x0, div(x1, 2))), 6, []string{"o[6*m] = ", "r0[2*m]", "r1[3*m]"}},
		{"coeff3", at(x0, div(expr.MulE(c(3), x1), 2)), 2, []string{"r0 := b0.Data[q0:][:3*(cnt-1)+1]", "r0[3*m]"}},
		{"coordinate-per-element", expr.MulE(at(x0, div(x1, 2)), x1), 2, []string{"xm := xl + int64(2*m)", "float64(xm)"}},
		{"div3-div4", expr.AddE(at(x0, div(x1, 3)), at(x0, div(x1, 4))), 1, nil},
		{"unit-beside-divided", expr.AddE(at(x0, x1), at(x0, div(x1, 2))), 1, nil},
		{"divided-outer-index", at(div(x1, 2), x0), 1, nil},
		{"gather", at(x0, expr.Cast{To: expr.Int, X: at(x0, div(x1, 2))}), 1, nil},
		{"row-invariant", at(x0, c(3)), 1, nil},
		// x1+1 feeds the phase-invariant residue and a per-element product:
		// the header would read an inner-loop value.
		{"shared-chain", expr.AddE(expr.SubE(v, expr.MulE(c(2), div(v, 2))), expr.MulE(v, at(x0, div(x1, 2)))), 1, nil},
	}
	for _, tc := range cases {
		u := genUnitOf(t, tc.e, 2, setF64, ElemF32, ElemF32)
		if got := u.Phases(); got != tc.phases {
			t.Errorf("%s: %d phases, want %d", tc.name, got, tc.phases)
		}
		src, err := EmitGo("gen", []GenUnit{u})
		if err != nil {
			t.Errorf("%s: %v", tc.name, err)
			continue
		}
		if (tc.phases > 1) != bytes.Contains(src, []byte(" phases) over c.Region")) {
			t.Errorf("%s: doc comment does not say %d phases:\n%s", tc.name, tc.phases, src)
		}
		for _, w := range tc.want {
			if !bytes.Contains(src, []byte(w)) {
				t.Errorf("%s: emitted kernel lacks %q:\n%s", tc.name, w, src)
			}
		}
	}
}
