package expr

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func env(pt []int64, params map[string]int64, lookup func(string, []int64) float64) *Env {
	if lookup == nil {
		lookup = func(string, []int64) float64 { return 0 }
	}
	return &Env{Point: pt, Params: params, Lookup: lookup}
}

func TestEvalArithmetic(t *testing.T) {
	x := VarRef{Dim: 0, Name: "x"}
	e := AddE(MulE(C(2), x), C(3)) // 2x + 3
	if got := Eval(e, env([]int64{5}, nil, nil)); got != 13 {
		t.Errorf("2x+3 at x=5 = %v", got)
	}
	if got := Eval(MinE(C(3), C(7)), env(nil, nil, nil)); got != 3 {
		t.Errorf("min = %v", got)
	}
	if got := Eval(Binary{Op: FDiv, L: C(-7), R: C(2)}, env(nil, nil, nil)); got != -4 {
		t.Errorf("fdiv(-7,2) = %v, want -4", got)
	}
	if got := Eval(Unary{Op: Abs, X: C(-2.5)}, env(nil, nil, nil)); got != 2.5 {
		t.Errorf("abs = %v", got)
	}
	if got := Eval(Cast{To: UChar, X: C(300)}, env(nil, nil, nil)); got != 255 {
		t.Errorf("cast uchar 300 = %v, want saturated 255", got)
	}
}

func TestEvalAccessAndParams(t *testing.T) {
	x := VarRef{Dim: 0, Name: "x"}
	e := AddE(Access{Target: "g", Args: []Expr{SubE(x, C(1))}}, ParamRef{Name: "R"})
	lookup := func(target string, idx []int64) float64 {
		if target != "g" || len(idx) != 1 {
			t.Fatalf("bad access %s %v", target, idx)
		}
		return float64(idx[0] * 10)
	}
	got := Eval(e, env([]int64{4}, map[string]int64{"R": 7}, lookup))
	if got != 37 {
		t.Errorf("g(x-1)+R = %v, want 37", got)
	}
}

func TestEvalSelect(t *testing.T) {
	x := VarRef{Dim: 0, Name: "x"}
	e := Select{
		Cond: Cmp{Op: GE, L: x, R: C(0)},
		Then: x,
		Else: Unary{Op: Neg, X: x},
	}
	if got := Eval(e, env([]int64{-5}, nil, nil)); got != 5 {
		t.Errorf("select = %v", got)
	}
	and := And{A: Cmp{Op: GE, L: x, R: C(0)}, B: Cmp{Op: LE, L: x, R: C(10)}}
	if !EvalCond(and, env([]int64{5}, nil, nil)) || EvalCond(and, env([]int64{11}, nil, nil)) {
		t.Error("And evaluation wrong")
	}
	or := Or{A: Cmp{Op: LT, L: x, R: C(0)}, B: Cmp{Op: GT, L: x, R: C(10)}}
	if EvalCond(or, env([]int64{5}, nil, nil)) || !EvalCond(Not{A: or}, env([]int64{5}, nil, nil)) {
		t.Error("Or/Not evaluation wrong")
	}
}

func TestSubstVars(t *testing.T) {
	x := VarRef{Dim: 0}
	y := VarRef{Dim: 1}
	e := AddE(Access{Target: "g", Args: []Expr{x, y}}, x)
	sub := SubstVars(e, []Expr{AddE(x, C(1)), SubE(y, C(2))})
	want := "(g((x0 + 1), (x1 - 2)) + (x0 + 1))"
	if got := sub.String(); got != want {
		t.Errorf("SubstVars = %q, want %q", got, want)
	}
}

func TestSizeAndAccesses(t *testing.T) {
	x := VarRef{Dim: 0}
	e := AddE(Access{Target: "g", Args: []Expr{x}}, Access{Target: "h", Args: []Expr{C(0)}})
	if Size(e) != 5 {
		t.Errorf("Size = %d, want 5", Size(e))
	}
	var acc []string
	Walk(e, func(x Expr) bool {
		if a, ok := x.(Access); ok {
			acc = append(acc, a.Target)
		}
		return true
	})
	if len(acc) != 2 || acc[0] != "g" || acc[1] != "h" {
		t.Errorf("accesses in visit order = %v", acc)
	}
}

func TestToAffineAccess(t *testing.T) {
	x := VarRef{Dim: 0}
	y := VarRef{Dim: 1}
	cases := []struct {
		e     Expr
		want  string
		valid bool
	}{
		{x, "x0", true},
		{AddE(x, C(1)), "x0 + 1", true},
		{SubE(MulE(C(2), x), C(1)), "2*x0 - 1", true},
		{Binary{Op: FDiv, L: AddE(x, C(1)), R: C(2)}, "(x0 + 1)/2", true},
		{Binary{Op: FDiv, L: Binary{Op: FDiv, L: x, R: C(2)}, R: C(2)}, "(x0)/4", true},
		{AddE(Binary{Op: FDiv, L: x, R: C(2)}, C(1)), "(x0 + 2)/2", true},
		{AddE(x, y), "", false},
		{AddE(x, ParamRef{Name: "R"}), "x0 + R", true},
		{Access{Target: "g", Args: []Expr{x}}, "", false},
		{MulE(x, x), "", false},
		{C(3), "3", true},
		{SubE(C(0), x), "-1*x0", true},
		{SubE(AddE(x, y), y), "x0", true},
		{SubE(MulE(C(2), x), x), "x0", true},
	}
	for _, c := range cases {
		a, ok := ToAffineAccess(c.e)
		if ok != c.valid {
			t.Errorf("ToAffineAccess(%v) ok = %v, want %v", c.e, ok, c.valid)
			continue
		}
		if ok && a.String() != c.want {
			t.Errorf("ToAffineAccess(%v) = %q, want %q", c.e, a.String(), c.want)
		}
	}
}

// Property: when ToAffineAccess succeeds, the access agrees with Eval at
// random points.
func TestToAffineAccessAgreesWithEval(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	x := VarRef{Dim: 0}
	builders := []func() Expr{
		func() Expr { return AddE(x, C(float64(r.Intn(9)-4))) },
		func() Expr { return SubE(MulE(C(float64(r.Intn(3)+1)), x), C(float64(r.Intn(5)))) },
		func() Expr {
			return Binary{Op: FDiv, L: AddE(x, C(float64(r.Intn(5)-2))), R: C(float64(r.Intn(3) + 1))}
		},
		func() Expr { return AddE(Binary{Op: FDiv, L: x, R: C(2)}, C(float64(r.Intn(5)-2))) },
	}
	f := func() bool {
		e := builders[r.Intn(len(builders))]()
		a, ok := ToAffineAccess(e)
		if !ok {
			return true
		}
		for trial := 0; trial < 20; trial++ {
			pt := []int64{r.Int63n(200) - 100}
			want := int64(Eval(e, env(pt, nil, nil)))
			// Eval truncates via float math.Floor for FDiv so matches floor.
			if got := a.At(pt, nil); got != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestCondToBox(t *testing.T) {
	x := VarRef{Dim: 0}
	y := VarRef{Dim: 1}
	R := ParamRef{Name: "R"}
	c := And{
		A: And{A: Cmp{Op: GE, L: x, R: C(1)}, B: Cmp{Op: LE, L: x, R: R}},
		B: And{A: Cmp{Op: GE, L: y, R: C(2)}, B: Cmp{Op: LT, L: y, R: C(100)}},
	}
	lower, upper, ok := CondToBox(c, 2)
	if !ok {
		t.Fatal("CondToBox failed")
	}
	if lower[0] == nil || lower[0].String() != "1" {
		t.Errorf("lower[0] = %v", lower[0])
	}
	if upper[0] == nil || upper[0].String() != "R" {
		t.Errorf("upper[0] = %v", upper[0])
	}
	if lower[1] == nil || lower[1].String() != "2" {
		t.Errorf("lower[1] = %v", lower[1])
	}
	if upper[1] == nil || upper[1].String() != "99" {
		t.Errorf("upper[1] = %v", upper[1])
	}
	// Disjunctions are not boxes.
	if _, _, ok := CondToBox(Or{A: Cmp{Op: GE, L: x, R: C(1)}, B: Cmp{Op: LE, L: x, R: C(0)}}, 2); ok {
		t.Error("Or should not convert to a box")
	}
	// Multi-variable comparisons are not boxes.
	if _, _, ok := CondToBox(Cmp{Op: LE, L: x, R: y}, 2); ok {
		t.Error("x <= y should not convert to a box")
	}
	// Equality pins both bounds.
	lower, upper, ok = CondToBox(Cmp{Op: EQ, L: x, R: C(5)}, 1)
	if !ok || lower[0].String() != "5" || upper[0].String() != "5" {
		t.Errorf("EQ box = %v %v %v", lower, upper, ok)
	}
	// Tightening constant bounds keeps the tighter one.
	both := And{A: Cmp{Op: GE, L: x, R: C(1)}, B: Cmp{Op: GE, L: x, R: C(3)}}
	lower, _, ok = CondToBox(both, 1)
	if !ok || lower[0].String() != "3" {
		t.Errorf("tightened lower = %v, ok=%v", lower[0], ok)
	}
}

func TestSimplify(t *testing.T) {
	x := VarRef{Dim: 0, Name: "x"}
	cases := []struct {
		in   Expr
		want string
	}{
		{AddE(C(2), C(3)), "5"},
		{MulE(x, C(1)), "x"},
		{MulE(x, C(0)), "0"},
		{AddE(x, C(0)), "x"},
		{SubE(x, C(0)), "x"},
		{Unary{Op: Neg, X: Unary{Op: Neg, X: x}}, "x"},
		{Select{Cond: BoolConst{V: true}, Then: x, Else: C(0)}, "x"},
		{Select{Cond: Cmp{Op: LT, L: C(1), R: C(2)}, Then: x, Else: C(0)}, "x"},
		{Cast{To: Int, X: C(2.7)}, "2"},
		{DivE(x, C(1)), "x"},
	}
	for _, c := range cases {
		if got := Simplify(c.in).String(); got != c.want {
			t.Errorf("Simplify(%v) = %q, want %q", c.in, got, c.want)
		}
	}
}

// TestFoldParams: bound parameters and constant subtrees fold in float64,
// unbound parameters stay, index arguments are not touched, and — unlike
// Simplify — no algebraic identity rewrites the operation sequence.
func TestFoldParams(t *testing.T) {
	x := VarRef{Dim: 0, Name: "x"}
	k, u := ParamRef{Name: "K"}, ParamRef{Name: "U"}
	cases := []struct {
		in   Expr
		want string
	}{
		{MulE(DivE(k, C(2)), x), "(2.5 * x)"},
		{AddE(x, SubE(k, k)), "(x + 0)"},
		{MulE(C(1), x), "(1 * x)"},
		{AddE(k, u), "(5 + U)"},
		{Access{Target: "f", Args: []Expr{AddE(x, DivE(k, C(2)))}}, "f((x + (K / 2)))"},
		{Select{Cond: Cmp{Op: LT, L: x, R: MulE(k, C(2))}, Then: Cast{To: Int, X: DivE(k, C(2))}, Else: Unary{Op: Neg, X: k}}, "(x < 10 ? 2 : -5)"},
	}
	for _, c := range cases {
		if got := FoldParams(c.in, map[string]int64{"K": 5}).String(); got != c.want {
			t.Errorf("FoldParams(%v) = %q, want %q", c.in, got, c.want)
		}
	}
}

// Property: Simplify preserves evaluation semantics.
func TestSimplifyPreservesEval(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	var gen func(depth int) Expr
	x := VarRef{Dim: 0, Name: "x"}
	gen = func(depth int) Expr {
		if depth <= 0 || r.Intn(3) == 0 {
			switch r.Intn(3) {
			case 0:
				return C(float64(r.Intn(11) - 5))
			case 1:
				return x
			default:
				return C(1)
			}
		}
		switch r.Intn(6) {
		case 0:
			return AddE(gen(depth-1), gen(depth-1))
		case 1:
			return SubE(gen(depth-1), gen(depth-1))
		case 2:
			return MulE(gen(depth-1), gen(depth-1))
		case 3:
			return Unary{Op: Neg, X: gen(depth - 1)}
		case 4:
			return MinE(gen(depth-1), gen(depth-1))
		default:
			return Select{
				Cond: Cmp{Op: LE, L: gen(depth - 1), R: gen(depth - 1)},
				Then: gen(depth - 1),
				Else: gen(depth - 1),
			}
		}
	}
	f := func() bool {
		e := gen(4)
		s := Simplify(e)
		for trial := 0; trial < 5; trial++ {
			pt := []int64{r.Int63n(21) - 10}
			a := Eval(e, env(pt, nil, nil))
			b := Eval(s, env(pt, nil, nil))
			if a != b && !(math.IsNaN(a) && math.IsNaN(b)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestCondToBoxPartial(t *testing.T) {
	x := VarRef{Dim: 0, Name: "t"}
	y := VarRef{Dim: 1, Name: "x"}
	inner := And{A: Cmp{Op: GE, L: y, R: C(1)}, B: Cmp{Op: LE, L: y, R: C(10)}}
	// t > 0 && !inner: full conversion fails, but t's bound survives.
	c := And{A: Cmp{Op: GT, L: x, R: C(0)}, B: Not{A: inner}}
	if _, _, ok := CondToBox(c, 2); ok {
		t.Fatal("full conversion should fail on the negation")
	}
	lower, upper := CondToBoxPartial(c, 2)
	if lower[0] == nil || lower[0].String() != "1" {
		t.Errorf("partial lower[0] = %v, want 1", lower[0])
	}
	if upper[0] != nil || lower[1] != nil || upper[1] != nil {
		t.Errorf("unexpected extra bounds: %v %v %v", upper[0], lower[1], upper[1])
	}
	// Disjunctions contribute nothing (sound: the region may span both).
	d := Or{A: Cmp{Op: GE, L: x, R: C(5)}, B: Cmp{Op: LE, L: x, R: C(1)}}
	lower, upper = CondToBoxPartial(d, 2)
	if lower[0] != nil || upper[0] != nil {
		t.Error("Or must not constrain dimensions")
	}
}
