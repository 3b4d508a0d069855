package expr

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// TestNumbering pins the cases String conflates or that value numbering
// must treat by value: Div vs FDiv, a VarRef by dimension not name, and
// constants by bits.
func TestNumbering(t *testing.T) {
	nb := NewNumbering()
	x := VarRef{Dim: 0, Name: "x"}
	a := Access{Target: "g", Args: []Expr{x, VarRef{Dim: 1, Name: "y"}}}
	div, fdiv := DivE(a, C(7)), Binary{Op: FDiv, L: a, R: C(7)}
	if div.String() != fdiv.String() {
		t.Fatalf("String tells %s and %s apart; this test pins the case it does not", div, fdiv)
	}
	if nb.Expr(div) == nb.Expr(fdiv) {
		t.Error("Div and FDiv of the same operands share a number")
	}
	if nb.Expr(x) != nb.Expr(VarRef{Dim: 0, Name: "i"}) {
		t.Error("one dimension under two names got two numbers")
	}
	if nb.Expr(x) == nb.Expr(VarRef{Dim: 1, Name: "x"}) {
		t.Error("two dimensions under one name share a number")
	}
	if nb.Expr(C(0)) == nb.Expr(C(math.Copysign(0, -1))) {
		t.Error("0 and -0 share a number")
	}
	if nb.Expr(Access{Target: "g", Args: []Expr{x}}) == nb.Expr(Access{Target: "g", Args: []Expr{x, x}}) {
		t.Error("accesses of different arity share a number")
	}

	// Operands come back in the documented order, and Uses counts
	// occurrences the way Walk visits them.
	nb = NewNumbering()
	sel := Select{Cond: Cmp{Op: LT, L: a, R: C(1)}, Then: AddE(a, a), Else: C(1)}
	s := nb.Expr(sel)
	c := nb.Operand(s, 0)
	if nb.Operand(c, 0) != nb.Operand(nb.Operand(s, 1), 1) || nb.Operand(nb.Operand(s, 1), 0) != nb.Operand(c, 0) {
		t.Error("the three occurrences of the access have different numbers")
	}
	if nb.Operand(s, 2) != nb.Operand(c, 1) {
		t.Error("the two occurrences of 1 have different numbers")
	}
	if got := nb.Uses(nb.Operand(c, 0)); got != 3 {
		t.Errorf("access used %d times, want 3", got)
	}
	if nb.Operand(nb.Operand(c, 0), 1) != nb.Expr(VarRef{Dim: 1}) {
		t.Error("access operand 1 is not its second argument")
	}
}

// TestNumberingIsStructuralEquality checks, over random expression pairs,
// that two trees get one number exactly when they are equal field by field
// once variable names are dropped.
func TestNumberingIsStructuralEquality(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var gen func(depth int) Expr
	gen = func(depth int) Expr {
		k := rng.Intn(8)
		if depth == 0 {
			k %= 3
		}
		switch k {
		case 0:
			return C(float64(rng.Intn(3)))
		case 1:
			return VarRef{Dim: rng.Intn(2), Name: []string{"x", "y", "i"}[rng.Intn(3)]}
		case 2:
			return ParamRef{Name: []string{"N", "M"}[rng.Intn(2)]}
		case 3:
			args := make([]Expr, 1+rng.Intn(2))
			for i := range args {
				args[i] = gen(depth - 1)
			}
			return Access{Target: []string{"f", "g"}[rng.Intn(2)], Args: args}
		case 4:
			return Binary{Op: []BinOp{Add, Div, FDiv}[rng.Intn(3)], L: gen(depth - 1), R: gen(depth - 1)}
		case 5:
			return Unary{Op: []UnOp{Neg, Abs}[rng.Intn(2)], X: gen(depth - 1)}
		case 6:
			return Cast{To: []Type{Int, Float}[rng.Intn(2)], X: gen(depth - 1)}
		}
		var c Cond = Cmp{Op: []CmpOp{LT, GE}[rng.Intn(2)], L: gen(depth - 1), R: gen(depth - 1)}
		switch rng.Intn(4) {
		case 0:
			c = Not{A: c}
		case 1:
			c = And{A: c, B: BoolConst{V: rng.Intn(2) == 0}}
		case 2:
			c = Or{A: BoolConst{V: rng.Intn(2) == 0}, B: c}
		}
		return Select{Cond: c, Then: gen(depth - 1), Else: gen(depth - 1)}
	}
	unnamed := func(e Expr) Expr {
		return Transform(e, func(x Expr) Expr {
			if v, ok := x.(VarRef); ok {
				return VarRef{Dim: v.Dim}
			}
			return nil
		})
	}
	nb := NewNumbering()
	equal := 0
	for i := 0; i < 20000; i++ {
		a, b := gen(2), gen(2)
		same := reflect.DeepEqual(unnamed(a), unnamed(b))
		if same {
			equal++
		}
		if (nb.Expr(a) == nb.Expr(b)) != same {
			t.Fatalf("numbers equal = %v, trees equal = %v:\n  %s\n  %s", !same, same, a, b)
		}
	}
	if equal == 0 {
		t.Fatal("no equal pair drawn: the test only checks one direction")
	}
}
