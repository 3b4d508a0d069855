package expr

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/affine"
)

// mapForm is the linear form kept in a map, the representation linForm
// replaced: the oracle TestLinFormMatchesMapOracle holds linForm to.
type mapForm struct {
	vars map[int]int64
	off  affine.Expr
	div  int64
}

func mapConst(c int64) mapForm { return mapForm{off: affine.Const(c), div: 1} }

func toMapForm(e Expr) (mapForm, bool) {
	switch n := e.(type) {
	case Const:
		if n.V != math.Trunc(n.V) {
			return mapForm{}, false
		}
		return mapConst(int64(n.V)), true
	case ParamRef:
		return mapForm{off: affine.Param(n.Name), div: 1}, true
	case VarRef:
		return mapForm{vars: map[int]int64{n.Dim: 1}, div: 1}, true
	case Unary:
		if n.Op != Neg {
			return mapForm{}, false
		}
		lf, ok := toMapForm(n.X)
		if !ok {
			return mapForm{}, false
		}
		return lf.scale(-1)
	case Cast:
		return toMapForm(n.X)
	case Binary:
		l, lok := toMapForm(n.L)
		r, rok := toMapForm(n.R)
		if !lok || !rok {
			return mapForm{}, false
		}
		switch n.Op {
		case Add:
			return l.add(r)
		case Sub:
			if r, ok := r.scale(-1); ok {
				return l.add(r)
			}
		case Mul:
			if c, ok := l.constVal(); ok {
				return r.scale(c)
			}
			if c, ok := r.constVal(); ok {
				return l.scale(c)
			}
		case Div, FDiv:
			if c, ok := r.constVal(); ok && c > 0 {
				return mapForm{vars: l.vars, off: l.off, div: l.div * c}, true
			}
		}
	}
	return mapForm{}, false
}

func (l mapForm) constVal() (int64, bool) {
	c, ok := l.off.ConstVal()
	if len(l.vars) != 0 || !ok {
		return 0, false
	}
	return affine.FloorDiv(c, l.div), true
}

func (l mapForm) scale(k int64) (mapForm, bool) {
	if l.div != 1 && k != 1 {
		if k == 0 {
			return mapConst(0), true
		}
		return mapForm{}, false
	}
	r := mapForm{vars: map[int]int64{}, off: l.off.Scale(k), div: l.div}
	for v, c := range l.vars {
		if c*k != 0 {
			r.vars[v] = c * k
		}
	}
	return r, true
}

func (l mapForm) add(o mapForm) (mapForm, bool) {
	if l.div != 1 && o.div != 1 {
		return mapForm{}, false
	}
	if o.div != 1 {
		l, o = o, l
	}
	if l.div != 1 && len(o.vars) > 0 {
		return mapForm{}, false
	}
	r := mapForm{vars: map[int]int64{}, off: l.off.Add(o.off.Scale(l.div)), div: l.div}
	for v, c := range l.vars {
		r.vars[v] = c
	}
	for v, c := range o.vars {
		if nc := r.vars[v] + c*l.div; nc != 0 {
			r.vars[v] = nc
		} else {
			delete(r.vars, v)
		}
	}
	return r, true
}

// randIndex builds a random index tree over up to three variables and two
// parameters: sums, differences, negations, casts, products with
// constants (and, rarely, of two variables), nested floor divisions and
// the odd non-integral constant.
func randIndex(r *rand.Rand, depth int) Expr {
	if depth == 0 || r.Intn(4) == 0 {
		switch r.Intn(5) {
		case 0, 1:
			return VarRef{Dim: r.Intn(3)}
		case 2:
			return ParamRef{Name: []string{"R", "C"}[r.Intn(2)]}
		case 3:
			if r.Intn(8) == 0 {
				return C(0.5)
			}
		}
		return C(float64(r.Intn(7) - 3))
	}
	sub := func() Expr { return randIndex(r, depth-1) }
	switch r.Intn(8) {
	case 0:
		return AddE(sub(), sub())
	case 1:
		return SubE(sub(), sub())
	case 2:
		return MulE(C(float64(r.Intn(5)-2)), sub())
	case 3:
		return MulE(sub(), sub())
	case 4:
		return Binary{Op: FDiv, L: sub(), R: C(float64(r.Intn(4)))}
	case 5:
		return Binary{Op: Div, L: sub(), R: sub()}
	case 6:
		return Unary{Op: Neg, X: sub()}
	}
	return Cast{To: Int, X: sub()}
}

// TestLinFormMatchesMapOracle: on random index trees, and on the
// differences cmpToBound forms from two of them, the array-backed linear
// form equals the map-based one term for term, and ToAffineAccess answers
// as the map form does.
func TestLinFormMatchesMapOracle(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	same := func(got linForm, gok bool, want mapForm, wok bool) bool {
		if gok != wok {
			return false
		}
		if !gok {
			return true
		}
		if got.n != len(want.vars) || got.div != want.div || !got.off.Equal(want.off) {
			return false
		}
		for _, tm := range got.terms[:got.n] {
			if want.vars[tm.dim] != tm.coeff {
				return false
			}
		}
		return true
	}
	nAffine := 0
	for i := 0; i < 20000; i++ {
		a, b := randIndex(r, 5), randIndex(r, 5)
		got, gok := toLinForm(a)
		want, wok := toMapForm(a)
		if !same(got, gok, want, wok) {
			t.Fatalf("%v: linForm %+v (%v), map form %+v (%v)", a, got, gok, want, wok)
		}
		acc, ok := ToAffineAccess(a)
		if wantOK := wok && len(want.vars) <= 1; ok != wantOK {
			t.Fatalf("%v: ToAffineAccess ok = %v, map form %+v", a, ok, want)
		} else if ok {
			nAffine++
			wantVar, wantCoeff := -1, int64(0)
			for v, c := range want.vars {
				wantVar, wantCoeff = v, c
			}
			if acc.Var != wantVar || acc.Coeff != wantCoeff || acc.Div != want.div || !acc.Off.Equal(want.off) {
				t.Fatalf("%v: ToAffineAccess = %v, map form %+v", a, acc, want)
			}
		}
		// cmpToBound's left-hand side: a − b.
		bl, bok := toLinForm(b)
		bm, bmok := toMapForm(b)
		if !gok || !bok || got.div != 1 || bl.div != 1 {
			continue
		}
		neg, _ := bl.scale(-1)
		diff, dok := got.add(neg)
		mneg, _ := bm.scale(-1)
		mdiff, mdok := want.add(mneg)
		if !bmok || !same(diff, dok, mdiff, mdok) {
			t.Fatalf("%v − %v: linForm %+v (%v), map form %+v (%v)", a, b, diff, dok, mdiff, mdok)
		}
	}
	if nAffine < 2000 {
		t.Errorf("only %d of the random trees were quasi-affine", nAffine)
	}
}

// TestToAffineAccessAllocs: analysing a parameter-free index allocates
// nothing.
func TestToAffineAccessAllocs(t *testing.T) {
	e := Binary{Op: FDiv, L: AddE(MulE(C(2), VarRef{Dim: 0}), C(3)), R: C(2)}
	if n := testing.AllocsPerRun(100, func() { ToAffineAccess(e) }); n != 0 {
		t.Errorf("ToAffineAccess(%v) allocates %v times, want 0", e, n)
	}
}
