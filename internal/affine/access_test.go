package affine

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// varAccess builds the access (coeff·x_v + off)/div.
func varAccess(v int, coeff int64, off Expr, div int64) Access {
	return Access{Var: v, Coeff: coeff, Off: off, Div: div}
}

// rangeOver evaluates a's offset under params and returns the range of
// indices it produces as its variable sweeps varRange.
func rangeOver(a Access, varRange Range, params map[string]int64) (Range, error) {
	off, err := a.Off.Eval(params)
	if err != nil {
		return Range{}, err
	}
	return a.RangeAt(off, varRange), nil
}

func TestAccessForms(t *testing.T) {
	up := varAccess(0, 1, Const(1), 2)    // (x+1)/2
	down := varAccess(0, 2, Const(-1), 1) // 2x-1
	if got := down.At([]int64{5}, nil); got != 9 {
		t.Errorf("down.At(5) = %d, want 9", got)
	}
	if got := up.At([]int64{5}, nil); got != 3 {
		t.Errorf("up.At(5) = %d, want 3", got)
	}
	c := Access{Var: -1, Off: Param("K"), Div: 1}
	if got := c.At(nil, map[string]int64{"K": 7}); got != 7 {
		t.Errorf("const access = %d", got)
	}
}

func TestAccessRangeOver(t *testing.T) {
	up := varAccess(0, 1, Const(1), 2)
	r, err := rangeOver(up, Range{Lo: 0, Hi: 9}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r != (Range{Lo: 0, Hi: 5}) {
		t.Errorf("up range = %v", r)
	}
	down := varAccess(0, 2, Const(1), 1)
	r, _ = rangeOver(down, Range{Lo: 0, Hi: 9}, nil)
	if r != (Range{Lo: 1, Hi: 19}) {
		t.Errorf("down range = %v", r)
	}
	neg := varAccess(0, -1, Const(10), 1) // 10 - x
	r, _ = rangeOver(neg, Range{Lo: 0, Hi: 4}, nil)
	if r != (Range{Lo: 6, Hi: 10}) {
		t.Errorf("neg range = %v", r)
	}
	// Empty variable range yields empty result.
	r, _ = rangeOver(up, Range{Lo: 5, Hi: 4}, nil)
	if !r.Empty() {
		t.Errorf("expected empty, got %v", r)
	}
}

// Property: RangeAt soundly and tightly bounds pointwise evaluation.
func TestAccessRangeSound(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	f := func() bool {
		a := varAccess(0, r.Int63n(9)-4, Const(r.Int63n(21)-10), r.Int63n(4)+1)
		lo := r.Int63n(41) - 20
		vr := Range{Lo: lo, Hi: lo + r.Int63n(30)}
		got, err := rangeOver(a, vr, nil)
		if err != nil {
			return false
		}
		seenLo, seenHi := int64(1<<62), int64(-1<<62)
		for x := vr.Lo; x <= vr.Hi; x++ {
			v := a.At([]int64{x}, nil)
			if !got.Contains(v) {
				return false // soundness
			}
			if v < seenLo {
				seenLo = v
			}
			if v > seenHi {
				seenHi = v
			}
		}
		// Tightness: endpoints are achieved (monotone quasi-affine form).
		return got.Lo == seenLo && got.Hi == seenHi
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestRational(t *testing.T) {
	r := NewRational(4, 8)
	if r.Num != 1 || r.Den != 2 {
		t.Errorf("4/8 = %v", r)
	}
	if got := NewRational(-3, -6); got.Num != 1 || got.Den != 2 {
		t.Errorf("-3/-6 = %v", got)
	}
	if got := NewRational(3, -6); got.Num != -1 || got.Den != 2 {
		t.Errorf("3/-6 = %v", got)
	}
	if got := NewRational(1, 2).Mul(NewRational(2, 3)); !got.Equal(NewRational(1, 3)) {
		t.Errorf("1/2 * 2/3 = %v", got)
	}
	if NewRational(3, 2).ScaleFloor(5) != 7 {
		t.Error("ScaleFloor wrong")
	}
	if !One.Equal(NewRational(7, 7)) {
		t.Error("One wrong")
	}
}

// Property: InverseRange is the exact inverse image of the access.
func TestAccessInverseRange(t *testing.T) {
	r := rand.New(rand.NewSource(4242))
	for trial := 0; trial < 400; trial++ {
		coeff := r.Int63n(9) - 4
		if coeff == 0 {
			coeff = 1
		}
		a := varAccess(0, coeff, Const(r.Int63n(21)-10), r.Int63n(3)+1)
		lo := r.Int63n(41) - 20
		target := Range{Lo: lo, Hi: lo + r.Int63n(20)}
		inv, _, err := a.InverseRange(target, nil)
		if err != nil {
			t.Fatal(err)
		}
		for x := int64(-60); x <= 60; x++ {
			in := target.Contains(a.At([]int64{x}, nil))
			if in != inv.Contains(x) {
				t.Fatalf("trial %d: access %v target %v: x=%d inImage=%v inInverse=%v (inv=%v)",
					trial, a, target, x, in, inv.Contains(x), inv)
			}
		}
	}
	// Var-free accesses.
	c := Access{Var: -1, Off: Const(5), Div: 1}
	if _, ok, _ := c.InverseRange(Range{Lo: 0, Hi: 10}, nil); !ok {
		t.Error("constant 5 is inside [0,10]")
	}
	if _, ok, _ := c.InverseRange(Range{Lo: 6, Hi: 10}, nil); ok {
		t.Error("constant 5 is outside [6,10]")
	}
	// Empty target.
	inv, _, _ := varAccess(0, 1, Const(0), 1).InverseRange(Range{Lo: 1, Hi: 0}, nil)
	if !inv.Empty() {
		t.Error("empty target must give empty inverse")
	}
}
