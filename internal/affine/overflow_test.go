package affine

import "testing"

// TestRangeOverOverflowSaturates pins the saturating behavior of the
// guarded index arithmetic: coefficient/bound products beyond ±2^62 clamp
// to the unbounded sentinel instead of wrapping int64. Before the guard,
// Coeff·varRange.Lo+off could wrap and return an inverted or tiny range —
// silently under-allocating the producer region.
func TestRangeOverOverflowSaturates(t *testing.T) {
	big := int64(1) << 40
	a := varAccess(0, big, Const(0), 1)
	// big·big = 2^80 wraps int64; the guard saturates both ends to ±2^62.
	r, err := rangeOver(a, Range{Lo: -big, Hi: big}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r.Lo != -rangeSat || r.Hi != rangeSat {
		t.Errorf("overflowing RangeOver = %v, want saturated [-2^62, 2^62]", r)
	}
	if r.Lo > r.Hi {
		t.Errorf("saturated range inverted: %v", r)
	}
	// A huge negative coefficient saturates with the correct orientation.
	neg := varAccess(0, -big, Const(0), 1)
	r, err = rangeOver(neg, Range{Lo: 1, Hi: big}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r.Lo != -rangeSat || r.Hi != -big {
		t.Errorf("negative-coeff RangeOver = %v, want [-2^62, %d]", r, -big)
	}
	// Exactly at the boundary: products of magnitude 2^62 pass through
	// unclamped.
	edge := varAccess(0, 1<<31, Const(0), 1)
	r, err = rangeOver(edge, Range{Lo: 0, Hi: 1 << 31}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r.Hi != rangeSat {
		t.Errorf("boundary product = %v, want Hi exactly 2^62", r)
	}
	// One past the boundary saturates rather than exceeding the sentinel.
	over := varAccess(0, 1<<31, Const(1), 1)
	r, err = rangeOver(over, Range{Lo: 0, Hi: 1 << 31}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r.Hi != rangeSat {
		t.Errorf("past-boundary product = %v, want Hi clamped to 2^62", r)
	}
	// Ordinary accesses are untouched by the guards.
	small := varAccess(0, 2, Const(-1), 1)
	r, _ = rangeOver(small, Range{Lo: 3, Hi: 5}, nil)
	if r.Lo != 5 || r.Hi != 9 {
		t.Errorf("small RangeOver = %v, want [5, 9]", r)
	}
}

// TestInverseRangeOverflowSaturates covers the dual guard: target·Div at
// the unbounded sentinel would wrap when multiplied, flipping the derived
// consumer bounds.
func TestInverseRangeOverflowSaturates(t *testing.T) {
	a := varAccess(0, 1, Const(0), 4)
	// The unbounded sentinel itself as a target: 2^62·4 wraps int64
	// without the guard.
	r, ok, err := a.InverseRange(Range{Lo: -rangeSat, Hi: rangeSat}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("InverseRange reported empty for an unbounded target")
	}
	if r.Lo != -rangeSat || r.Hi != rangeSat {
		t.Errorf("unbounded-target InverseRange = %v, want saturated sentinel range", r)
	}
	if r.Empty() {
		t.Errorf("saturated inverse range reads as empty: %v", r)
	}
	// Negative coefficient with a saturating target keeps orientation.
	neg := varAccess(0, -2, Const(0), 1)
	r, ok, err = neg.InverseRange(Range{Lo: 0, Hi: rangeSat}, nil)
	if err != nil || !ok {
		t.Fatalf("InverseRange err=%v ok=%v", err, ok)
	}
	if r.Empty() {
		t.Errorf("negative-coeff saturated inverse empty: %v", r)
	}
	// Ordinary targets still invert exactly.
	up := varAccess(0, 1, Const(1), 2) // (x+1)/2
	r, ok, _ = up.InverseRange(Range{Lo: 2, Hi: 3}, nil)
	if !ok || r.Lo != 3 || r.Hi != 6 {
		t.Errorf("exact InverseRange = %v ok=%v, want [3, 6]", r, ok)
	}
}

// TestSatArith64 exercises the helpers at their exact boundaries.
func TestSatArith64(t *testing.T) {
	cases := []struct{ a, b, mul, add int64 }{
		{0, 1 << 62, 0, rangeSat},
		{1, rangeSat, rangeSat, rangeSat}, // 1+2^62 > 2^62 clamps
		{-1, rangeSat, -rangeSat, rangeSat - 1},
		{rangeSat, rangeSat, rangeSat, rangeSat},
		{-rangeSat, rangeSat, -rangeSat, 0},
		{-rangeSat, -rangeSat, rangeSat, -rangeSat},
		{1 << 31, 1 << 31, rangeSat, 1 << 32},
		{1 << 32, 1 << 31, rangeSat, (1 << 32) + (1 << 31)},
		{3, 5, 15, 8},
		{-3, 5, -15, 2},
	}
	for _, c := range cases {
		if got := satMul64(c.a, c.b); got != c.mul {
			t.Errorf("satMul64(%d, %d) = %d, want %d", c.a, c.b, got, c.mul)
		}
		if got := satAdd64(c.a, c.b); got != c.add {
			t.Errorf("satAdd64(%d, %d) = %d, want %d", c.a, c.b, got, c.add)
		}
	}
}
