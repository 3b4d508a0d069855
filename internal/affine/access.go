package affine

import "fmt"

// Access describes a one-dimensional quasi-affine access of the form
//
//	floor((Coeff·x + Off) / Div)
//
// where x is a single loop variable of the consumer (identified by Var, an
// index into the consumer's dimensions) and Off is affine in the pipeline
// parameters. Div >= 1. When Var < 0 the access does not use any loop
// variable and its value is just floor(Off/Div) (a constant index such as the
// channel selector in I(0, x, y)).
//
// This form covers every pattern in Table 1 of the paper: point-wise (x+c),
// stencil (x+c), upsampling ((x+c)/2), and downsampling (2x+c).
type Access struct {
	Var   int   // consumer dimension index, or -1 for none
	Coeff int64 // multiplier a; may be negative (e.g. mirrored access)
	Off   Expr  // affine offset b
	Div   int64 // positive divisor d (floor division)
}

// rangeSat is the saturation bound of the guarded index arithmetic below —
// the same magnitude InverseRange already uses as its "unbounded in x"
// sentinel, so a saturated bound is indistinguishable from (and as sound
// as) an explicitly unbounded one: ±2^62 is far outside any addressable
// buffer extent, and downstream consumers (Intersect with real domains,
// Empty checks) treat it as a huge-but-ordinary range.
const rangeSat = int64(1) << 62

// satMul64 multiplies with saturation to ±rangeSat. Coefficient/parameter
// products beyond 2^62 cannot describe a real access; before this guard
// they wrapped silently and could invert a range.
func satMul64(a, b int64) int64 {
	if a == 0 || b == 0 {
		return 0
	}
	p := a * b
	if p/b != a || p > rangeSat || p < -rangeSat {
		if (a > 0) == (b > 0) {
			return rangeSat
		}
		return -rangeSat
	}
	return p
}

// satAdd64 adds with saturation to ±rangeSat. The overflow checks are on
// the saturation bound, not int64: 2^62 + 2^62 would wrap int64, so the
// clamp happens before the add can overflow.
func satAdd64(a, b int64) int64 {
	if a > 0 && b > rangeSat-a {
		return rangeSat
	}
	if a < 0 && b < -rangeSat-a {
		return -rangeSat
	}
	return satClamp64(a + b)
}

func satClamp64(v int64) int64 {
	if v > rangeSat {
		return rangeSat
	}
	if v < -rangeSat {
		return -rangeSat
	}
	return v
}

// FloorDiv returns floor(a/b) for b > 0.
func FloorDiv(a, b int64) int64 {
	q := a / b
	if a%b != 0 && (a < 0) != (b < 0) {
		q--
	}
	return q
}

// CeilDiv returns ceil(a/b) for b > 0.
func CeilDiv(a, b int64) int64 { return -FloorDiv(-a, b) }

// At evaluates the access at a concrete point of the consumer domain.
func (a Access) At(pt []int64, params map[string]int64) int64 {
	v := a.Off.MustEval(params)
	if a.Var >= 0 {
		v += a.Coeff * pt[a.Var]
	}
	return FloorDiv(v, a.Div)
}

// RangeAt returns the exact range of produced indices when the consumer
// variable sweeps varRange, with the offset already evaluated (off = Off
// under the binding). For var-free accesses varRange is ignored. An empty
// varRange yields an empty result for variable accesses.
func (a Access) RangeAt(off int64, varRange Range) Range {
	if a.Var < 0 {
		v := FloorDiv(off, a.Div)
		return Range{Lo: v, Hi: v}
	}
	if varRange.Empty() {
		return Range{Lo: 0, Hi: -1}
	}
	// Guarded arithmetic: a pathological Coeff·bound or parameter product
	// beyond ±2^62 saturates instead of wrapping (a wrapped product can
	// silently invert the range and make a too-small region look in
	// bounds).
	v1 := FloorDiv(satAdd64(satMul64(a.Coeff, varRange.Lo), satClamp64(off)), a.Div)
	v2 := FloorDiv(satAdd64(satMul64(a.Coeff, varRange.Hi), satClamp64(off)), a.Div)
	if v1 <= v2 {
		return Range{Lo: v1, Hi: v2}
	}
	return Range{Lo: v2, Hi: v1}
}

// Rate returns the access's sampling rate Coeff/Div as a rational.
func (a Access) Rate() Rational { return NewRational(a.Coeff, a.Div) }

// InverseRange returns the set of consumer-variable values x for which the
// access floor((Coeff·x + Off)/Div) lands inside target — the exact inverse
// image, used by split tiling to shrink phase-1 regions so a tile only
// reads values its own tile produced. For var-free accesses the second
// result reports whether the constant index lies in target (first result is
// then unbounded-in-x, represented by the full int64 range).
func (a Access) InverseRange(target Range, params map[string]int64) (Range, bool, error) {
	off, err := a.Off.Eval(params)
	if err != nil {
		return Range{}, false, err
	}
	r, ok := a.InverseAt(off, target)
	return r, ok, nil
}

// InverseAt is InverseRange with the offset already evaluated (off = Off
// under the binding), the form a tile plan probes with.
func (a Access) InverseAt(off int64, target Range) (Range, bool) {
	if target.Empty() {
		return Range{Lo: 0, Hi: -1}, false
	}
	if a.Var < 0 {
		v := FloorDiv(off, a.Div)
		if target.Contains(v) {
			return Range{Lo: -1 << 62, Hi: 1 << 62}, true
		}
		return Range{Lo: 0, Hi: -1}, false
	}
	// L <= floor((c·x + b)/d) <= H
	//   <=>  L·d <= c·x + b <= H·d + d - 1
	// Saturating arithmetic: target bounds of ±2^62 (the unbounded
	// sentinel above) times Div would wrap int64 and flip the inequality.
	lo := satAdd64(satMul64(target.Lo, a.Div), -satClamp64(off))
	hi := satAdd64(satAdd64(satMul64(target.Hi, a.Div), a.Div-1), -satClamp64(off))
	switch {
	case a.Coeff > 0:
		return Range{Lo: CeilDiv(lo, a.Coeff), Hi: FloorDiv(hi, a.Coeff)}, true
	case a.Coeff < 0:
		return Range{Lo: CeilDiv(hi, a.Coeff), Hi: FloorDiv(lo, a.Coeff)}, true
	default:
		v := FloorDiv(off, a.Div)
		if target.Contains(v) {
			return Range{Lo: -1 << 62, Hi: 1 << 62}, true
		}
		return Range{Lo: 0, Hi: -1}, false
	}
}

func (a Access) String() string {
	if a.Var < 0 {
		if a.Div == 1 {
			return a.Off.String()
		}
		return fmt.Sprintf("(%s)/%d", a.Off, a.Div)
	}
	inner := fmt.Sprintf("%d*x%d", a.Coeff, a.Var)
	if a.Coeff == 1 {
		inner = fmt.Sprintf("x%d", a.Var)
	}
	if c, ok := a.Off.ConstVal(); !ok {
		inner = fmt.Sprintf("%s + %s", inner, a.Off)
	} else if c > 0 {
		inner = fmt.Sprintf("%s + %d", inner, c)
	} else if c < 0 {
		inner = fmt.Sprintf("%s - %d", inner, -c)
	}
	if a.Div != 1 {
		return fmt.Sprintf("(%s)/%d", inner, a.Div)
	}
	return inner
}

// Rational is a rational number kept in lowest terms with a positive
// denominator. Used for schedule scaling factors (Section 3.3 of the paper).
type Rational struct {
	Num, Den int64
}

// NewRational builds num/den reduced to lowest terms; den must be non-zero.
func NewRational(num, den int64) Rational {
	if den == 0 {
		panic("affine: zero denominator")
	}
	if den < 0 {
		num, den = -num, -den
	}
	g := gcd64(abs64(num), den)
	if g > 1 {
		num /= g
		den /= g
	}
	return Rational{Num: num, Den: den}
}

// One is the rational 1.
var One = Rational{Num: 1, Den: 1}

// Mul returns r·o in lowest terms.
func (r Rational) Mul(o Rational) Rational {
	return NewRational(r.Num*o.Num, r.Den*o.Den)
}

// Float returns the rational as a float64.
func (r Rational) Float() float64 { return float64(r.Num) / float64(r.Den) }

// Equal reports exact equality (both are in lowest terms).
func (r Rational) Equal(o Rational) bool { return r.Num == o.Num && r.Den == o.Den }

// ScaleFloor returns floor(r·v).
func (r Rational) ScaleFloor(v int64) int64 { return FloorDiv(r.Num*v, r.Den) }

func (r Rational) String() string {
	if r.Den == 1 {
		return fmt.Sprintf("%d", r.Num)
	}
	return fmt.Sprintf("%d/%d", r.Num, r.Den)
}

func gcd64(a, b int64) int64 {
	for b != 0 {
		a, b = b, a%b
	}
	if a == 0 {
		return 1
	}
	return a
}

func abs64(a int64) int64 {
	if a < 0 {
		return -a
	}
	return a
}
