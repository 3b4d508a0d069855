// Package numeric defines the saturating, platform-independent float→int
// conversion semantics used by every evaluator tier (expr.Eval, the engine
// closures, the row VM and the generated-kernel emitter). Go's native
// float→int conversion is implementation-defined for NaN and out-of-range
// values ("the behavior is ... not specified", Go spec), so each tier
// converting natively could silently disagree. The
// rules here are the ones common to saturating image arithmetic:
//
//	NaN          → 0
//	v ≥ max(T)   → max(T)
//	v ≤ min(T)   → min(T) (±Inf saturate like any out-of-range value)
//	otherwise    → truncate toward zero (the C / Go in-range behavior)
//
// The comparisons are written so every in-range value takes the final
// truncating conversion, which all platforms define identically.
//
// Min64 and Max64 are math.Min and math.Max, bit for bit, in a form the
// compiler inlines (math's are assembly on amd64, one call per element).
//
// Exp (exp.go) is the repository's own exponential, which every tier
// computes exp with: pure Go, table-driven, within 1 ULP, and the same bits
// on every GOARCH, where math.Exp is assembly on amd64 and arm64 (fused
// where the CPU can) and pure Go elsewhere. Its common path is short enough
// for EmitGo to print inline; its constants, tables and slow path ExpSlow
// are exported for the generated kernels that do. Log, Pow, Sin and Cos
// are still Go's math, and their bits may differ by host.
package numeric

import "math"

// Min64 is math.Min(x, y). The builtin min agrees with it on every non-NaN
// result (−0 < +0 included); a NaN result, where the builtin keeps an
// operand's payload and math.Min(−Inf, NaN) is −Inf, takes math.Min itself.
func Min64(x, y float64) float64 {
	if r := min(x, y); r == r {
		return r
	}
	return mathMin(x, y)
}

// Max64 is math.Max(x, y), as Min64 is math.Min.
func Max64(x, y float64) float64 {
	if r := max(x, y); r == r {
		return r
	}
	return mathMax(x, y)
}

// mathMin and mathMax keep the NaN path out of line, so Min64 and Max64
// stay within the inlining budget.
//
//go:noinline
func mathMin(x, y float64) float64 { return math.Min(x, y) }

//go:noinline
func mathMax(x, y float64) float64 { return math.Max(x, y) }

// SatI8 converts v to int8 with saturation.
func SatI8(v float64) int8 {
	if v != v {
		return 0
	}
	if v >= 127 {
		return 127
	}
	if v <= -128 {
		return -128
	}
	return int8(v)
}

// SatU8 converts v to uint8 with saturation.
func SatU8(v float64) uint8 {
	if v != v {
		return 0
	}
	if v >= 255 {
		return 255
	}
	if v <= 0 {
		return 0
	}
	return uint8(v)
}

// SatI16 converts v to int16 with saturation.
func SatI16(v float64) int16 {
	if v != v {
		return 0
	}
	if v >= 32767 {
		return 32767
	}
	if v <= -32768 {
		return -32768
	}
	return int16(v)
}

// SatU16 converts v to uint16 with saturation.
func SatU16(v float64) uint16 {
	if v != v {
		return 0
	}
	if v >= 65535 {
		return 65535
	}
	if v <= 0 {
		return 0
	}
	return uint16(v)
}

// SatI32 converts v to int32 with saturation. The upper comparison uses
// 2^31, the tightest guard: every v in (2^31-1, 2^31) still truncates to
// 2^31-1 natively, while any v ≥ 2^31 would overflow the native
// conversion.
func SatI32(v float64) int32 {
	if v != v {
		return 0
	}
	if v >= 2147483648 {
		return 2147483647
	}
	if v <= -2147483648 {
		return -2147483648
	}
	return int32(v)
}

// SatU32 converts v to uint32 with saturation (upper bound 2^32, exactly
// representable; 2^32-1 is too, but the symmetric form reads clearer).
func SatU32(v float64) uint32 {
	if v != v {
		return 0
	}
	if v >= 4294967295 {
		return 4294967295
	}
	if v <= 0 {
		return 0
	}
	return uint32(v)
}
