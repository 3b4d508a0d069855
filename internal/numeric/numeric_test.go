package numeric

import (
	"math"
	"testing"
)

// TestMinMax64MatchesMath holds Min64/Max64 to math.Min/math.Max bit for bit
// on every ordered pair of the special values: signed zeros, infinities,
// NaNs of both signs and several payloads, subnormals and the extremes.
func TestMinMax64MatchesMath(t *testing.T) {
	vals := []float64{
		0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1),
		math.NaN(), math.Float64frombits(0xfff8000000000000), math.Float64frombits(0x7ff0000000000001),
		math.Float64frombits(0xfff4000000000abc), math.Float64frombits(0x7ff8dead00000000),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, math.Float64frombits(0x000fffffffffffff),
		-math.Float64frombits(0x000fffffffffffff), math.MaxFloat64, -math.MaxFloat64, 1, -1, 0.5,
	}
	for _, x := range vals {
		for _, y := range vals {
			if got, want := math.Float64bits(Min64(x, y)), math.Float64bits(math.Min(x, y)); got != want {
				t.Errorf("Min64(%#x, %#x) = %#x, math.Min = %#x", math.Float64bits(x), math.Float64bits(y), got, want)
			}
			if got, want := math.Float64bits(Max64(x, y)), math.Float64bits(math.Max(x, y)); got != want {
				t.Errorf("Max64(%#x, %#x) = %#x, math.Max = %#x", math.Float64bits(x), math.Float64bits(y), got, want)
			}
		}
	}
}

// TestSaturatingCasts pins the platform-independent float→int rules every
// evaluator tier shares: NaN → 0, out-of-range (±Inf included) saturates
// to the type bounds, in-range values truncate toward zero.
func TestSaturatingCasts(t *testing.T) {
	nan := math.NaN()
	inf := math.Inf(1)

	for _, tc := range []struct {
		in   float64
		want int8
	}{
		{nan, 0}, {inf, 127}, {-inf, -128},
		{127.9, 127}, {128, 127}, {1e300, 127},
		{-128.9, -128}, {-129, -128}, {-1e300, -128},
		{3.7, 3}, {-3.7, -3}, {0, 0},
	} {
		if got := SatI8(tc.in); got != tc.want {
			t.Errorf("SatI8(%v) = %d, want %d", tc.in, got, tc.want)
		}
	}
	for _, tc := range []struct {
		in   float64
		want uint8
	}{
		{nan, 0}, {inf, 255}, {-inf, 0},
		{255.9, 255}, {256, 255}, {-0.5, 0}, {-7, 0},
		{254.99, 254}, {0.99, 0},
	} {
		if got := SatU8(tc.in); got != tc.want {
			t.Errorf("SatU8(%v) = %d, want %d", tc.in, got, tc.want)
		}
	}
	for _, tc := range []struct {
		in   float64
		want int16
	}{
		{nan, 0}, {inf, 32767}, {-inf, -32768},
		{32767.5, 32767}, {32768, 32767}, {-32769, -32768},
		{-1.5, -1},
	} {
		if got := SatI16(tc.in); got != tc.want {
			t.Errorf("SatI16(%v) = %d, want %d", tc.in, got, tc.want)
		}
	}
	for _, tc := range []struct {
		in   float64
		want uint16
	}{
		{nan, 0}, {inf, 65535}, {-inf, 0},
		{65535.9, 65535}, {65536, 65535}, {-1, 0},
	} {
		if got := SatU16(tc.in); got != tc.want {
			t.Errorf("SatU16(%v) = %d, want %d", tc.in, got, tc.want)
		}
	}
	for _, tc := range []struct {
		in   float64
		want int32
	}{
		{nan, 0}, {inf, math.MaxInt32}, {-inf, math.MinInt32},
		// 2^31-1 + 0.5 still truncates to MaxInt32; 2^31 saturates.
		{2147483647.5, math.MaxInt32}, {2147483648, math.MaxInt32},
		{-2147483648.5, math.MinInt32}, {-2147483649, math.MinInt32},
		{-2147483648, math.MinInt32}, {42.9, 42},
	} {
		if got := SatI32(tc.in); got != tc.want {
			t.Errorf("SatI32(%v) = %d, want %d", tc.in, got, tc.want)
		}
	}
	for _, tc := range []struct {
		in   float64
		want uint32
	}{
		{nan, 0}, {inf, math.MaxUint32}, {-inf, 0},
		{4294967296, math.MaxUint32}, {4294967294.9, 4294967294},
		{-0.1, 0},
	} {
		if got := SatU32(tc.in); got != tc.want {
			t.Errorf("SatU32(%v) = %d, want %d", tc.in, got, tc.want)
		}
	}
}
