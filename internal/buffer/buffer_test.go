package buffer

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"repro/internal/affine"
)

// fillPatternSerial is the one-chain definition FillPattern must match bit
// for bit: one xorshift step per element, then the element's value.
func fillPatternSerial(b *Buffer, seed int64) {
	s := uint64(seed)*2654435761 + 1
	for i := 0; i < b.active(); i++ {
		s ^= s << 13
		s ^= s >> 7
		s ^= s << 17
		switch b.Elem {
		case ElemU8:
			b.U8[i] = uint8(s % 256)
		case ElemU16:
			b.U16[i] = uint16(s % 256)
		case ElemI32:
			b.I32[i] = int32(s % 256)
		default:
			b.Data[i] = float32(s%10000) / 10000
		}
	}
}

// firstDiff returns the first element where a and b differ in their bits,
// or -1.
func firstDiff(a, b *Buffer) int {
	switch a.Elem {
	case ElemU8:
		return diffAt(a.U8, b.U8)
	case ElemU16:
		return diffAt(a.U16, b.U16)
	case ElemI32:
		return diffAt(a.I32, b.I32)
	}
	for i, v := range a.Data {
		if math.Float32bits(v) != math.Float32bits(b.Data[i]) {
			return i
		}
	}
	return -1
}

func diffAt[T comparable](a, b []T) int {
	for i, v := range a {
		if v != b[i] {
			return i
		}
	}
	return -1
}

// TestFillPatternMatchesSerial: the chunked, four-chain fill writes
// exactly the serial chain's values, for every element type, around every
// lane and chunk boundary, on one core and on two.
func TestFillPatternMatchesSerial(t *testing.T) {
	lengths := []int64{0, 1, 3, 4, 5, fillLanes - 1, fillLanes, fillLanes + 1,
		fillChunk - 1, fillChunk, fillChunk + 1, 2*fillChunk - 1, 2 * fillChunk, 2*fillChunk + 1, 2_570_000}
	elems := []Elem{ElemF32, ElemU8, ElemU16, ElemI32}
	for _, procs := range []int{1, 2} {
		prev := runtime.GOMAXPROCS(procs)
		for _, n := range lengths {
			box := affine.Box{{Lo: 0, Hi: n - 1}}
			for _, el := range elems {
				for _, seed := range []int64{0, -1, 42} {
					got, want := NewElem(box, el), NewElem(box, el)
					got.Fill(7) // every element must be written
					FillPattern(got, seed)
					fillPatternSerial(want, seed)
					if i := firstDiff(got, want); i >= 0 {
						t.Fatalf("GOMAXPROCS %d, %s, n=%d, seed %d: element %d is %v, want %v",
							procs, el, n, seed, i, got.LoadF64(int64(i)), want.LoadF64(int64(i)))
					}
				}
			}
		}
		runtime.GOMAXPROCS(prev)
	}
}

// TestXorshiftJump: a jump of n steps lands where n single steps do.
func TestXorshiftJump(t *testing.T) {
	for _, s := range []uint64{1, 42*2654435761 + 1, math.MaxUint64} {
		want := s
		for n := uint64(0); n <= 300; n++ {
			if got := xorshiftJump(s, n); got != want {
				t.Fatalf("jump(%#x, %d) = %#x, want %#x", s, n, got, want)
			}
			want = xorshift(want)
		}
	}
}

// BenchmarkFillPattern times one fill of a harris-sized float32 input and
// of a difftest-sized one.
func BenchmarkFillPattern(b *testing.B) {
	for _, n := range []int64{4096, 2_560_000} {
		for _, el := range []Elem{ElemF32, ElemU8} {
			buf := NewElem(affine.Box{{Lo: 0, Hi: n - 1}}, el)
			b.Run(fmt.Sprintf("%s/n=%d", el, n), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					FillPattern(buf, int64(i))
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/elem")
			})
		}
	}
}
