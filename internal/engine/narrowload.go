package engine

// Row-granular loads and stores between buffers of every element type and
// row-VM registers of every type. The element-type switch runs once per row;
// the inner loops are monomorphic over the element and register types, so a
// pipeline that mixes element types (e.g. a float stage reading a uint8
// input image) pays one predictable branch per row. Widening is exact for
// every pairing lowering admits: integer elements into any register type,
// float32 elements into float registers, and into int64 registers only on
// stages proved integral within ±2^24.

type elemNum interface {
	uint8 | uint16 | int32 | float32
}

// widenRow reads len(t) elements of b starting at flat offset p, stride
// apart.
func widenRow[T vmNum](t []T, b *Buffer, p, stride int64) {
	switch b.Elem {
	case ElemU8:
		widenRowT(t, b.U8, p, stride)
	case ElemU16:
		widenRowT(t, b.U16, p, stride)
	case ElemI32:
		widenRowT(t, b.I32, p, stride)
	default:
		widenRowT(t, b.Data, p, stride)
	}
}

func widenRowT[T vmNum, E elemNum](t []T, src []E, p, stride int64) {
	if stride == 1 {
		s := src[p : p+int64(len(t))]
		if same, ok := any(t).([]E); ok {
			copy(same, s) // float32 registers from float32 data
			return
		}
		for i := range t {
			t[i] = T(s[i])
		}
		return
	}
	for i := range t {
		t[i] = T(src[p])
		p += stride
	}
}

// madRow computes t[i] = a[i] + w·src[i] over the row widenRow would read,
// or t[i] = w·src[i] when a is nil; t may alias a. The product is rounded
// before the add on every GOARCH: the conversion forbids the compiler to
// fuse the two into one FMA, as `make fma-check` verifies.
func madRow[T vmNum](t, a []T, w T, b *Buffer, p, stride int64) {
	switch b.Elem {
	case ElemU8:
		madRowT(t, a, w, b.U8, p, stride)
	case ElemU16:
		madRowT(t, a, w, b.U16, p, stride)
	case ElemI32:
		madRowT(t, a, w, b.I32, p, stride)
	default:
		madRowT(t, a, w, b.Data, p, stride)
	}
}

func madRowT[T vmNum, E elemNum](t, a []T, w T, src []E, p, stride int64) {
	switch {
	case stride == 1 && a == nil:
		s := src[p : p+int64(len(t))]
		for i := range t {
			t[i] = w * T(s[i])
		}
	case stride == 1:
		s, a := src[p:p+int64(len(t))], a[:len(t)]
		for i := range t {
			t[i] = a[i] + T(w*T(s[i]))
		}
	case a == nil:
		for i := range t {
			t[i] = w * T(src[p])
			p += stride
		}
	default:
		a := a[:len(t)]
		for i := range t {
			t[i] = a[i] + T(w*T(src[p]))
			p += stride
		}
	}
}

// gatherRow reads t[i] = b's element at flat offset offs[i].
func gatherRow[T vmNum](t []T, b *Buffer, offs []int64) {
	switch b.Elem {
	case ElemU8:
		gatherRowT(t, b.U8, offs)
	case ElemU16:
		gatherRowT(t, b.U16, offs)
	case ElemI32:
		gatherRowT(t, b.I32, offs)
	default:
		gatherRowT(t, b.Data, offs)
	}
}

func gatherRowT[T vmNum, E elemNum](t []T, src []E, offs []int64) {
	offs = offs[:len(t)]
	for i := range t {
		t[i] = T(src[offs[i]])
	}
}

// storeRow writes a result row into out at flat offset off, narrowing per
// the buffer's element type.
func storeRow[T vmNum](out *Buffer, off int64, vals []T) {
	end := off + int64(len(vals))
	switch out.Elem {
	case ElemU8:
		satRow(out.U8[off:end], vals, 0, 255)
	case ElemU16:
		satRow(out.U16[off:end], vals, 0, 65535)
	case ElemI32:
		satRow(out.I32[off:end], vals, -1<<31, 1<<31-1)
	default:
		dst := out.Data[off:end]
		if same, ok := any(vals).([]float32); ok {
			copy(dst, same)
			return
		}
		for i, v := range vals {
			dst[i] = float32(v)
		}
	}
}

// satRow narrows with internal/numeric's saturating rules: NaN → 0, beyond
// a bound → the bound, else truncation toward zero (numeric.SatI32 tests
// 2^31, but a float in [2^31-1, 2^31) truncates to hi either way). On the
// int64 registers of a sound program the bounds never bind.
func satRow[E uint8 | uint16 | int32, T vmNum](dst []E, vals []T, lo, hi int64) {
	l, h := T(lo), T(hi)
	dst = dst[:len(vals)]
	for i, v := range vals {
		switch {
		case v < h && v >= l:
			dst[i] = E(v)
		case v >= h:
			dst[i] = E(hi)
		case v < l:
			dst[i] = E(lo)
		default: // NaN
			dst[i] = 0
		}
	}
}
