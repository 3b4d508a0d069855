// Package buffer provides the N-dimensional array exchanged with compiled
// pipelines. It sits below both the DSL front-end and the execution engine
// (which re-exports Buffer for compatibility), so any layer can allocate
// buffers without importing the runtime. Buffers are float32 by default;
// narrow-type pipelines (Options.NarrowTypes) store stages as uint8/uint16/
// int32 to cut memory traffic on memory-bound stencils.
package buffer

import (
	"fmt"
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/affine"
	"repro/internal/numeric"
)

// Elem enumerates buffer element types. The zero value is F32, so every
// pre-existing construction path (struct literals included) keeps the
// historical float32 layout.
type Elem uint8

const (
	ElemF32 Elem = iota // float32 (the default)
	ElemU8              // uint8
	ElemU16             // uint16
	ElemI32             // int32
)

// Size returns the element width in bytes.
func (e Elem) Size() int64 {
	switch e {
	case ElemU8:
		return 1
	case ElemU16:
		return 2
	}
	return 4
}

func (e Elem) String() string {
	switch e {
	case ElemU8:
		return "uint8"
	case ElemU16:
		return "uint16"
	case ElemI32:
		return "int32"
	}
	return "float32"
}

// Buffer is an N-dimensional array covering a box region. Indexing is
// relative to the box's lower corner, so a scratchpad allocated for a
// tile's region is addressed with the same global coordinates as a full
// buffer (the "relative indexing" of Section 3.6).
//
// Exactly one of the typed backing slices is active, selected by Elem:
// Data for ElemF32 (the default — all pre-narrow-types code reads and
// writes it directly), U8/U16/I32 for the narrow layouts. Inactive slices
// may retain capacity from a previous ResetElem so arena-recycled storage
// survives element-type changes.
type Buffer struct {
	Box    affine.Box
	Stride []int64 // element stride per dimension; innermost is 1
	Elem   Elem
	Data   []float32
	U8     []uint8
	U16    []uint16
	I32    []int32
}

// New allocates a float32 buffer covering box.
func New(box affine.Box) *Buffer {
	b := &Buffer{}
	b.Reset(box)
	return b
}

// NewElem allocates a buffer of the given element type covering box.
func NewElem(box affine.Box, elem Elem) *Buffer {
	b := &Buffer{}
	b.ResetElem(box, elem)
	return b
}

// NewForDomain evaluates a parametric domain at params and allocates a
// float32 buffer covering it.
func NewForDomain(dom affine.Domain, params map[string]int64) (*Buffer, error) {
	box, err := dom.Eval(params)
	if err != nil {
		return nil, err
	}
	return New(box), nil
}

// Reset re-shapes the buffer to cover box, keeping its element type and
// reusing the backing array when large enough (scratchpads are Reset per
// tile and reuse their storage). The covered region reads as zero
// afterwards: domain points not written by any case evaluate to 0, exactly
// as in freshly allocated full buffers and the reference interpreter
// (pipelines use this for zero-padded aprons).
func (b *Buffer) Reset(box affine.Box) { b.ResetElem(box, b.Elem) }

// ResetElem re-shapes the buffer to cover box with the given element type,
// reusing the matching typed backing array when large enough.
func (b *Buffer) ResetElem(box affine.Box, elem Elem) {
	n := int64(1)
	if cap(b.Box) >= len(box) {
		b.Box = b.Box[:len(box)]
		copy(b.Box, box)
	} else {
		b.Box = box.Clone()
	}
	if cap(b.Stride) >= len(box) {
		b.Stride = b.Stride[:len(box)]
	} else {
		b.Stride = make([]int64, len(box))
	}
	for d := len(box) - 1; d >= 0; d-- {
		b.Stride[d] = n
		sz := box[d].Size()
		if sz < 0 {
			sz = 0
		}
		n *= sz
	}
	b.Elem = elem
	switch elem {
	case ElemU8:
		if int64(cap(b.U8)) >= n {
			b.U8 = b.U8[:n]
			clear(b.U8)
		} else {
			b.U8 = make([]uint8, n)
		}
	case ElemU16:
		if int64(cap(b.U16)) >= n {
			b.U16 = b.U16[:n]
			clear(b.U16)
		} else {
			b.U16 = make([]uint16, n)
		}
	case ElemI32:
		if int64(cap(b.I32)) >= n {
			b.I32 = b.I32[:n]
			clear(b.I32)
		} else {
			b.I32 = make([]int32, n)
		}
	default:
		if int64(cap(b.Data)) >= n {
			b.Data = b.Data[:n]
			for i := range b.Data {
				b.Data[i] = 0
			}
		} else {
			b.Data = make([]float32, n)
		}
	}
}

// active returns the length of the active typed slice.
func (b *Buffer) active() int {
	switch b.Elem {
	case ElemU8:
		return len(b.U8)
	case ElemU16:
		return len(b.U16)
	case ElemI32:
		return len(b.I32)
	}
	return len(b.Data)
}

// Cap returns the element capacity of the active backing array (the arena
// buckets recycled buffers by it).
func (b *Buffer) Cap() int64 {
	switch b.Elem {
	case ElemU8:
		return int64(cap(b.U8))
	case ElemU16:
		return int64(cap(b.U16))
	case ElemI32:
		return int64(cap(b.I32))
	}
	return int64(cap(b.Data))
}

// Bytes returns the total backing storage in bytes across all typed
// arrays, active or not (observability).
func (b *Buffer) Bytes() int64 {
	return int64(cap(b.Data))*4 + int64(cap(b.U8)) + int64(cap(b.U16))*2 + int64(cap(b.I32))*4
}

// Fill fills the buffer with v (saturating for integer element types).
func (b *Buffer) Fill(v float32) {
	switch b.Elem {
	case ElemU8:
		x := numeric.SatU8(float64(v))
		for i := range b.U8 {
			b.U8[i] = x
		}
	case ElemU16:
		x := numeric.SatU16(float64(v))
		for i := range b.U16 {
			b.U16[i] = x
		}
	case ElemI32:
		x := numeric.SatI32(float64(v))
		for i := range b.I32 {
			b.I32[i] = x
		}
	default:
		for i := range b.Data {
			b.Data[i] = v
		}
	}
}

// Offset returns the flat index of the point (which must lie in Box).
func (b *Buffer) Offset(pt []int64) int64 {
	var off int64
	for d, x := range pt {
		off += (x - b.Box[d].Lo) * b.Stride[d]
	}
	return off
}

// LoadF64 reads the element at flat offset off, widened to float64.
// Widening from any integer element type is exact.
func (b *Buffer) LoadF64(off int64) float64 {
	switch b.Elem {
	case ElemU8:
		return float64(b.U8[off])
	case ElemU16:
		return float64(b.U16[off])
	case ElemI32:
		return float64(b.I32[off])
	}
	return float64(b.Data[off])
}

// StoreF64 writes v at flat offset off, narrowing with the tier-shared
// saturating semantics for integer element types (float32 narrows by
// rounding, as before).
func (b *Buffer) StoreF64(off int64, v float64) {
	switch b.Elem {
	case ElemU8:
		b.U8[off] = numeric.SatU8(v)
	case ElemU16:
		b.U16[off] = numeric.SatU16(v)
	case ElemI32:
		b.I32[off] = numeric.SatI32(v)
	default:
		b.Data[off] = float32(v)
	}
}

// At reads the value at pt (integer elements widen exactly).
func (b *Buffer) At(pt ...int64) float32 { return float32(b.LoadF64(b.Offset(pt))) }

// Set writes the value at pt (saturating for integer element types).
func (b *Buffer) Set(v float32, pt ...int64) { b.StoreF64(b.Offset(pt), float64(v)) }

// Rank returns the number of dimensions.
func (b *Buffer) Rank() int { return len(b.Box) }

// Len returns the number of elements covered.
func (b *Buffer) Len() int { return b.active() }

// CopyRegion copies the values in region from src into b; region must be
// contained in both boxes. Same-element copies are raw row copies;
// mismatched element types convert per element (widen, then saturate).
func (b *Buffer) CopyRegion(src *Buffer, region affine.Box) {
	if region.Empty() {
		return
	}
	nd := len(region)
	if nd == 0 {
		return
	}
	// Iterate all dims but the last; copy contiguous runs along the last.
	// The odometer lives on the stack up to rank 4, so the engine's
	// per-tile live-out copies allocate nothing.
	var stack [4]int64
	pt := stack[:]
	if nd > len(stack) {
		pt = make([]int64, nd)
	}
	pt = pt[:nd]
	for d := range region {
		pt[d] = region[d].Lo
	}
	rowLen := region[nd-1].Size()
	same := b.Elem == src.Elem
	for {
		so := src.Offset(pt)
		do := b.Offset(pt)
		if same {
			switch b.Elem {
			case ElemU8:
				copy(b.U8[do:do+rowLen], src.U8[so:so+rowLen])
			case ElemU16:
				copy(b.U16[do:do+rowLen], src.U16[so:so+rowLen])
			case ElemI32:
				copy(b.I32[do:do+rowLen], src.I32[so:so+rowLen])
			default:
				copy(b.Data[do:do+rowLen], src.Data[so:so+rowLen])
			}
		} else {
			for i := int64(0); i < rowLen; i++ {
				b.StoreF64(do+i, src.LoadF64(so+i))
			}
		}
		// Advance the outer dims odometer.
		d := nd - 2
		for ; d >= 0; d-- {
			pt[d]++
			if pt[d] <= region[d].Hi {
				break
			}
			pt[d] = region[d].Lo
		}
		if d < 0 {
			return
		}
	}
}

// Equal reports whether two buffers cover the same box with values within
// tol of each other; used by tests. Element types may differ (values are
// compared widened).
func (b *Buffer) Equal(o *Buffer, tol float64) (bool, string) {
	if len(b.Box) != len(o.Box) {
		return false, "rank mismatch"
	}
	for d := range b.Box {
		if b.Box[d] != o.Box[d] {
			return false, fmt.Sprintf("box mismatch dim %d: %v vs %v", d, b.Box[d], o.Box[d])
		}
	}
	n := b.active()
	for i := 0; i < n; i++ {
		d := b.LoadF64(int64(i)) - o.LoadF64(int64(i))
		if d < -tol || d > tol {
			return false, fmt.Sprintf("data[%d] = %v vs %v", i, b.LoadF64(int64(i)), o.LoadF64(int64(i)))
		}
	}
	return true, ""
}

// Convert returns a new buffer over the same box with the given element
// type, values widened/narrowed (saturating) per element. Converting to
// the buffer's own element type still copies.
func Convert(src *Buffer, elem Elem) *Buffer {
	dst := NewElem(src.Box, elem)
	n := src.active()
	for i := 0; i < n; i++ {
		dst.StoreF64(int64(i), src.LoadF64(int64(i)))
	}
	return dst
}

// FillPattern writes a deterministic pseudo-random pattern into a buffer
// (used by tests and synthetic workloads): floats in [0, 1) for float32
// buffers, integers in [0, 256) for the narrow element types — the native
// value range of 8-bit imaging traffic, exactly representable in every
// wider type.
//
// Element i is a function of the i+1-th state of one xorshift chain from
// the seed: float32(s%10000)/10000, or s%256 for the integer types. The
// chain is linear over GF(2), so the state any number of steps ahead is a
// product of precomputed bit-matrix powers applied to the seed's state.
// A large buffer is cut into fillChunk-element chunks filled on up to
// GOMAXPROCS goroutines, each chunk in four interleaved chains; the bits
// written do not depend on either split.
func FillPattern(b *Buffer, seed int64) {
	s := uint64(seed)*2654435761 + 1
	switch b.Elem {
	case ElemU8:
		fillParallel(b.U8, s, fillInts[uint8])
	case ElemU16:
		fillParallel(b.U16, s, fillInts[uint16])
	case ElemI32:
		fillParallel(b.I32, s, fillInts[int32])
	default:
		fillParallel(b.Data, s, fillF32)
	}
}

// fillChunk is the element count one goroutine of FillPattern fills at a
// time; buffers shorter than two chunks are filled on the calling
// goroutine (the difftest sweep fills thousands of small buffers).
const fillChunk = 1 << 16

// fillParallel fills dst from state s with fill, chunk by chunk.
func fillParallel[T any](dst []T, s uint64, fill func([]T, uint64) uint64) {
	n := len(dst)
	chunks := (n + fillChunk - 1) / fillChunk
	workers := min(runtime.GOMAXPROCS(0), chunks)
	if chunks < 2 || workers < 2 {
		fill(dst, s)
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for range workers {
		go func() {
			defer wg.Done()
			for k := int(next.Add(1)) - 1; k < chunks; k = int(next.Add(1)) - 1 {
				lo := k * fillChunk
				fill(dst[lo:min(lo+fillChunk, n)], xorshiftJump(s, uint64(lo)))
			}
		}()
	}
	wg.Wait()
}

// fillLanes is the shortest span fillF32 and fillInts split into four
// chains; below it the three jumps to the chains' starts cost more than
// the serial chain.
const fillLanes = 512

// fillF32 fills dst with the float32 pattern from state s (the state
// before dst[0]'s step) and returns the state after its last element.
func fillF32(dst []float32, s uint64) uint64 {
	tab := patternF32()
	q := len(dst) / 4
	if len(dst) >= fillLanes {
		s1 := xorshiftJump(s, uint64(q))
		s2 := xorshiftJump(s1, uint64(q))
		s3 := xorshiftJump(s2, uint64(q))
		d0, d1, d2, d3 := dst[:q], dst[q:2*q], dst[2*q:3*q], dst[3*q:4*q]
		d1, d2, d3 = d1[:len(d0)], d2[:len(d0)], d3[:len(d0)] // no bounds checks below
		for i := range d0 {
			s, s1, s2, s3 = xorshift(s), xorshift(s1), xorshift(s2), xorshift(s3)
			d0[i], d1[i], d2[i], d3[i] = tab[s%10000], tab[s1%10000], tab[s2%10000], tab[s3%10000]
		}
		dst, s = dst[4*q:], s3
	}
	for i := range dst {
		s = xorshift(s)
		dst[i] = tab[s%10000]
	}
	return s
}

// fillInts is fillF32 for the integer element types: s%256 per element.
func fillInts[T uint8 | uint16 | int32](dst []T, s uint64) uint64 {
	q := len(dst) / 4
	if len(dst) >= fillLanes {
		s1 := xorshiftJump(s, uint64(q))
		s2 := xorshiftJump(s1, uint64(q))
		s3 := xorshiftJump(s2, uint64(q))
		d0, d1, d2, d3 := dst[:q], dst[q:2*q], dst[2*q:3*q], dst[3*q:4*q]
		d1, d2, d3 = d1[:len(d0)], d2[:len(d0)], d3[:len(d0)] // no bounds checks below
		for i := range d0 {
			s, s1, s2, s3 = xorshift(s), xorshift(s1), xorshift(s2), xorshift(s3)
			d0[i], d1[i], d2[i], d3[i] = T(uint8(s)), T(uint8(s1)), T(uint8(s2)), T(uint8(s3))
		}
		dst, s = dst[4*q:], s3
	}
	for i := range dst {
		s = xorshift(s)
		dst[i] = T(uint8(s))
	}
	return s
}

// xorshift is one step of FillPattern's chain.
func xorshift(s uint64) uint64 {
	s ^= s << 13
	s ^= s >> 7
	s ^= s << 17
	return s
}

// bitMatrix is a linear map over GF(2)^64: column j is the image of bit j.
type bitMatrix [64]uint64

func (m *bitMatrix) apply(v uint64) uint64 {
	var r uint64
	for ; v != 0; v &= v - 1 {
		r ^= m[bits.TrailingZeros64(v)]
	}
	return r
}

// xorshiftPowers holds the xorshift step raised to 2^k, k = 0..63.
var xorshiftPowers = sync.OnceValue(func() *[64]bitMatrix {
	var p [64]bitMatrix
	for j := range p[0] {
		p[0][j] = xorshift(1 << j)
	}
	for k := 1; k < len(p); k++ {
		for j := range p[k] {
			p[k][j] = p[k-1].apply(p[k-1][j])
		}
	}
	return &p
})

// xorshiftJump returns the state n steps of xorshift after s.
func xorshiftJump(s, n uint64) uint64 {
	if n == 0 {
		return s
	}
	p := xorshiftPowers()
	for ; n != 0; n &= n - 1 {
		s = p[bits.TrailingZeros64(n)].apply(s)
	}
	return s
}

// patternF32 maps s%10000 to its float32 pattern value, built with the
// expression the serial chain always used, so every value is exact.
var patternF32 = sync.OnceValue(func() *[10000]float32 {
	var t [10000]float32
	for i := range t {
		t[i] = float32(i) / 10000
	}
	return &t
})
