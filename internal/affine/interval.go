package affine

import (
	"fmt"
	"strings"
)

// Interval is a parametric integer interval [Lo, Hi], both bounds inclusive
// and affine in the pipeline parameters.
type Interval struct {
	Lo, Hi Expr
}

// Eval binds parameters, producing a concrete interval.
func (iv Interval) Eval(params map[string]int64) (Range, error) {
	lo, err := iv.Lo.Eval(params)
	if err != nil {
		return Range{}, err
	}
	hi, err := iv.Hi.Eval(params)
	if err != nil {
		return Range{}, err
	}
	return Range{Lo: lo, Hi: hi}, nil
}

func (iv Interval) String() string {
	return fmt.Sprintf("[%s, %s]", iv.Lo, iv.Hi)
}

// Domain is a parametric box: one Interval per dimension.
type Domain []Interval

// Eval binds parameters, producing a concrete Box.
func (d Domain) Eval(params map[string]int64) (Box, error) {
	b := make(Box, len(d))
	for i, iv := range d {
		r, err := iv.Eval(params)
		if err != nil {
			return nil, err
		}
		b[i] = r
	}
	return b, nil
}

func (d Domain) String() string {
	parts := make([]string, len(d))
	for i, iv := range d {
		parts[i] = iv.String()
	}
	return "{" + strings.Join(parts, " x ") + "}"
}

// Range is a concrete integer interval [Lo, Hi], inclusive. An empty range
// has Hi < Lo.
type Range struct {
	Lo, Hi int64
}

// Empty reports whether the range contains no integers.
func (r Range) Empty() bool { return r.Hi < r.Lo }

// Size returns the number of integers in the range (0 when empty).
func (r Range) Size() int64 {
	if r.Empty() {
		return 0
	}
	return r.Hi - r.Lo + 1
}

// Contains reports whether v lies in the range.
func (r Range) Contains(v int64) bool { return v >= r.Lo && v <= r.Hi }

// Intersect returns the intersection of the two ranges.
func (r Range) Intersect(o Range) Range {
	return Range{Lo: max64(r.Lo, o.Lo), Hi: min64(r.Hi, o.Hi)}
}

// Union returns the smallest range containing both (hull). Empty inputs are
// ignored.
func (r Range) Union(o Range) Range {
	if r.Empty() {
		return o
	}
	if o.Empty() {
		return r
	}
	return Range{Lo: min64(r.Lo, o.Lo), Hi: max64(r.Hi, o.Hi)}
}

func (r Range) String() string {
	if r.Empty() {
		return "[empty]"
	}
	return fmt.Sprintf("[%d, %d]", r.Lo, r.Hi)
}

// Box is a concrete N-dimensional box (one Range per dimension).
type Box []Range

// Empty reports whether any dimension is empty.
func (b Box) Empty() bool {
	for _, r := range b {
		if r.Empty() {
			return true
		}
	}
	return len(b) == 0
}

// Size returns the number of integer points in the box.
func (b Box) Size() int64 {
	if len(b) == 0 {
		return 0
	}
	n := int64(1)
	for _, r := range b {
		n *= r.Size()
	}
	return n
}

// Clone returns a copy of the box.
func (b Box) Clone() Box {
	c := make(Box, len(b))
	copy(c, b)
	return c
}

// Intersect returns the per-dimension intersection; the boxes must have the
// same rank.
func (b Box) Intersect(o Box) Box {
	if len(b) != len(o) {
		panic(fmt.Sprintf("affine: rank mismatch %d vs %d", len(b), len(o)))
	}
	r := make(Box, len(b))
	for i := range b {
		r[i] = b[i].Intersect(o[i])
	}
	return r
}

// Union returns the per-dimension hull of the two boxes.
func (b Box) Union(o Box) Box {
	if len(b) == 0 {
		return o.Clone()
	}
	if len(o) == 0 {
		return b.Clone()
	}
	if len(b) != len(o) {
		panic(fmt.Sprintf("affine: rank mismatch %d vs %d", len(b), len(o)))
	}
	if b.Empty() {
		return o.Clone()
	}
	if o.Empty() {
		return b.Clone()
	}
	r := make(Box, len(b))
	for i := range b {
		r[i] = b[i].Union(o[i])
	}
	return r
}

// Contains reports whether the point lies in the box.
func (b Box) Contains(pt []int64) bool {
	if len(pt) != len(b) {
		return false
	}
	for i, r := range b {
		if !r.Contains(pt[i]) {
			return false
		}
	}
	return true
}

func (b Box) String() string {
	parts := make([]string, len(b))
	for i, r := range b {
		parts[i] = r.String()
	}
	return "{" + strings.Join(parts, " x ") + "}"
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
