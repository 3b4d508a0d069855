// Package engine executes compiled pipelines: it lowers stage expressions
// to closures (with an array-at-a-time fast path standing in for the
// paper's SIMD vectorization, see DESIGN.md substitution note 3), runs
// groups as overlapped tiles over a goroutine worker pool (one worker per
// OpenMP thread of the paper's generated code), and manages full buffers
// for live-outs and per-worker scratchpads for intermediates (Section 3.6).
package engine

import (
	"repro/internal/affine"
	"repro/internal/buffer"
)

// Buffer is the N-dimensional array exchanged with pipelines. It lives in
// internal/buffer (so the DSL front-end can allocate buffers without
// importing the runtime); engine re-exports it as the historical name.
type Buffer = buffer.Buffer

// Elem re-exports the buffer element type enumeration; narrow-type
// programs (Options.NarrowTypes) store inferred stages as ElemU8/ElemU16/
// ElemI32 instead of the default ElemF32.
type Elem = buffer.Elem

const (
	ElemF32 = buffer.ElemF32
	ElemU8  = buffer.ElemU8
	ElemU16 = buffer.ElemU16
	ElemI32 = buffer.ElemI32
)

// NewBuffer allocates a float32 buffer covering box.
func NewBuffer(box affine.Box) *Buffer { return buffer.New(box) }

// NewBufferElem allocates a buffer of the given element type covering box.
func NewBufferElem(box affine.Box, elem Elem) *Buffer { return buffer.NewElem(box, elem) }

// ConvertBuffer returns a copy of src with the given element type (values
// widened or saturated per element).
func ConvertBuffer(src *Buffer, elem Elem) *Buffer { return buffer.Convert(src, elem) }

// FillPattern writes a deterministic pseudo-random pattern into a buffer
// (used by tests and synthetic workloads).
func FillPattern(b *Buffer, seed int64) { buffer.FillPattern(b, seed) }
