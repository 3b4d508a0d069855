package engine

import (
	"math/bits"
	"sync"

	"repro/internal/affine"
)

// arena recycles Buffer backing storage across groups and across Run calls.
// Buffers are bucketed by capacity into power-of-two size classes, so the
// allocation path is a best-fit scan of one small bucket instead of the
// O(n²) whole-pool scan the per-run free list used. The arena is owned by
// an Executor: intermediates return to it automatically at the end of their
// liveness, outputs only when the caller hands them back via
// Executor.Recycle.
type arena struct {
	mu      sync.Mutex
	classes [arenaClasses][]*Buffer
	// hits/misses count recycled vs fresh allocations (diagnostics for
	// tests and the serve mode).
	hits, misses int64
}

const arenaClasses = 48

// arenaClass buckets a capacity: buffers with cap in [2^c, 2^(c+1)) share
// class c.
func arenaClass(n int64) int {
	if n <= 1 {
		return 0
	}
	c := bits.Len64(uint64(n)) - 1
	if c >= arenaClasses {
		c = arenaClasses - 1
	}
	return c
}

// get returns a recycled buffer reshaped to cover box with the given
// element type, or a fresh one. A recycled buffer whose previous element
// type differs reuses its box/stride storage and (via ResetElem) any
// matching typed array it retained from an earlier life.
func (a *arena) get(box affine.Box, elem Elem) *Buffer {
	need := int64(1)
	for _, r := range box {
		sz := r.Size()
		if sz < 0 {
			sz = 0
		}
		need *= sz
	}
	a.mu.Lock()
	b := a.take(need)
	if b != nil {
		a.hits++
	} else {
		a.misses++
	}
	a.mu.Unlock()
	if b != nil {
		b.ResetElem(box, elem)
		return b
	}
	return NewBufferElem(box, elem)
}

// take pops a buffer with capacity ≥ need: best fit within need's own class
// (entries there may still be too small), then LIFO from the first larger
// non-empty class (any entry fits; the most recently recycled is the
// cache-warmest). Capacity is the element count of the buffer's active
// array — an element-type switch after take simply reallocates in
// ResetElem, which the size-class match makes rare in steady state.
func (a *arena) take(need int64) *Buffer {
	c := arenaClass(need)
	bucket := a.classes[c]
	best := -1
	for i, b := range bucket {
		if b.Cap() >= need && (best < 0 || b.Cap() < bucket[best].Cap()) {
			best = i
		}
	}
	if best >= 0 {
		b := bucket[best]
		last := len(bucket) - 1
		bucket[best] = bucket[last]
		bucket[last] = nil
		a.classes[c] = bucket[:last]
		return b
	}
	for c++; c < arenaClasses; c++ {
		bucket := a.classes[c]
		if n := len(bucket); n > 0 {
			b := bucket[n-1]
			bucket[n-1] = nil
			a.classes[c] = bucket[:n-1]
			return b
		}
	}
	return nil
}

// put recycles a buffer's storage; the caller must not use b afterwards.
func (a *arena) put(b *Buffer) {
	if b == nil || b.Cap() == 0 {
		return
	}
	c := arenaClass(b.Cap())
	a.mu.Lock()
	a.classes[c] = append(a.classes[c], b)
	a.mu.Unlock()
}

// gauge reports hit/miss counters plus how many buffers (and how much
// backing storage, in bytes) are currently parked awaiting reuse.
func (a *arena) gauge() (hits, misses, pooled, pooledBytes int64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	for _, bucket := range a.classes {
		pooled += int64(len(bucket))
		for _, b := range bucket {
			pooledBytes += b.Bytes()
		}
	}
	return a.hits, a.misses, pooled, pooledBytes
}
