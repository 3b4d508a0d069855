package service

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/apps"
	"repro/internal/difftest"
	"repro/internal/dsl"
	"repro/internal/engine"
)

// compiled is everything a cache entry keeps per program: the bound
// engine.Program plus whatever is needed to synthesize inputs for it
// later (the app hooks, or the spec for reference re-execution).
type compiled struct {
	label         string
	prog          *engine.Program
	app           *apps.App    // app requests only
	builder       *dsl.Builder // app requests only (app.Inputs needs it)
	spec          *difftest.PipelineSpec
	params        map[string]int64
	compileMillis float64
	// pending is the leader's seed inputs, filled beside the compile (or,
	// for a spec, the inputs its build made), until a request at that seed
	// takes them; once the entry is ready it is guarded by entry.imu.
	pending *synthesis
}

// entry is one cached program. The ready channel implements singleflight:
// the first request for a key inserts the entry and compiles; concurrent
// requests for the same key wait on ready instead of compiling again.
//
// refs/lastUse/evicted are guarded by the owning cache's mutex. refs
// counts requests currently using the entry; an evicted entry's program
// is closed when the last reference drops.
type entry struct {
	key   string
	ready chan struct{}
	res   compiled
	err   error

	refs    int
	lastUse int64
	evicted bool

	// requests counts requests served by this entry (metrics only).
	requests atomic.Int64

	// Synthetic inputs are memoized per seed so warm requests skip buffer
	// allocation and filling entirely (bounded; see inputsFor).
	imu    sync.Mutex
	inputs map[int64]map[string]*engine.Buffer

	// The reference interpreter's outputs for Verify requests, computed at
	// most once per entry (the interpreter is orders of magnitude slower
	// than the engine).
	refOnce sync.Once
	ref     map[string]*engine.Buffer
	refErr  error
}

// reference lazily runs the tree-walking interpreter on the entry's spec
// (unperturbed, at the spec's own seed) and memoizes the outputs.
func (e *entry) reference() (map[string]*engine.Buffer, error) {
	e.refOnce.Do(func() {
		defer func() {
			if r := recover(); r != nil {
				e.refErr = fmt.Errorf("reference build panicked: %v", r)
			}
		}()
		if e.res.spec == nil {
			e.refErr = fmt.Errorf("no spec to verify against")
			return
		}
		rb, err := e.res.spec.Build(false)
		if err != nil {
			e.refErr = err
			return
		}
		e.ref, e.refErr = engine.Reference(rb.Graph, rb.Params, rb.Inputs)
	})
	return e.ref, e.refErr
}

// programCache is the compiled-program cache: keyed lookups, singleflight
// compilation, LRU eviction above a capacity limit, and refcounted close
// so eviction never tears a program out from under an in-flight request.
type programCache struct {
	mu       sync.Mutex
	capacity int
	seq      int64
	entries  map[string]*entry

	hits, misses, compileErrors, evictions int64
}

func newProgramCache(capacity int) *programCache {
	return &programCache{capacity: capacity, entries: make(map[string]*entry)}
}

// acquire returns the entry for key, compiling it via build if absent.
// Exactly one caller runs build per key at a time; concurrent callers wait
// on the result (bounded by ctx). cached reports whether the program
// existed before this call. The caller must release(e) when done with a
// successfully acquired entry. Failed builds are not cached: the entry is
// removed so a later request retries, but every waiter already attached
// gets the same error.
func (c *programCache) acquire(ctx context.Context, key string, build func() (compiled, error)) (e *entry, cached bool, err error) {
	c.mu.Lock()
	if e := c.entries[key]; e != nil {
		e.refs++
		c.touch(e)
		c.hits++
		c.mu.Unlock()
		select {
		case <-e.ready:
		case <-ctx.Done():
			c.release(e)
			return nil, false, ctx.Err()
		}
		if e.err != nil {
			c.release(e)
			return nil, false, e.err
		}
		e.requests.Add(1)
		return e, true, nil
	}
	e = &entry{key: key, ready: make(chan struct{}), refs: 1}
	c.touch(e)
	c.misses++
	c.entries[key] = e
	evict := c.evictLocked()
	c.mu.Unlock()
	closeEntries(evict)

	e.res, e.err = build()
	close(e.ready)
	if e.err != nil {
		c.mu.Lock()
		c.compileErrors++
		if c.entries[key] == e {
			delete(c.entries, key)
		}
		e.evicted = true
		c.mu.Unlock()
		c.release(e)
		return nil, false, e.err
	}
	e.requests.Add(1)
	return e, false, nil
}

// release drops one reference; the last release of an evicted entry
// closes its program (worker pool + arena).
func (c *programCache) release(e *entry) {
	c.mu.Lock()
	e.refs--
	closeNow := e.evicted && e.refs == 0 && e.res.prog != nil
	c.mu.Unlock()
	if closeNow {
		e.res.prog.Close()
	}
}

func (c *programCache) touch(e *entry) {
	c.seq++
	e.lastUse = c.seq
}

// evictLocked drops least-recently-used idle entries until the cache is
// within capacity. Entries still referenced (or still compiling) are
// skipped — the cache may transiently exceed capacity rather than close a
// program mid-request. Returns the entries whose programs the caller must
// close after dropping the lock.
func (c *programCache) evictLocked() []*entry {
	var out []*entry
	for len(c.entries) > c.capacity {
		var victim *entry
		for _, e := range c.entries {
			if e.refs > 0 {
				continue
			}
			if victim == nil || e.lastUse < victim.lastUse {
				victim = e
			}
		}
		if victim == nil {
			break
		}
		delete(c.entries, victim.key)
		victim.evicted = true
		c.evictions++
		if victim.res.prog != nil {
			out = append(out, victim)
		}
	}
	return out
}

func closeEntries(es []*entry) {
	for _, e := range es {
		e.res.prog.Close()
	}
}

// closeAll evicts everything. Entries with live references are marked
// evicted and close on their final release; the rest close here. Called
// by Service.Close after the request drain, so normally nothing is live.
func (c *programCache) closeAll() {
	c.mu.Lock()
	var toClose []*entry
	for k, e := range c.entries {
		delete(c.entries, k)
		e.evicted = true
		if e.refs == 0 && e.res.prog != nil {
			toClose = append(toClose, e)
		}
	}
	c.mu.Unlock()
	closeEntries(toClose)
}

func (c *programCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

type cacheStats struct {
	hits, misses, compileErrors, evictions int64
}

// stats returns the counter snapshot and the live entries (key, label,
// request count, program) for per-program metrics. Executor snapshots are
// taken by the caller outside the cache lock.
func (c *programCache) stats() (cacheStats, []*entry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := cacheStats{c.hits, c.misses, c.compileErrors, c.evictions}
	es := make([]*entry, 0, len(c.entries))
	for _, e := range c.entries {
		select {
		case <-e.ready:
			if e.err == nil {
				es = append(es, e)
			}
		default: // still compiling
		}
	}
	return s, es
}
