package engine

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/affine"
	"repro/internal/obs"
)

// extShards is the number of metric shards reserved for run-context
// (caller-side) workers on top of the fleet workers' shards. Run contexts
// beyond extShards share shards round-robin; shard counters are atomic
// adds, so sharing is safe — at worst two very concurrent callers contend
// on one cache line.
const extShards = 4

// Executor is the persistent execution runtime attached to a compiled
// Program. It owns
//
//   - the program's slice of the process-wide worker fleet: per-fleet-worker
//     evaluation state (RowCtx, scratchpads, row-VM registers, metric
//     shards) materialized lazily and reused across groups and Run calls —
//     the fleet's goroutines themselves are shared by every program in the
//     process (see fleet.go), and
//   - a cross-run buffer arena (size-class best-fit) from which all full
//     buffers are drawn: intermediates return to it automatically at the
//     end of their liveness, outputs when the caller hands them back via
//     Recycle,
//
// so repeated Run invocations on the same Program reach near-zero
// steady-state allocations — the compile-once/run-many amortization a
// serving workload needs.
//
// Thread-safety contract: Run may be called concurrently from any number
// of goroutines and calls do NOT serialize — each run carries its own slot
// table, liveness map and caller-side worker (a runCtx), and its parallel
// sections feed the shared fleet, so several runs of one program make
// progress together on an idle machine. Output buffers returned by Run are
// owned by the caller and are never reused by the Executor until (and
// unless) returned with Recycle; Recycle and Snapshot are safe
// to call concurrently with Run. Close marks the executor closed (further
// Run calls fail with ErrClosed) and waits for every in-flight run to
// drain before returning.
type Executor struct {
	p       *Program
	fleet   *fleet
	threads int // effective parallelism: min(Opts.Threads or GOMAXPROCS, fleet size)

	arena arena

	// vmRegBytes aggregates row-VM register occupancy across all workers
	// (fleet + run contexts); shared by reference so Snapshot never walks
	// per-worker state.
	vmRegBytes atomic.Int64

	// rec is the metrics recorder; nil unless ExecOptions.Metrics was set when
	// the executor was created. Workers carry their shard, so the disabled
	// hot path is a single nil check.
	rec *obs.Recorder

	// fws holds this program's per-fleet-worker evaluation state, indexed
	// by fleet worker id. Slot i is only ever touched by fleet goroutine i
	// (stolen stubs still execute on the thief's own goroutine against the
	// thief's slot), so access needs no locks.
	fws []*worker

	// Lifecycle: Run registers with inflight under stateMu; Close flips
	// closed and waits on drained until inflight hits zero. closed is
	// additionally an atomic so Recycle stays lock-free.
	stateMu  sync.Mutex
	drained  *sync.Cond
	inflight int
	closed   atomic.Bool

	// Free list of run contexts (slot table + liveness map + caller-side
	// worker), so steady-state runs reuse their per-run state.
	rcMu   sync.Mutex
	rcFree []*runCtx
	rcSeq  int
}

// runCtx is the per-run execution state that used to live on the Executor
// (guarded by the removed runMu): the slot table the run's workers bind
// their buffer views from, the pooled-execution liveness map, and the
// calling goroutine's own worker — used for sequential sections and for
// the caller's participation in parallel ones.
type runCtx struct {
	base []*Buffer
	live map[string]*Buffer
	w    *worker
	// fc is non-nil while the run belongs to a frame stream: it carries the
	// previous frame's retained buffers and the dirty-region state that
	// runGroup consults (see stream.go). Cleared before the context
	// returns to the free list.
	fc *frameCtx
}

// bind refreshes a worker's slot table from this run's base buffers;
// called at the start of every task because fleet workers hop between
// groups, runs and programs (stale bindings must not leak through).
func (rc *runCtx) bind(w *worker) {
	copy(w.ctx.bufs, rc.base)
}

// worker wraps the per-goroutine evaluation state. Workers are persistent:
// scratch buffers, row-VM registers and the small per-task slices
// below survive across groups, runs and (for fleet workers) programs'
// idle periods.
type worker struct {
	ctx RowCtx
	// scratch holds the tile scratchpad of every stage, by stage id.
	scratch []*Buffer

	// shard is the worker's private metric shard (nil with metrics off).
	shard *obs.Shard

	// Reusable per-task scratch: the tile odometer, the required-region
	// boxes of each group's plan (by group id, then member position), an
	// accumulator row's flat target offsets, region clones (an
	// accumulator's share, a self-referencing stage's row or point) and the
	// owned box of the member in hand.
	tileIdx []int64
	req     [][]affine.Box
	accOffs []int64
	region  affine.Box
	iBox    affine.Box
	ownBox  affine.Box

	// genBufs/genCtx are the reusable call frame for generated kernels
	// (Program.genLoop): the read-buffer slice and context are rebound per
	// piece, so dispatching to a compiled kernel allocates nothing.
	genBufs []*Buffer
	genCtx  GenCtx
}

// task is one unit of fleet work: fn pulls work items from a shared atomic
// counter until none remain, reporting failures through err and counting
// down the section's barrier through wg.
type task struct {
	fn  func(*worker, *firstErr)
	wg  *sync.WaitGroup
	err *firstErr
}

func (t task) run(w *worker) {
	defer t.wg.Done()
	if w.shard != nil {
		t0 := obs.Now()
		defer func() { w.shard.Busy(obs.Now() - t0) }()
	}
	defer func() {
		// Debug-mode access checks panic with context; surface them as
		// errors rather than crashing the fleet worker.
		if r := recover(); r != nil {
			t.err.set(fmt.Errorf("engine: %v", r))
		}
	}()
	t.fn(w, t.err)
}

// firstErr records the first error of a parallel section (atomic, so any
// error type is safe, unlike atomic.Value).
type firstErr struct{ p atomic.Pointer[error] }

func (f *firstErr) set(err error) {
	if err != nil {
		f.p.CompareAndSwap(nil, &err)
	}
}

func (f *firstErr) get() error {
	if p := f.p.Load(); p != nil {
		return *p
	}
	return nil
}

func (f *firstErr) isSet() bool { return f.p.Load() != nil }

func newExecutor(p *Program) *Executor {
	f, t := p.Opts.fleetOf()
	e := &Executor{
		p:       p,
		fleet:   f,
		threads: t,
		fws:     make([]*worker, f.size),
	}
	e.drained = sync.NewCond(&e.stateMu)
	if p.Opts.Metrics {
		// Shards 0..fleet-1 belong to the fleet workers, the rest to run
		// contexts (round-robin beyond extShards).
		e.rec = obs.NewRecorder(p.stageNames, p.groupNames, f.size+extShards)
	}
	return e
}

// Executor returns the Program's persistent runtime, creating it on first
// use; Program.Run is a thin wrapper over it.
func (p *Program) Executor() *Executor {
	p.execOnce.Do(func() { p.exec = newExecutor(p) })
	return p.exec
}

// Close releases the Program's executor (drains in-flight runs and rejects
// new ones). The Program must not be run afterwards.
func (p *Program) Close() { p.Executor().Close() }

func (e *Executor) newWorker(shard int) *worker {
	p := e.p
	w := &worker{
		scratch: make([]*Buffer, len(p.stageNames)),
		req:     make([][]affine.Box, len(p.groups)),
		shard:   e.rec.Shard(shard),
	}
	w.ctx.pt = make([]int64, p.maxDims)
	w.ctx.bufs = make([]*Buffer, p.slotCount)
	w.ctx.vm.gauge = &e.vmRegBytes
	return w
}

// workerFor returns this program's evaluation state for fleet worker i,
// creating it on first use. Only fleet goroutine i ever calls workerFor(i)
// on any executor, so the slot needs no synchronization.
func (e *Executor) workerFor(i int) *worker {
	if w := e.fws[i]; w != nil {
		return w
	}
	w := e.newWorker(i)
	e.fws[i] = w
	return w
}

// acquireRun checks a run context out of the free list (or builds one).
func (e *Executor) acquireRun() *runCtx {
	e.rcMu.Lock()
	if n := len(e.rcFree); n > 0 {
		rc := e.rcFree[n-1]
		e.rcFree[n-1] = nil
		e.rcFree = e.rcFree[:n-1]
		e.rcMu.Unlock()
		return rc
	}
	seq := e.rcSeq
	e.rcSeq++
	e.rcMu.Unlock()
	return &runCtx{
		base: make([]*Buffer, e.p.slotCount),
		live: make(map[string]*Buffer),
		w:    e.newWorker(e.fleet.size + seq%extShards),
	}
}

func (e *Executor) releaseRun(rc *runCtx) {
	for i := range rc.base {
		rc.base[i] = nil
	}
	clear(rc.live)
	rc.fc = nil
	e.rcMu.Lock()
	e.rcFree = append(e.rcFree, rc)
	e.rcMu.Unlock()
}

// parallel runs fn on up to n workers and waits for all of them; fn must
// pull its work from a shared counter so any subset of workers can drain
// it. The calling goroutine always participates with the run's own worker;
// the other n-1 stubs are submitted to the shared fleet, where any fleet
// worker — busy or not with other programs — may pick them up. The
// WaitGroup is this section's private countdown: no other run, and no
// other section of this run, is waited on. With n ≤ 1 fn runs inline.
func (e *Executor) parallel(rc *runCtx, n int, fn func(*worker, *firstErr)) error {
	if n > e.threads {
		n = e.threads
	}
	var fe firstErr
	var wg sync.WaitGroup
	t := task{fn: fn, wg: &wg, err: &fe}
	if n <= 1 {
		wg.Add(1)
		t.run(rc.w)
		return fe.get()
	}
	wg.Add(n)
	e.fleet.submit(e, t, n-1)
	t.run(rc.w)
	wg.Wait()
	return fe.get()
}

// Close marks the executor closed and waits for in-flight runs to drain:
// a Run that began before Close completes normally (Close returns only
// after it has), a Run that begins after fails deterministically with
// ErrClosed. Safe to call more than once and concurrently with Run. The
// fleet's goroutines are process-wide and are not stopped; this program's
// per-worker state simply becomes garbage with the executor.
func (e *Executor) Close() {
	e.stateMu.Lock()
	e.closed.Store(true)
	for e.inflight > 0 {
		e.drained.Wait()
	}
	e.stateMu.Unlock()
}

// beginRun registers a run for the Close drain; it fails once Close has
// been observed, so closed executors reject work deterministically.
func (e *Executor) beginRun() error {
	e.stateMu.Lock()
	defer e.stateMu.Unlock()
	if e.closed.Load() {
		return fmt.Errorf("engine: Run on closed executor: %w", ErrClosed)
	}
	e.inflight++
	return nil
}

func (e *Executor) endRun() {
	e.stateMu.Lock()
	e.inflight--
	if e.inflight == 0 {
		e.drained.Broadcast()
	}
	e.stateMu.Unlock()
}

// Recycle returns output buffers from a previous Run to the executor's
// arena so later runs reuse their storage. Only buffers for the Program's
// own stages are taken (inputs, nil entries and unknown names in the map
// are ignored). The caller must be done with the buffers and must not
// pass the same map twice. After Close, Recycle is a no-op: a closed
// executor serves no further runs, so keeping the storage would only pin
// memory.
func (e *Executor) Recycle(outputs map[string]*Buffer) {
	if e.closed.Load() {
		return
	}
	for name, b := range outputs {
		if b == nil {
			continue
		}
		if _, ok := e.p.Graph.Stages[name]; ok {
			e.arena.put(b)
		}
	}
}

// Snapshot returns a consistent merged view of the executor's metrics:
// per-stage kernel time/points/recomputation, per-group tiles against the
// tile plan, worker utilization and the buffer arena. Arena counters are
// always present; the rest requires the program to have been compiled
// with ExecOptions.Metrics (Snapshot.Enabled reports which). Workers reports
// the program's effective parallelism (its Threads option clamped to the
// fleet) and Fleet the process-wide fleet size. Safe to call concurrently
// with Run — totals grow monotonically between calls.
func (e *Executor) Snapshot() obs.Snapshot {
	snap := e.rec.Snapshot() // nil-safe: zero snapshot with Enabled=false
	hits, misses, pooled, pooledBytes := e.arena.gauge()
	snap.Arena = obs.ArenaStats{Hits: hits, Misses: misses, Pooled: pooled, PooledBytes: pooledBytes}
	snap.TempPools = obs.TempPoolStats{VMRegBytes: e.vmRegBytes.Load()}
	if !snap.Enabled {
		return snap
	}
	snap.Workers.Workers = e.threads
	snap.Workers.Fleet = e.fleet.size
	if snap.WallNanos > 0 && e.threads > 0 {
		snap.Workers.Utilization = float64(snap.Workers.BusyNanos) / (float64(snap.WallNanos) * float64(e.threads))
	}
	for i, ge := range e.p.groups {
		g := &snap.Groups[i]
		g.Members = append([]string(nil), ge.grp.Members...)
		g.OverlapRatio = append([]float64(nil), ge.grp.OverlapRatio...)
		g.PlannedTiles = ge.tp.NumTiles()
	}
	return snap
}

// Run executes the compiled pipeline on the given input images; see
// Program.Run for the output contract. Concurrent calls proceed together:
// each run owns a private run context and its tile tasks interleave with
// every other in-flight run's on the shared fleet.
func (e *Executor) Run(inputs map[string]*Buffer) (map[string]*Buffer, error) {
	if err := e.beginRun(); err != nil {
		return nil, err
	}
	defer e.endRun()
	rc := e.acquireRun()
	defer e.releaseRun(rc)
	if e.rec == nil {
		return e.run(rc, inputs)
	}
	t0 := obs.Now()
	out, err := e.run(rc, inputs)
	if err == nil {
		// Failed runs (input validation, mid-run errors) are not counted:
		// Snapshot.Runs × per-run totals must stay a meaningful average.
		e.rec.RecordRun(obs.Now() - t0)
	}
	return out, err
}

// run is Run's body; the caller has registered the run and owns rc.
func (e *Executor) run(rc *runCtx, inputs map[string]*Buffer) (map[string]*Buffer, error) {
	p := e.p
	base := rc.base
	for i := range base {
		base[i] = nil
	}
	for name := range p.Graph.Images {
		buf, ok := inputs[name]
		if !ok || buf == nil {
			return nil, fmt.Errorf("engine: missing input image %q: %w", name, ErrNilInput)
		}
		want, err := p.InputBox(name)
		if err != nil {
			return nil, err
		}
		if len(buf.Box) != len(want) {
			return nil, fmt.Errorf("engine: input %q rank %d, want %d: %w", name, len(buf.Box), len(want), ErrShape)
		}
		for d := range want {
			if buf.Box[d] != want[d] {
				return nil, fmt.Errorf("engine: input %q dim %d is %v, want %v: %w", name, d, buf.Box[d], want[d], ErrShape)
			}
		}
		// Loads specialize on the slot's element type at compile time, so the
		// buffer handed in must match exactly (float32 unless NarrowTypes
		// narrowed a uint8 image slot).
		if wantElem := p.slotElem[p.slots[name]]; buf.Elem != wantElem {
			return nil, fmt.Errorf("engine: input %q element type %s, want %s: %w", name, buf.Elem, wantElem, ErrShape)
		}
		base[p.slots[name]] = buf
	}
	if p.Opts.ReuseBuffers && rc.fc == nil {
		// Streamed frames (rc.fc set) never pool: every full stage must be
		// retained so the next frame can copy clean regions and feed
		// feedback inputs from it.
		return e.runPooled(rc)
	}
	outputs := make(map[string]*Buffer, len(p.fullStages))
	for _, name := range p.fullStages {
		ls := p.stages[name]
		buf := e.arena.get(ls.dom, ls.elem)
		outputs[name] = buf
		base[ls.slot] = buf
	}
	for _, ge := range p.groups {
		if err := e.runGroup(rc, ge, outputs); err != nil {
			return nil, err
		}
	}
	return outputs, nil
}

// runPooled executes with liveness-based buffer pooling: each group's full
// buffers come from the arena and return to it after their last consumer
// group executes (the allocation/release schedule is precomputed at
// compile time), so across runs the steady state allocates nothing but the
// returned output map.
func (e *Executor) runPooled(rc *runCtx) (map[string]*Buffer, error) {
	p := e.p
	outputs := make(map[string]*Buffer, len(p.Graph.LiveOuts))
	live := rc.live
	clear(live)
	for _, ge := range p.groups {
		for _, ls := range ge.allocs {
			if live[ls.name] != nil {
				continue
			}
			buf := e.arena.get(ls.dom, ls.elem)
			live[ls.name] = buf
			rc.base[ls.slot] = buf
			if p.isOutput[ls.name] {
				outputs[ls.name] = buf
			}
		}
		if err := e.runGroup(rc, ge, live); err != nil {
			return nil, err
		}
		for _, ls := range ge.releases {
			if buf := live[ls.name]; buf != nil {
				e.arena.put(buf)
				delete(live, ls.name)
				rc.base[ls.slot] = nil
			}
		}
	}
	return outputs, nil
}
