package engine

import (
	"os"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
)

// The fleet is the process-wide work-stealing scheduler shared by every
// Executor. Where each compiled Program used to own a private goroutine
// pool — so a serving process with N cached programs ran N pools that
// oversubscribed the machine N-fold, and a hot program could not borrow an
// idle cold program's workers — all parallel sections of all in-flight
// runs of all programs now feed one GOMAXPROCS-sized worker set:
//
//   - each fleet worker owns a deque of section stubs: it pops its own
//     deque LIFO (the stub it pushed last is the cache-warmest) and steals
//     FIFO from its neighbours when its own deque drains (the oldest stub
//     is the one its owner is least likely to reach soon);
//   - a stub is not a tile but a drain loop: every stub of a section pulls
//     tile/chunk indices from the section's shared atomic counter until
//     none remain, so tile-granular load balance inside a section comes
//     from the counter and cross-program balance from stealing;
//   - per-worker evaluation state (RowCtx, scratchpads, row-VM register
//     files, metric shards) is keyed by program: fleet worker i
//     lazily materializes one state per Executor it touches (Executor.fws,
//     slot i is only ever accessed by fleet goroutine i), so picking up a
//     task from any program needs no reallocation and no locks;
//   - the barrier of a parallel section is the section's own WaitGroup — a
//     per-run countdown, not a pool drain — which is what lets multiple
//     Run calls on the same Program proceed concurrently.
//
// The fleet is sized to runtime.GOMAXPROCS(0) at first use (override with
// the POLYMAGE_FLEET environment variable, mainly for scheduler tests on
// small machines) and its goroutines live for the life of the process,
// parked on a condition variable whenever every deque is empty.
type fleet struct {
	size    int
	workers []*fleetWorker

	// cursor round-robins stub submission across deques so one burst does
	// not land on a single worker.
	cursor atomic.Uint64

	// Parking. gen increments under mu on every submit; an idle worker
	// loads gen before scanning the deques and sleeps only while gen is
	// unchanged, so a submission between its failed scan and its wait can
	// never be slept through.
	mu   sync.Mutex
	cond *sync.Cond
	gen  atomic.Uint64

	startOnce sync.Once
}

// fleetWorker is one worker's deque. dq[0] is the oldest stub (the steal
// end), dq[len-1] the newest (the owner's end). Stubs are coarse (at most
// threads-1 per parallel section), so a small mutex-guarded slice beats a
// lock-free deque here; per-tile balance comes from the section counters.
type fleetWorker struct {
	id int
	mu sync.Mutex
	dq []fleetTask
}

// fleetTask is one queued stub: the section task plus the Executor whose
// per-worker state it must run under.
type fleetTask struct {
	e *Executor
	t task
}

func newFleet(size int) *fleet {
	if size < 1 {
		size = 1
	}
	f := &fleet{size: size, workers: make([]*fleetWorker, size)}
	f.cond = sync.NewCond(&f.mu)
	for i := range f.workers {
		f.workers[i] = &fleetWorker{id: i}
	}
	return f
}

var (
	fleetOnce sync.Once
	procFleet *fleet
)

// defaultFleet returns the process-wide fleet, creating it on first use.
func defaultFleet() *fleet {
	fleetOnce.Do(func() {
		n := runtime.GOMAXPROCS(0)
		if s := os.Getenv("POLYMAGE_FLEET"); s != "" {
			if v, err := strconv.Atoi(s); err == nil && v >= 1 && v <= 1024 {
				n = v
			}
		}
		procFleet = newFleet(n)
	})
	return procFleet
}

// start spawns the worker goroutines, once; a process that never runs a
// parallel section never spawns any.
func (f *fleet) start() {
	f.startOnce.Do(func() {
		for _, fw := range f.workers {
			go f.loop(fw)
		}
	})
}

// submit enqueues n stubs of one section, spread round-robin over the
// deques, and wakes any parked workers.
func (f *fleet) submit(e *Executor, t task, n int) {
	f.start()
	ft := fleetTask{e: e, t: t}
	for k := 0; k < n; k++ {
		fw := f.workers[int(f.cursor.Add(1)-1)%f.size]
		fw.mu.Lock()
		fw.dq = append(fw.dq, ft)
		fw.mu.Unlock()
	}
	f.mu.Lock()
	f.gen.Add(1)
	f.cond.Broadcast()
	f.mu.Unlock()
}

func (f *fleet) loop(fw *fleetWorker) {
	for {
		gen := f.gen.Load()
		if ft, ok := fw.pop(); ok {
			f.exec(fw, ft)
			continue
		}
		if ft, ok := f.steal(fw); ok {
			f.exec(fw, ft)
			continue
		}
		f.mu.Lock()
		for f.gen.Load() == gen {
			f.cond.Wait()
		}
		f.mu.Unlock()
	}
}

// exec runs a stub under the owning program's state for this fleet worker.
func (f *fleet) exec(fw *fleetWorker, ft fleetTask) {
	ft.t.run(ft.e.workerFor(fw.id))
}

// pop takes the newest stub from the worker's own deque (LIFO).
func (fw *fleetWorker) pop() (fleetTask, bool) {
	fw.mu.Lock()
	n := len(fw.dq)
	if n == 0 {
		fw.mu.Unlock()
		return fleetTask{}, false
	}
	ft := fw.dq[n-1]
	fw.dq[n-1] = fleetTask{}
	fw.dq = fw.dq[:n-1]
	fw.mu.Unlock()
	return ft, true
}

// steal takes the oldest stub from the first non-empty neighbour deque
// (FIFO), scanning from the thief's successor so steal pressure spreads.
func (f *fleet) steal(self *fleetWorker) (fleetTask, bool) {
	for k := 1; k < f.size; k++ {
		fw := f.workers[(self.id+k)%f.size]
		fw.mu.Lock()
		if n := len(fw.dq); n > 0 {
			ft := fw.dq[0]
			copy(fw.dq, fw.dq[1:])
			fw.dq[n-1] = fleetTask{}
			fw.dq = fw.dq[:n-1]
			fw.mu.Unlock()
			return ft, true
		}
		fw.mu.Unlock()
	}
	return fleetTask{}, false
}
