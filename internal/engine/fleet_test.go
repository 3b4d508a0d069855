package engine

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
)

// Shared-fleet scheduler tests. Every test here builds a private
// multi-worker fleet through the Options test hook instead of touching the
// process singleton, so the scheduler's deque/steal/park paths are
// exercised regardless of the machine's core count (the singleton is
// GOMAXPROCS-sized, which on a 1-core CI box would leave them dead code).
// Run with -race: these tests are the lifecycle and data-sharing gate for
// the fleet.

// TestFleetCloseDuringRun: Close called while Runs are in flight must wait
// for them to drain (their results stay correct), and any Run observing
// the closed executor must fail with ErrClosed — never a panic or a torn
// result. This is the Close-during-Run lifecycle contract.
func TestFleetCloseDuringRun(t *testing.T) {
	f := newFleet(4)
	prog, inputs, ref := compileHarris(t, ExecOptions{Fast: true, Threads: 4, fleet: f})
	e := prog.Executor()

	var started sync.WaitGroup
	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for g := 0; g < 4; g++ {
		started.Add(1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 6; i++ {
				if i == 1 {
					started.Done()
				}
				out, err := e.Run(inputs)
				if err != nil {
					if !errors.Is(err, ErrClosed) {
						errs <- err
					}
					return
				}
				if eq, msg := out["harris"].Equal(ref["harris"], 1e-5); !eq {
					errs <- &runError{msg}
					return
				}
				e.Recycle(out)
			}
		}()
	}
	started.Wait() // at least one Run per goroutine has completed or is in flight
	prog.Close()   // must drain, not race
	if _, err := e.Run(inputs); !errors.Is(err, ErrClosed) {
		t.Fatalf("Run after Close: err = %v, want ErrClosed", err)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestFleetRecycleAfterCloseDuringRun: Recycle racing Close while Runs are
// still in flight must stay a safe no-op once the close is observed — no
// panic, and no arena traffic after the executor refuses new work.
func TestFleetRecycleAfterCloseDuringRun(t *testing.T) {
	f := newFleet(4)
	prog, inputs, _ := compileHarris(t, ExecOptions{Fast: true, Threads: 4, ReuseBuffers: true, fleet: f})
	e := prog.Executor()

	outs := make(chan map[string]*Buffer, 64)
	var runners, wg sync.WaitGroup
	errs := make(chan error, 32)
	for g := 0; g < 3; g++ {
		runners.Add(1)
		go func() {
			defer runners.Done()
			for i := 0; i < 8; i++ {
				out, err := e.Run(inputs)
				if err != nil {
					if !errors.Is(err, ErrClosed) {
						errs <- err
					}
					return
				}
				outs <- out
			}
		}()
	}
	wg.Add(1)
	go func() { // recycler racing the runs and the close
		defer wg.Done()
		for out := range outs {
			e.Recycle(out)
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		prog.Close()
		// After Close, Recycle must be an inert no-op even while other
		// goroutines still hold pre-close outputs.
		e.Recycle(map[string]*Buffer{"harris": NewBuffer(nil)})
	}()
	runners.Wait()
	close(outs)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestFleetConcurrentSameProgram: concurrent Run calls on one program no
// longer serialize — they share the fleet and each must still produce the
// reference result (per-run slot tables must not bleed across runs).
func TestFleetConcurrentSameProgram(t *testing.T) {
	f := newFleet(4)
	for _, reuse := range []bool{false, true} {
		prog, inputs, ref := compileHarris(t, ExecOptions{Fast: true, Threads: 4, ReuseBuffers: reuse, fleet: f})
		var wg sync.WaitGroup
		errs := make(chan error, 64)
		var inFlight, peak atomic.Int64
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 4; i++ {
					n := inFlight.Add(1)
					for {
						p := peak.Load()
						if n <= p || peak.CompareAndSwap(p, n) {
							break
						}
					}
					out, err := prog.Run(inputs)
					inFlight.Add(-1)
					if err != nil {
						errs <- err
						return
					}
					if eq, msg := out["harris"].Equal(ref["harris"], 1e-5); !eq {
						errs <- &runError{msg}
						return
					}
					prog.Executor().Recycle(out)
				}
			}()
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatalf("reuse=%v: %v", reuse, err)
		}
		if peak.Load() < 2 {
			t.Logf("reuse=%v: peak in-flight %d (scheduling noise; runs may not have overlapped)", reuse, peak.Load())
		}
		prog.Close()
	}
}

// TestFleetMultiProgram: several programs share one fleet; their tasks
// interleave on the same workers, so program-keyed worker state must never
// cross-contaminate results.
func TestFleetMultiProgram(t *testing.T) {
	f := newFleet(4)
	const programs = 3
	progs := make([]*Program, programs)
	ins := make([]map[string]*Buffer, programs)
	refs := make([]map[string]*Buffer, programs)
	for i := range progs {
		progs[i], ins[i], refs[i] = compileHarris(t, ExecOptions{Fast: true, Threads: 4, ReuseBuffers: true, fleet: f})
		defer progs[i].Close()
	}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for i := range progs {
		for g := 0; g < 2; g++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				for k := 0; k < 4; k++ {
					out, err := progs[i].Run(ins[i])
					if err != nil {
						errs <- err
						return
					}
					if eq, msg := out["harris"].Equal(refs[i]["harris"], 1e-5); !eq {
						errs <- &runError{msg}
						return
					}
					progs[i].Executor().Recycle(out)
				}
			}(i)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestFleetSnapshotSizes: Snapshot reports the process fleet size and the
// program's effective (clamped) parallelism.
func TestFleetSnapshotSizes(t *testing.T) {
	f := newFleet(4)
	prog, inputs, _ := compileHarris(t, ExecOptions{Fast: true, Threads: 64, Metrics: true, fleet: f})
	defer prog.Close()
	e := prog.Executor()
	out, err := e.Run(inputs)
	if err != nil {
		t.Fatal(err)
	}
	e.Recycle(out)
	snap := e.Snapshot()
	if snap.Workers.Fleet != 4 {
		t.Fatalf("Snapshot fleet size = %d, want 4", snap.Workers.Fleet)
	}
	if snap.Workers.Workers != 4 {
		t.Fatalf("Snapshot workers = %d, want Threads clamped to fleet size 4", snap.Workers.Workers)
	}
}

// TestFleetStubsDrainAcrossSteals exercises the steal path directly: one
// deque gets every stub (fleet of 2 with submissions biased by a tiny
// fleet), and correctness must not depend on which worker drains them.
func TestFleetStubsDrainAcrossSteals(t *testing.T) {
	f := newFleet(2)
	prog, inputs, ref := compileHarris(t, ExecOptions{Fast: true, Threads: 2, fleet: f})
	defer prog.Close()
	for i := 0; i < 8; i++ {
		out, err := prog.Run(inputs)
		if err != nil {
			t.Fatal(err)
		}
		if eq, msg := out["harris"].Equal(ref["harris"], 1e-5); !eq {
			t.Fatalf("run %d differs: %s", i, msg)
		}
		prog.Executor().Recycle(out)
	}
}
