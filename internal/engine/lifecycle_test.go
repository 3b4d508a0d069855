package engine

import (
	"errors"
	"sync"
	"testing"

	"repro/internal/affine"
)

// Lifecycle edge cases of the persistent Executor: misuse must produce
// errors or no-ops, never panics or corrupted later runs.

// TestRunNilInputBuffer: a nil *Buffer in the input map must be rejected
// like a missing key, not dereferenced.
func TestRunNilInputBuffer(t *testing.T) {
	prog, _, _ := compileHarris(t, ExecOptions{Threads: 1})
	defer prog.Close()
	_, err := prog.Run(map[string]*Buffer{"I": nil})
	if !errors.Is(err, ErrNilInput) {
		t.Fatalf("Run with nil input buffer: err = %v, want ErrNilInput", err)
	}
	_, err = prog.Run(nil)
	if !errors.Is(err, ErrNilInput) {
		t.Fatalf("Run with nil input map: err = %v, want ErrNilInput", err)
	}
}

// TestRecycleEdgeCases: nil maps, nil buffers, foreign buffers and
// unknown names must all be ignored without a panic, and must not poison
// the arena for later runs.
func TestRecycleEdgeCases(t *testing.T) {
	prog, inputs, ref := compileHarris(t, ExecOptions{Fast: true, Threads: 2})
	defer prog.Close()
	e := prog.Executor()

	e.Recycle(nil)
	e.Recycle(map[string]*Buffer{"harris": nil})                 // nil buffer
	e.Recycle(map[string]*Buffer{"not-a-stage": NewBuffer(nil)}) // unknown name
	e.Recycle(map[string]*Buffer{"I": inputs["I"]})              // input, not a stage
	foreign := NewBuffer(affine.Box{{Lo: 0, Hi: 7}, {Lo: 0, Hi: 7}})
	e.Recycle(map[string]*Buffer{"harris": foreign}) // foreign but stage-named: taken

	out, err := e.Run(inputs)
	if err != nil {
		t.Fatal(err)
	}
	if eq, msg := out["harris"].Equal(ref["harris"], 1e-5); !eq {
		t.Fatalf("run after odd Recycles differs: %s", msg)
	}
}

// TestRecycleAfterClose: handing buffers back to a closed executor is a
// no-op (nothing to serve them to), not a panic.
func TestRecycleAfterClose(t *testing.T) {
	prog, inputs, _ := compileHarris(t, ExecOptions{Fast: true, Threads: 2})
	out, err := prog.Run(inputs)
	if err != nil {
		t.Fatal(err)
	}
	e := prog.Executor()
	prog.Close()
	prog.Close() // double Close stays idempotent
	e.Recycle(out)
	hits := e.Snapshot().Arena.Hits
	if _, err := prog.Run(inputs); !errors.Is(err, ErrClosed) {
		t.Fatalf("Run after Close: err = %v, want ErrClosed", err)
	}
	if e.Snapshot().Arena.Hits != hits {
		t.Fatal("closed executor served arena buffers")
	}
}

// TestConcurrentRunRecycleClose races Run, Recycle and Close against each
// other (run with -race): every Run must either succeed with correct
// values or fail with the closed-executor error.
func TestConcurrentRunRecycleClose(t *testing.T) {
	prog, inputs, ref := compileHarris(t, ExecOptions{Fast: true, Threads: 2, ReuseBuffers: true})
	e := prog.Executor()
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				out, err := prog.Run(inputs)
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
	wg.Add(1)
	go func() {
		defer wg.Done()
		prog.Close()
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

type runError struct{ msg string }

func (e *runError) Error() string { return e.msg }
