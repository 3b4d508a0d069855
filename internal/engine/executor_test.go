package engine

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/affine"
	"repro/internal/inline"
	"repro/internal/schedule"
)

func compileHarris(t testing.TB, opts ExecOptions) (*Program, map[string]*Buffer, map[string]*Buffer) {
	t.Helper()
	return compileHarrisWith(t, schedule.Options{TileSizes: []int64{16, 32}, MinTileExtent: 8}, opts)
}

// compileHarrisWith is compileHarris under the given schedule options.
func compileHarrisWith(t testing.TB, sopts schedule.Options, opts ExecOptions) (*Program, map[string]*Buffer, map[string]*Buffer) {
	t.Helper()
	g, params, inputs := harrisPipeline(t)
	ref, err := Reference(g, params, inputs)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := inline.Apply(g, inline.DefaultOptions()); err != nil {
		t.Fatal(err)
	}
	gr, err := schedule.BuildGroups(g, params, sopts)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := Compile(gr, params, opts)
	if err != nil {
		t.Fatal(err)
	}
	return prog, inputs, ref
}

// TestConcurrentRun exercises the Executor's thread-safety contract: Run
// called from many goroutines simultaneously (with and without buffer
// pooling) must serialize internally and every call must produce the
// reference values. Run under -race this is the pool's main stress test.
func TestConcurrentRun(t *testing.T) {
	for _, reuse := range []bool{false, true} {
		t.Run(fmt.Sprintf("reuse=%v", reuse), func(t *testing.T) {
			prog, inputs, ref := compileHarris(t, ExecOptions{Fast: true, Threads: 4, ReuseBuffers: reuse})
			defer prog.Close()
			const goroutines = 6
			const runsEach = 4
			var wg sync.WaitGroup
			errs := make(chan error, goroutines*runsEach)
			for i := 0; i < goroutines; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for r := 0; r < runsEach; r++ {
						out, err := prog.Run(inputs)
						if err != nil {
							errs <- err
							return
						}
						if eq, msg := out["harris"].Equal(ref["harris"], 1e-5); !eq {
							errs <- fmt.Errorf("output differs: %s", msg)
							return
						}
						// Hand the outputs back mid-flight: Recycle must be
						// safe concurrently with other goroutines' Run calls.
						prog.Executor().Recycle(out)
					}
				}()
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Fatal(err)
			}
		})
	}
}

// TestExecutorSteadyState checks the compile-once/run-many contract: after
// the first run recycles its outputs, later runs draw every full buffer
// from the arena (zero fresh buffer allocations) and still produce the
// reference values.
func TestExecutorSteadyState(t *testing.T) {
	for _, reuse := range []bool{false, true} {
		t.Run(fmt.Sprintf("reuse=%v", reuse), func(t *testing.T) {
			prog, inputs, ref := compileHarris(t, ExecOptions{Fast: true, Threads: 2, ReuseBuffers: reuse})
			defer prog.Close()
			e := prog.Executor()
			out, err := e.Run(inputs)
			if err != nil {
				t.Fatal(err)
			}
			e.Recycle(out)
			missesAfterWarmup := e.Snapshot().Arena.Misses
			for i := 0; i < 5; i++ {
				out, err := e.Run(inputs)
				if err != nil {
					t.Fatal(err)
				}
				if eq, msg := out["harris"].Equal(ref["harris"], 1e-5); !eq {
					t.Fatalf("run %d differs: %s", i, msg)
				}
				e.Recycle(out)
			}
			misses := e.Snapshot().Arena.Misses
			if misses != missesAfterWarmup {
				t.Errorf("steady-state runs allocated %d fresh buffers, want 0", misses-missesAfterWarmup)
			}
		})
	}
}

// TestExecutorOutputsNotAliased: without Recycle, buffers returned to the
// caller must never be reused by later runs.
func TestExecutorOutputsNotAliased(t *testing.T) {
	prog, inputs, _ := compileHarris(t, ExecOptions{Fast: true, Threads: 1, ReuseBuffers: true})
	defer prog.Close()
	out1, err := prog.Run(inputs)
	if err != nil {
		t.Fatal(err)
	}
	snapshot := append([]float32(nil), out1["harris"].Data...)
	out2, err := prog.Run(inputs)
	if err != nil {
		t.Fatal(err)
	}
	if &out1["harris"].Data[0] == &out2["harris"].Data[0] {
		t.Fatal("second Run reused an un-recycled output buffer")
	}
	for i, v := range out1["harris"].Data {
		if v != snapshot[i] {
			t.Fatalf("un-recycled output mutated at %d", i)
		}
	}
}

// TestBoxesAreCopies: the boxes InputBox and OutputBox return belong to the
// caller. Changing them changes neither what the next Run validates its
// inputs against nor what the next call returns.
func TestBoxesAreCopies(t *testing.T) {
	prog, inputs, _ := compileHarris(t, ExecOptions{Threads: 1})
	defer prog.Close()
	for _, get := range []struct {
		name string
		box  func() (affine.Box, error)
	}{
		{"InputBox(I)", func() (affine.Box, error) { return prog.InputBox("I") }},
		{"OutputBox(harris)", func() (affine.Box, error) { return prog.OutputBox("harris") }},
	} {
		box, err := get.box()
		if err != nil {
			t.Fatal(err)
		}
		want := fmt.Sprint(box)
		box[0].Hi += 5
		box[1] = affine.Range{Lo: 1, Hi: 0}
		if _, err := prog.Run(inputs); err != nil {
			t.Fatalf("Run after changing the box %s returned: %v", get.name, err)
		}
		again, err := get.box()
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(again) != want {
			t.Errorf("%s = %v after a caller changed the box it returned, want %s", get.name, again, want)
		}
	}
}

func TestExecutorClose(t *testing.T) {
	prog, inputs, _ := compileHarris(t, ExecOptions{Fast: true, Threads: 2})
	if _, err := prog.Run(inputs); err != nil {
		t.Fatal(err)
	}
	prog.Close()
	prog.Close() // idempotent
	if _, err := prog.Run(inputs); err == nil {
		t.Fatal("Run on closed executor should fail")
	}
}

func TestArenaSizeClasses(t *testing.T) {
	var a arena
	box := func(n int64) affine.Box { return affine.Box{{Lo: 0, Hi: n - 1}} }
	b1 := a.get(box(100), ElemF32)
	b2 := a.get(box(1000), ElemF32)
	a.put(b1)
	a.put(b2)
	// A request fitting the small buffer must take it, not the large one.
	g := a.get(box(90), ElemF32)
	if cap(g.Data) != cap(b1.Data) {
		t.Errorf("expected best-fit reuse of the 100-element buffer, got cap %d", cap(g.Data))
	}
	// A request larger than the small one must take the large one.
	g2 := a.get(box(500), ElemF32)
	if cap(g2.Data) != cap(b2.Data) {
		t.Errorf("expected reuse of the 1000-element buffer, got cap %d", cap(g2.Data))
	}
	// Nothing left: fresh allocation.
	hits, misses, _, _ := a.gauge()
	if hits != 2 {
		t.Errorf("hits = %d, want 2", hits)
	}
	if misses != 2 {
		t.Errorf("misses = %d, want 2", misses)
	}
	// Recycled buffers read as zero after reshaping.
	for i, v := range g.Data {
		if v != 0 {
			t.Fatalf("recycled buffer not zeroed at %d", i)
		}
	}
}

func TestArenaClassBounds(t *testing.T) {
	cases := []struct {
		n    int64
		want int
	}{{0, 0}, {1, 0}, {2, 1}, {3, 1}, {4, 2}, {1 << 20, 20}, {1<<20 + 1, 20}}
	for _, c := range cases {
		if got := arenaClass(c.n); got != c.want {
			t.Errorf("arenaClass(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}
