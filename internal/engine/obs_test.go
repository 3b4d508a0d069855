package engine

import (
	"slices"
	"testing"

	"repro/internal/schedule"
)

// TestMetricsSnapshotConsistency runs instrumented executors and checks
// each snapshot's internal consistency. On every group the tile counters
// agree exactly with the tile plan, runs × planned, and Program.Stats plans
// the tiles Executor.Snapshot reports: on harris fused into overlapped
// tiles, and on harris run stage by stage, whose lone stages run as bands
// (4 per thread on a 4-worker fleet). With one worker, kernel time summed
// over stages cannot exceed the measured run wall time. The bind's phases
// cover the whole of Compile, generated-kernel binding included.
func TestMetricsSnapshotConsistency(t *testing.T) {
	for _, tc := range []struct {
		name  string
		sopts schedule.Options
		opts  ExecOptions
	}{
		{"fused", schedule.Options{TileSizes: []int64{16, 32}, MinTileExtent: 8}, ExecOptions{Threads: 1}},
		{"stages", schedule.Options{DisableFusion: true}, ExecOptions{Threads: 4, fleet: newFleet(4)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opts := tc.opts
			opts.Fast, opts.Metrics = true, true
			prog, inputs, ref := compileHarrisWith(t, tc.sopts, opts)
			defer prog.Close()
			e := prog.Executor()
			const runs = 3
			for i := 0; i < runs; i++ {
				out, err := e.Run(inputs)
				if err != nil {
					t.Fatal(err)
				}
				if eq, msg := out["harris"].Equal(ref["harris"], 1e-5); !eq {
					t.Fatalf("instrumented run differs from reference: %s", msg)
				}
				e.Recycle(out)
			}
			snap := e.Snapshot()
			if !snap.Enabled {
				t.Fatal("Snapshot.Enabled = false on a Metrics executor")
			}
			if snap.Runs != runs {
				t.Fatalf("Runs = %d, want %d", snap.Runs, runs)
			}
			var kernel int64
			for _, st := range snap.Stages {
				if st.Points <= 0 {
					t.Errorf("stage %s: Points = %d, want > 0", st.Name, st.Points)
				}
				if st.RecomputedPoints < 0 || st.RecomputedPoints > st.Points {
					t.Errorf("stage %s: RecomputedPoints = %d outside [0, %d]", st.Name, st.RecomputedPoints, st.Points)
				}
				if st.RecomputedRows < 0 || st.RecomputedRows > st.Rows {
					t.Errorf("stage %s: RecomputedRows = %d outside [0, %d]", st.Name, st.RecomputedRows, st.Rows)
				}
				kernel += st.KernelNanos
			}
			if kernel <= 0 {
				t.Fatal("total kernel time is zero")
			}
			// One worker: every kernel nanosecond is inside some Run call.
			if tc.opts.Threads == 1 && kernel > snap.WallNanos {
				t.Errorf("kernel time %d ns exceeds wall time %d ns with one worker", kernel, snap.WallNanos)
			}
			model := prog.Stats()
			var phases []string
			for _, ph := range model.Bind.Phases {
				phases = append(phases, ph.Name)
			}
			if want := []string{"lower", "tileplan", "kernels"}; !slices.Equal(phases, want) {
				t.Errorf("Stats().Bind phases = %v, want %v", phases, want)
			}
			if len(model.Groups) != len(snap.Groups) {
				t.Fatalf("model has %d groups, snapshot has %d", len(model.Groups), len(snap.Groups))
			}
			var tiled, banded bool
			for i, g := range snap.Groups {
				if g.Tiles != runs*g.PlannedTiles {
					t.Errorf("group %s: Tiles = %d, want runs × planned = %d", g.Anchor, g.Tiles, runs*g.PlannedTiles)
				}
				if model.Groups[i].PlannedTiles != g.PlannedTiles {
					t.Errorf("group %s: model PlannedTiles %d != snapshot %d", g.Anchor, model.Groups[i].PlannedTiles, g.PlannedTiles)
				}
				tiled = tiled || len(g.Members) > 1 && g.PlannedTiles > 1
				banded = banded || len(g.Members) == 1 && g.PlannedTiles == 16
			}
			if tc.name == "fused" {
				if !tiled {
					t.Error("harris pipeline produced no tiled group; tile accounting untested")
				}
				// The fused harris group recomputes its halo: the derivative
				// stages must report a nonzero recompute fraction.
				if st, ok := snap.Stage("Ix"); !ok || st.RecomputedPoints == 0 {
					t.Errorf("stage Ix: RecomputedPoints = 0, want halo recomputation (ok=%v)", ok)
				}
			} else if !banded || tiled {
				t.Errorf("stage-by-stage harris: a lone stage in 16 bands %v, a fused group %v; want true, false", banded, tiled)
			}
		})
	}
}

// TestMetricsDisabled pins the off state: a default executor reports an
// empty (Enabled=false) snapshot with only arena gauges, and its
// steady-state Run path allocates no more than the instrumented one — the
// metrics hooks must be a nil check, not hidden bookkeeping.
func TestMetricsDisabled(t *testing.T) {
	steady := func(metrics bool) float64 {
		prog, inputs, _ := compileHarris(t, ExecOptions{Fast: true, Threads: 1, Metrics: metrics})
		defer prog.Close()
		e := prog.Executor()
		for i := 0; i < 2; i++ { // warm the arena and the pool
			out, err := e.Run(inputs)
			if err != nil {
				t.Fatal(err)
			}
			e.Recycle(out)
		}
		return testing.AllocsPerRun(10, func() {
			out, err := e.Run(inputs)
			if err != nil {
				t.Fatal(err)
			}
			e.Recycle(out)
		})
	}

	prog, inputs, _ := compileHarris(t, ExecOptions{Fast: true, Threads: 1})
	snap := prog.Executor().Snapshot()
	if snap.Enabled {
		t.Fatal("Snapshot.Enabled = true without ExecOptions.Metrics")
	}
	if len(snap.Stages) != 0 || snap.Runs != 0 {
		t.Fatalf("disabled snapshot carries data: %+v", snap)
	}
	if _, err := prog.Run(inputs); err != nil {
		t.Fatal(err)
	}
	if a := prog.Executor().Snapshot().Arena; a.Misses == 0 {
		t.Error("disabled snapshot should still gauge the arena")
	}
	prog.Close()

	off, on := steady(false), steady(true)
	// Recording uses per-worker atomics, so metrics must not add
	// steady-state allocations (small slack for map growth jitter).
	if on > off+4 {
		t.Errorf("metrics-on steady state allocates %.0f/run vs %.0f/run off", on, off)
	}
	if off > 64 {
		t.Errorf("steady-state Run allocates %.0f/run, want a small constant", off)
	}
}
