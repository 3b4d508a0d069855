package apps

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/schedule"
)

// TestAppsEndToEnd verifies, for every registered application, that the
// fully optimized execution (inlining + grouping + overlapped tiling + fast
// kernels, 1 and 4 threads) matches the naive reference interpreter at the
// app's test-size parameters.
func TestAppsEndToEnd(t *testing.T) {
	for _, app := range All() {
		app := app
		t.Run(app.Name, func(t *testing.T) {
			b, outs := app.Build()
			params := app.TestParams
			inputs, err := app.Inputs(b, params, 42)
			if err != nil {
				t.Fatal(err)
			}
			pl, err := core.Compile(b, outs, core.Options{
				Estimates:     params,
				Schedule:      schedule.Options{TileSizes: []int64{16, 32}, MinTileExtent: 8, MinSize: 64},
				AllowUnproven: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			ref, err := engine.Reference(pl.Graph, params, inputs)
			if err != nil {
				t.Fatal(err)
			}
			for _, threads := range []int{1, 4} {
				for _, fast := range []bool{false, true} {
					prog, err := pl.Bind(params, engine.ExecOptions{Threads: threads, Fast: fast, Debug: true})
					if err != nil {
						t.Fatal(err)
					}
					got, err := prog.Run(inputs)
					if err != nil {
						t.Fatal(err)
					}
					for _, o := range outs {
						if eq, msg := got[o].Equal(ref[o], 2e-3); !eq {
							t.Errorf("threads=%d fast=%v output %s: %s", threads, fast, o, msg)
						}
					}
				}
			}
		})
	}
}

// TestAppMetadata sanity-checks the registry.
func TestAppMetadata(t *testing.T) {
	if len(All()) < 4 {
		t.Fatalf("expected at least 4 registered apps, got %d", len(All()))
	}
	for _, app := range All() {
		if app.PaperStages == 0 || app.PaperMs16 == 0 {
			t.Errorf("%s: missing paper metadata", app.Name)
		}
		n := app.StageCount()
		if n < 2 {
			t.Errorf("%s: suspicious stage count %d", app.Name, n)
		}
		t.Logf("%s: %d stages here vs %d in the paper", app.Name, n, app.PaperStages)
		if _, err := Get(app.Name); err != nil {
			t.Error(err)
		}
	}
	if _, err := Get("nonexistent"); err == nil {
		t.Error("expected error for unknown app")
	}
}

// TestInterpolateInputsAlpha: the flat loop over the alpha plane writes
// what a per-point loop over channel 3 writes, bit for bit, and leaves the
// colour channels as the pattern filled them.
func TestInterpolateInputsAlpha(t *testing.T) {
	params := map[string]int64{"R": 2, "C": 3}
	b, _ := buildInterpolate()
	got, err := interpolateInputs(b, params, 42)
	if err != nil {
		t.Fatal(err)
	}
	want, err := defaultInputs(b, params, 42)
	if err != nil {
		t.Fatal(err)
	}
	in := want["I"]
	box := in.Box
	pt := []int64{3, 0, 0}
	for x := box[1].Lo; x <= box[1].Hi; x++ {
		for y := box[2].Lo; y <= box[2].Hi; y++ {
			pt[1], pt[2] = x, y
			off := in.Offset(pt)
			in.Data[off] = 0.2 + 0.8*in.Data[off]
		}
	}
	g := got["I"]
	for i := range in.Data {
		if math.Float32bits(g.Data[i]) != math.Float32bits(in.Data[i]) {
			t.Fatalf("element %d is %v, want %v", i, g.Data[i], in.Data[i])
		}
	}
}

// TestAppGroupingShape checks the headline grouping behaviours the paper
// reports per app.
func TestAppGroupingShape(t *testing.T) {
	compile := func(name string) (*core.Pipeline, *App) {
		app, err := Get(name)
		if err != nil {
			t.Fatal(err)
		}
		b, outs := app.Build()
		pl, err := core.Compile(b, outs, core.Options{
			Estimates:     app.PaperParams,
			AllowUnproven: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		return pl, app
	}

	// Harris: all stencil stages fuse into one group; point-wise stages
	// inline away.
	pl, _ := compile("harris")
	if len(pl.Grouping.Groups) != 1 {
		t.Errorf("harris: expected 1 group, got %d: %v", len(pl.Grouping.Groups), pl.GroupSummary())
	}
	if len(pl.Inlined) != 5 {
		t.Errorf("harris: expected 5 inlined point-wise stages, got %v", pl.Inlined)
	}

	// Bilateral grid: reductions are never fused; the blur stages fuse.
	pl, _ = compile("bilateral")
	gr := pl.Grouping
	if gr.ByName["gridV"] == gr.ByName["blurzV"] {
		t.Error("bilateral: the grid reduction must not fuse with the blurs")
	}
	blurGroup := gr.ByName["bluryV"]
	if len(blurGroup.Members) < 2 {
		t.Errorf("bilateral: blur stages should fuse, got groups %v", pl.GroupSummary())
	}
}
