package apps

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/schedule"
)

// TestNarrowGoldenOracles pins every narrow app to the reference
// interpreter with EXACT equality (no ULP budget): every stage is provably
// integral within ±2^24, so the scalar tier, the row VM, the integer VM
// and the parallel/pooled executors must all
// produce the same integers bit for bit — and so must the float32 layout
// (NarrowTypes off) on converted inputs.
func TestNarrowGoldenOracles(t *testing.T) {
	for _, app := range AllNarrow() {
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
			exact := func(name string, got, want *engine.Buffer) {
				t.Helper()
				if got == nil {
					t.Fatalf("%s: missing output", name)
				}
				if got.Len() != want.Len() {
					t.Fatalf("%s: length %d vs %d", name, got.Len(), want.Len())
				}
				for i := int64(0); i < int64(got.Len()); i++ {
					if got.LoadF64(i) != want.LoadF64(i) {
						t.Fatalf("%s: offset %d: %v, want %v", name, i, got.LoadF64(i), want.LoadF64(i))
					}
				}
			}
			for _, fast := range []bool{false, true} {
				for _, threads := range []int{1, 4} {
					name := fmt.Sprintf("fast=%v/threads=%d", fast, threads)
					prog, err := pl.Bind(params, engine.ExecOptions{
						Fast: fast, Threads: threads,
						NarrowTypes: true, Debug: true,
					})
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					got, err := prog.Run(inputs)
					if err != nil {
						prog.Close()
						t.Fatalf("%s: %v", name, err)
					}
					for _, o := range outs {
						if got[o].Elem != engine.ElemU8 {
							t.Errorf("%s: output %s element type %v, want uint8", name, o, got[o].Elem)
						}
						exact(name+"/"+o, got[o], ref[o])
					}
					prog.Close()
				}
			}
			// The float32 layout on widened inputs computes the same values.
			f32In := make(map[string]*engine.Buffer, len(inputs))
			for n, buf := range inputs {
				f32In[n] = engine.ConvertBuffer(buf, engine.ElemF32)
			}
			wide, err := pl.Bind(params, engine.ExecOptions{Fast: true, Threads: 1})
			if err != nil {
				t.Fatal(err)
			}
			defer wide.Close()
			wideOut, err := wide.Run(f32In)
			if err != nil {
				t.Fatal(err)
			}
			for _, o := range outs {
				exact("float32-layout/"+o, wideOut[o], ref[o])
			}
		})
	}
}

// TestNarrowStatsReportTypes: the compiled narrow programs report the
// inferred storage types and integer-tier eligibility through Stats.
func TestNarrowStatsReportTypes(t *testing.T) {
	app, err := GetNarrow("blur-u8")
	if err != nil {
		t.Fatal(err)
	}
	b, outs := app.Build()
	pl, err := core.Compile(b, outs, core.Options{Estimates: app.TestParams, AllowUnproven: true})
	if err != nil {
		t.Fatal(err)
	}
	prog, err := pl.Bind(app.TestParams, engine.ExecOptions{Fast: true, Threads: 1, NarrowTypes: true})
	if err != nil {
		t.Fatal(err)
	}
	defer prog.Close()
	want := map[string]string{"blurx": "uint16", "blury": "uint16", "blur8": "uint8"}
	seen := map[string]string{}
	for _, sm := range prog.Stats().Stages {
		seen[sm.Name] = sm.Elem
		if w, ok := want[sm.Name]; ok {
			if sm.Elem != w {
				t.Errorf("stage %s: elem %q, want %q", sm.Name, sm.Elem, w)
			}
			if !sm.IntExact {
				t.Errorf("stage %s: not intExact", sm.Name)
			}
		}
	}
	for name := range want {
		if _, ok := seen[name]; !ok {
			t.Errorf("stage %s missing from Stats (inlined?); saw %v", name, seen)
		}
	}
}
