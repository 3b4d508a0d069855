package gen_test

import (
	"math"
	"testing"

	"repro/internal/apps"
	_ "repro/internal/apps/gen" // registers the ahead-of-time kernels under test
	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/dsl"
	"repro/internal/engine"
	"repro/internal/expr"
	"repro/internal/harness"
	"repro/internal/schedule"
)

// prepare compiles app at the exact binding polymage-gen emitted kernels
// for (opt+vec, scale 4, default schedule, one thread), optionally pinning
// the generated kernels off.
func prepare(t *testing.T, app *apps.App, noGen bool) *harness.Prepared {
	t.Helper()
	v, err := baseline.Get("opt+vec")
	if err != nil {
		t.Fatal(err)
	}
	params := harness.ScaledParams(app, 4)
	p, err := harness.PrepareEngine(app, v, params, 1, schedule.DefaultOptions(), harness.DefaultSeed,
		func(o *engine.ExecOptions) { o.NoGenKernels = noGen })
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func run(t *testing.T, p *harness.Prepared) map[string]*engine.Buffer {
	t.Helper()
	out, err := p.Prog.Run(p.Inputs)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// genPieces sums the Gen counter over all stages of a program's kernel
// report.
func genPieces(p *harness.Prepared) int {
	n := 0
	for _, sm := range p.Prog.Stats().Stages {
		n += sm.Gen
	}
	return n
}

// TestGenAppsMatchVM runs every Table-2 app at the checked-in kernels'
// binding with generated kernels on and off and demands ULP-level
// agreement: the ahead-of-time Go kernels are a drop-in substitution for
// the interpreted tiers, not an approximation of them.
func TestGenAppsMatchVM(t *testing.T) {
	for _, app := range apps.All() {
		app := app
		t.Run(app.Name, func(t *testing.T) {
			t.Parallel()
			pg := prepare(t, app, false)
			defer pg.Close()
			if n := genPieces(pg); n == 0 {
				t.Fatalf("%s: no generated kernels attached — schedule hash missed the checked-in gen package", app.Name)
			} else {
				t.Logf("%s: %d pieces on generated kernels", app.Name, n)
			}
			pv := prepare(t, app, true)
			defer pv.Close()
			if n := genPieces(pv); n != 0 {
				t.Fatalf("%s: NoGenKernels binding still attached %d kernels", app.Name, n)
			}
			got := run(t, pg)
			want := run(t, pv)
			for name, wb := range want {
				gb, ok := got[name]
				if !ok {
					t.Fatalf("%s: output %s missing from gen run", app.Name, name)
				}
				compareULP(t, app.Name, name, gb.Data, wb.Data)
			}
		})
	}
}

// compareULP is the difftest tolerance (atol 1e-5, 32 ULP) applied
// element-wise.
func compareULP(t *testing.T, app, out string, got, want []float32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s/%s: length %d vs %d", app, out, len(got), len(want))
	}
	bad := 0
	for i := range got {
		g, w := got[i], want[i]
		if g == w {
			continue
		}
		if math.Abs(float64(g)-float64(w)) <= 1e-5 {
			continue
		}
		if ulpDiff(g, w) <= 32 {
			continue
		}
		if bad == 0 {
			t.Errorf("%s/%s: index %d: gen=%v vm=%v (ulp=%d)", app, out, i, g, w, ulpDiff(g, w))
		}
		bad++
	}
	if bad > 0 {
		t.Fatalf("%s/%s: %d elements beyond tolerance", app, out, bad)
	}
}

func ulpDiff(a, b float32) uint32 {
	ab := math.Float32bits(a)
	bb := math.Float32bits(b)
	if ab>>31 != bb>>31 {
		return ab&0x7fffffff + bb&0x7fffffff
	}
	if ab > bb {
		return ab - bb
	}
	return bb - ab
}

// TestGenHashMismatchFallsBack rebinds harris with a different tile plan:
// the schedule hash no longer matches the checked-in package and every
// piece must fall back to the interpreted tiers, bit-identically to a
// binding with generated kernels disabled outright.
func TestGenHashMismatchFallsBack(t *testing.T) {
	app, err := apps.Get("harris")
	if err != nil {
		t.Fatal(err)
	}
	v, err := baseline.Get("opt+vec")
	if err != nil {
		t.Fatal(err)
	}
	params := harness.ScaledParams(app, 4)
	so := schedule.DefaultOptions()
	so.TileSizes = []int64{48, 96} // not the emitted plan
	mk := func(noGen bool) *harness.Prepared {
		p, err := harness.PrepareEngine(app, v, params, 1, so, harness.DefaultSeed,
			func(o *engine.ExecOptions) { o.NoGenKernels = noGen })
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	pg := mk(false)
	defer pg.Close()
	if n := genPieces(pg); n != 0 {
		t.Fatalf("hash-mismatched binding attached %d generated kernels", n)
	}
	pv := mk(true)
	defer pv.Close()
	got := run(t, pg)
	want := run(t, pv)
	for name, wb := range want {
		gb := got[name]
		if gb == nil {
			t.Fatalf("output %s missing", name)
		}
		for i := range wb.Data {
			if math.Float32bits(gb.Data[i]) != math.Float32bits(wb.Data[i]) {
				t.Fatalf("output %s index %d: fallback not bit-identical: %v vs %v",
					name, i, gb.Data[i], wb.Data[i])
			}
		}
	}
}

// TestTierAttribution pins the lowering invariant in the configuration a
// user gets (auto-scheduler, Fast, pooled buffers, this package's kernels
// linked; narrow types for the uint8 apps): every stage piece is counted in
// exactly one evaluator tier, the scalar loop takes only predicated pieces
// and accumulators, and the two removed tiers stay empty.
func TestTierAttribution(t *testing.T) {
	type pipe struct {
		name   string
		narrow bool
		build  func() (*dsl.Builder, []string)
		params map[string]int64
	}
	var pipes []pipe
	for _, a := range apps.All() {
		pipes = append(pipes, pipe{a.Name, false, a.Build, harness.ScaledParams(a, 4)})
	}
	for _, a := range apps.AllNarrow() {
		pipes = append(pipes, pipe{a.Name, true, a.Build, a.BenchParams})
	}
	so := schedule.DefaultOptions()
	so.Auto = true
	for _, p := range pipes {
		t.Run(p.name, func(t *testing.T) {
			t.Parallel()
			b, outs := p.build()
			pl, err := core.Compile(b, outs, core.Options{Estimates: p.params, Schedule: so, AllowUnproven: true})
			if err != nil {
				t.Fatal(err)
			}
			prog, err := pl.Bind(p.params, engine.ExecOptions{Fast: true, ReuseBuffers: true, NarrowTypes: p.narrow})
			if err != nil {
				t.Fatal(err)
			}
			defer prog.Close()
			for _, sm := range prog.Stats().Stages {
				st := prog.Graph.Stages[sm.Name]
				pieces, scalar := len(st.Cases), 0
				if st.IsAccumulator() {
					pieces, scalar = 1, 1
				}
				for _, c := range st.Cases {
					if c.Cond == nil {
						continue
					}
					if _, _, box := expr.CondToBox(c.Cond, len(st.Decl.Domain())); !box {
						scalar++ // residual per-point predicate
					}
				}
				if got := sm.Gen + sm.Stencil + sm.IntStencil + sm.RowVM + sm.Scalar; got != pieces {
					t.Errorf("%s: %d pieces counted in tiers, stage has %d (%+v)", sm.Name, got, pieces, sm)
				}
				if sm.Scalar != scalar {
					t.Errorf("%s: %d pieces on the scalar loop, want %d (predicated pieces and accumulators only)", sm.Name, sm.Scalar, scalar)
				}
				if sm.Comb != 0 || sm.ClosureRow != 0 {
					t.Errorf("%s: removed tiers report Comb=%d ClosureRow=%d", sm.Name, sm.Comb, sm.ClosureRow)
				}
			}
		})
	}
}
