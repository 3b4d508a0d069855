package gen_test

import (
	"fmt"
	"testing"

	"repro/internal/apps"
	_ "repro/internal/apps/gen" // registers the ahead-of-time kernels under test
	"repro/internal/core"
	"repro/internal/difftest"
	"repro/internal/dsl"
	"repro/internal/engine"
	"repro/internal/expr"
	"repro/internal/harness"
	"repro/internal/schedule"
)

// pipe is one pipeline of the benchmark's set: a Table-2 app or a uint8 app.
type pipe struct {
	name   string
	narrow bool
	build  func() (*dsl.Builder, []string)
	inputs func(b *dsl.Builder, params map[string]int64, seed int64) (map[string]*engine.Buffer, error)
	// threads is the worker count programs are bound with (0 = GOMAXPROCS).
	threads int
}

func tablePipes() []pipe {
	var out []pipe
	for _, a := range apps.All() {
		out = append(out, pipe{name: a.Name, build: a.Build, inputs: a.Inputs})
	}
	return out
}

func narrowPipes() []pipe {
	var out []pipe
	for _, a := range apps.AllNarrow() {
		out = append(out, pipe{name: a.Name, narrow: true, build: a.Build, inputs: a.Inputs})
	}
	return out
}

// bound is a pipeline compiled once, as bench/ and polymage-serve compile
// it (core.Compile, then Bind with Fast + ReuseBuffers), and bound twice:
// with this package's kernels and with them pinned off.
type bound struct {
	on, off *engine.Program
	inputs  map[string]*engine.Buffer
}

func bind(t *testing.T, p pipe, params map[string]int64, auto bool) bound {
	t.Helper()
	so := schedule.DefaultOptions()
	so.Auto = auto
	b, outs := p.build()
	pl, err := core.Compile(b, outs, core.Options{Estimates: params, Schedule: so, AllowUnproven: true})
	if err != nil {
		t.Fatal(err)
	}
	var bd bound
	for _, noGen := range []bool{false, true} {
		prog, err := pl.Bind(params, engine.ExecOptions{Fast: true, ReuseBuffers: true, Threads: p.threads, NarrowTypes: p.narrow, NoGenKernels: noGen})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { prog.Close() })
		if noGen {
			bd.off = prog
		} else {
			bd.on = prog
		}
	}
	if bd.inputs, err = p.inputs(b, params, harness.DefaultSeed); err != nil {
		t.Fatal(err)
	}
	return bd
}

// genPieces sums the Gen counter over all stages of a program's kernel
// report.
func genPieces(p *engine.Program) int {
	n := 0
	for _, sm := range p.Stats().Stages {
		n += sm.Gen
	}
	return n
}

// requireSubstitution demands that the generated kernels are a drop-in
// substitution for the interpreted tiers, not an approximation of them:
// every eligible piece binds a kernel, the kernels-off twin binds none, and
// the two programs' outputs agree bit for bit. It returns the outputs of
// the run with kernels.
func (bd bound) requireSubstitution(t *testing.T) map[string]*engine.Buffer {
	t.Helper()
	st := bd.on.Stats()
	if m := st.GenMisses; m.NoKernel != 0 {
		t.Errorf("%d eligible pieces have no checked-in kernel (rerun go run ./cmd/polymage-gen): %+v", m.NoKernel, m)
	}
	// Gathers and cross-dimension indices have kernels and a row
	// instruction: no piece of these pipelines is irregular.
	if m := st.GenMisses; m.Irregular != 0 {
		t.Errorf("%d pieces counted irregular: %+v", m.Irregular, m)
	}
	if n := genPieces(bd.off); n != 0 {
		t.Fatalf("NoGenKernels binding still attached %d kernels", n)
	}
	got, err := bd.on.Run(bd.inputs)
	if err != nil {
		t.Fatal(err)
	}
	want, err := bd.off.Run(bd.inputs)
	if err != nil {
		t.Fatal(err)
	}
	for name, wb := range want {
		if d := difftest.SameBits(got[name], wb); d != "" {
			t.Fatalf("output %s of the gen run against the interpreted run: %s", name, d)
		}
	}
	return got
}

// TestGenAppsMatchVM runs every Table-2 app under the hand schedule at the
// scale polymage-gen compiled it at, and under the auto-scheduler at a
// second parameter binding (scale 8) no kernel was emitted from: kernels
// are keyed by piece shape, so they must bind whatever the schedule and the
// image size, and change no output bit.
func TestGenAppsMatchVM(t *testing.T) {
	for _, p := range tablePipes() {
		t.Run(p.name, func(t *testing.T) {
			t.Parallel()
			app, _ := apps.Get(p.name)
			hand := bind(t, p, harness.ScaledParams(app, 4), false)
			n := genPieces(hand.on)
			if n == 0 {
				t.Fatal("no generated kernels attached under the hand schedule")
			}
			hand.requireSubstitution(t)
			auto8 := bind(t, p, harness.ScaledParams(app, 8), true)
			if got := genPieces(auto8.on); got < n {
				t.Errorf("auto schedule at scale 8 binds %d kernels, hand schedule at scale 4 binds %d", got, n)
			}
			auto8.requireSubstitution(t)
		})
	}
}

// TestGenNarrowAppsMatchVM is TestGenAppsMatchVM for the uint8 apps, in
// combination: at the test size and two odd ones (a 1-wide image included),
// one and two workers, hand and auto schedule, every piece binds a kernel
// (gen_piece_share 1, no miss of any kind) and the generated run, the
// kernels-off run and the reference interpreter agree exactly.
func TestGenNarrowAppsMatchVM(t *testing.T) {
	for _, p := range narrowPipes() {
		app, _ := apps.GetNarrow(p.name)
		for _, params := range []map[string]int64{app.TestParams, {"R": 7, "C": 1}, {"R": 37, "C": 53}} {
			for _, auto := range []bool{false, true} {
				for p.threads = 1; p.threads <= 2; p.threads++ {
					t.Run(fmt.Sprintf("%s/%dx%d/auto=%v/threads=%d", p.name, params["R"], params["C"], auto, p.threads), func(t *testing.T) {
						bd := bind(t, p, params, auto)
						got := bd.requireSubstitution(t)
						st := bd.on.Stats()
						pieces := 0
						for _, name := range bd.on.Graph.Order {
							pieces += len(bd.on.Graph.Stages[name].Cases)
						}
						if n := genPieces(bd.on); n != pieces || st.GenMisses.Total() != 0 {
							t.Errorf("%d of %d pieces on generated kernels, misses %+v", n, pieces, st.GenMisses)
						}
						ref, err := engine.Reference(bd.on.Graph, params, bd.inputs)
						if err != nil {
							t.Fatal(err)
						}
						for _, lo := range bd.on.Graph.LiveOuts {
							if d := difftest.Compare(got[lo], ref[lo], 0, 0); d != "" {
								t.Errorf("output %s differs from the reference interpreter: %s", lo, d)
							}
						}
					})
				}
			}
		}
	}
}

// TestGenLanePlan pins the lane rule on the apps: a kernel computes four
// adjacent elements per iteration exactly when its inner loop is the plain
// one (no phases, no carried values, no accumulator) and reads a row at a
// stride c ≥ 2. The strided down-samplers get four lanes; unit-stride
// stencils and gathers (harris Ix, bilateral out), the phase-looped
// up-samplers, the carried box sums and the accumulators get one.
func TestGenLanePlan(t *testing.T) {
	want := map[string]map[string]int{
		"pyramid":     {"gA1": 4, "gB1": 4, "gM1": 4, "colUp0": 1},
		"laplacian":   {"gPyr1": 4, "inG1": 4, "gUp0": 1, "outL0": 1},
		"camera":      {"rR": 4, "gGR": 4, "gGB": 4, "bB": 4, "rFull": 1},
		"interpolate": {"down1": 4, "up0": 1},
		"harris":      {"Ix": 1, "Sxx": 1, "Sxy": 1, "Syy": 1},
		"bilateral":   {"out": 1, "gridV": 1, "gridW": 1},
	}
	for _, p := range tablePipes() {
		stages := want[p.name]
		if stages == nil {
			continue
		}
		app, _ := apps.Get(p.name)
		bd := bind(t, p, harness.ScaledParams(app, 4), false)
		seen := map[string]bool{}
		for _, u := range bd.on.GenUnits() {
			lanes := u.Lanes()
			if lanes != 1 && (lanes != 4 || u.Phases() != 1 || u.Carried() != 0 || u.Targets != nil) {
				t.Errorf("%s/%s: %d lanes with %d phases, %d carried, accumulator %v", p.name, u.Stage, lanes, u.Phases(), u.Carried(), u.Targets != nil)
			}
			if w, ok := stages[u.Stage]; ok {
				seen[u.Stage] = true
				if lanes != w {
					t.Errorf("%s/%s: %d lanes, want %d", p.name, u.Stage, lanes, w)
				}
			}
		}
		for st := range stages {
			if !seen[st] {
				t.Errorf("%s/%s: no generated-kernel unit", p.name, st)
			}
		}
	}
}

// TestTierAttribution pins the lowering invariant in the configuration a
// user gets (auto-scheduler, Fast, pooled buffers, this package's kernels
// linked; narrow types for the uint8 apps): every stage piece is counted in
// exactly one evaluator tier, the scalar loop takes only predicated pieces
// (an accumulator runs its kernel, or its row sweep under NoGenKernels), the
// four removed tiers stay empty
// (also under NoGenKernels, where every other piece is on the row VM),
// every piece counted outside the generated tier has its reason in
// GenMisses, and the Table-2 apps bind at least as many kernels as under the
// hand schedule.
func TestTierAttribution(t *testing.T) {
	pipes := tablePipes()
	params := map[string]map[string]int64{}
	for _, a := range apps.All() {
		params[a.Name] = harness.ScaledParams(a, 4)
	}
	pipes = append(pipes, narrowPipes()...)
	for _, a := range apps.AllNarrow() {
		params[a.Name] = a.BenchParams
	}
	for _, p := range pipes {
		t.Run(p.name, func(t *testing.T) {
			t.Parallel()
			bd := bind(t, p, params[p.name], true)
			bd.requireSubstitution(t)
			if !p.narrow {
				hand := bind(t, p, params[p.name], false)
				if got, want := genPieces(bd.on), genPieces(hand.on); got < want || got == 0 {
					t.Errorf("auto schedule binds %d kernels, hand schedule %d", got, want)
				}
			}
			// Two tiers and the scalar loop: with kernels, a piece is on gen
			// or the row VM; with NoGenKernels, every unpredicated piece —
			// stencil-shaped ones included — counts as RowVM.
			for _, tc := range []struct {
				label string
				prog  *engine.Program
			}{{"gen", bd.on}, {"NoGenKernels", bd.off}} {
				total, gen := 0, 0
				for _, sm := range tc.prog.Stats().Stages {
					st := tc.prog.Graph.Stages[sm.Name]
					pieces, scalar := len(st.Cases), 0
					if st.IsAccumulator() {
						pieces = 1
						if tier := map[bool]int{true: sm.Gen, false: sm.RowVM}[tc.prog == bd.on]; tier != 1 {
							t.Errorf("%s %s: accumulator counts Gen=%d RowVM=%d, want its generated kernel, or its row sweep under NoGenKernels",
								tc.label, sm.Name, sm.Gen, sm.RowVM)
						}
					}
					for _, c := range st.Cases {
						if c.Cond == nil {
							continue
						}
						if _, _, box := expr.CondToBox(c.Cond, len(st.Decl.Domain())); !box {
							scalar++ // residual per-point predicate
						}
					}
					if got := sm.Gen + sm.RowVM + sm.Scalar; got != pieces {
						t.Errorf("%s %s: %d pieces counted in tiers, stage has %d (%+v)", tc.label, sm.Name, got, pieces, sm)
					}
					if sm.Scalar != scalar {
						t.Errorf("%s %s: %d pieces on the scalar loop, want %d (predicated pieces only)", tc.label, sm.Name, sm.Scalar, scalar)
					}
					if tc.prog == bd.off && sm.RowVM != pieces-scalar {
						t.Errorf("%s %s: RowVM=%d, want every unpredicated piece (%d) on the row VM", tc.label, sm.Name, sm.RowVM, pieces-scalar)
					}
					if sm.Stencil != 0 || sm.Comb != 0 || sm.IntStencil != 0 || sm.ClosureRow != 0 {
						t.Errorf("%s %s: removed tiers report Stencil=%d Comb=%d IntStencil=%d ClosureRow=%d",
							tc.label, sm.Name, sm.Stencil, sm.Comb, sm.IntStencil, sm.ClosureRow)
					}
					total += pieces
					gen += sm.Gen
				}
				if tc.prog == bd.on {
					if m := tc.prog.Stats().GenMisses; gen+m.Total() != total {
						t.Errorf("%d pieces on generated kernels + misses %+v do not add up to %d pieces", gen, m, total)
					}
				}
			}
		})
	}
}

// stageRow is one stage a micro benchmark times: the app, the stage and the
// tiers it runs on.
type stageRow struct {
	app, stage string
	tiers      []string
}

// benchTiers are the execution tiers a stage can be timed on.
var benchTiers = map[string]engine.ExecOptions{
	"scalar": {},
	"vm":     {Fast: true, NoGenKernels: true},
	"gen":    {Fast: true},
}

// benchStages times each row's stage on each of its tiers at scale 4, hand
// schedule, one thread, and reports the stage's own kernel time per domain
// point, so a per-layer number is reproducible without bench/. It lives
// here, not in internal/engine, because only a test binary that links this
// package's kernels has a generated tier to time.
func benchStages(b *testing.B, rows []stageRow) {
	for _, c := range rows {
		app, err := apps.Get(c.app)
		if err != nil {
			b.Fatal(err)
		}
		params := harness.ScaledParams(app, 4)
		for _, tier := range c.tiers {
			b.Run(c.app+"/"+c.stage+"/"+tier, func(b *testing.B) {
				bl, outs := app.Build()
				pl, err := core.Compile(bl, outs, core.Options{Estimates: params, Schedule: schedule.DefaultOptions(), AllowUnproven: true})
				if err != nil {
					b.Fatal(err)
				}
				opts := benchTiers[tier]
				opts.Threads, opts.ReuseBuffers, opts.Metrics = 1, true, true
				prog, err := pl.Bind(params, opts)
				if err != nil {
					b.Fatal(err)
				}
				defer prog.Close()
				inputs, err := app.Inputs(bl, params, harness.DefaultSeed)
				if err != nil {
					b.Fatal(err)
				}
				e := prog.Executor()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					out, err := e.Run(inputs)
					if err != nil {
						b.Fatal(err)
					}
					e.Recycle(out)
				}
				for _, st := range e.Snapshot().Stages {
					if st.Name == c.stage {
						b.ReportMetric(float64(st.KernelNanos)/float64(st.Points), "ns/point")
					}
				}
			})
		}
	}
}

// BenchmarkGather times the two data-dependent stages the benchmark's worst
// rows sat in — bilateral's trilinear slice `out` and local Laplacian's
// level interpolation `outL0` — on the scalar, VM and generated tiers.
func BenchmarkGather(b *testing.B) {
	all := []string{"scalar", "vm", "gen"}
	benchStages(b, []stageRow{{"bilateral", "out", all}, {"laplacian", "outL0", all}})
}

// BenchmarkUpsample times the up-sampling and demosaic stages whose
// generated kernels run as phase loops — local Laplacian's `gUp0`,
// pyramid blending's `colUp0`, interpolation's `up0` and the camera
// pipeline's `rFull` — on the VM and generated tiers.
func BenchmarkUpsample(b *testing.B) {
	tiers := []string{"gen", "vm"}
	benchStages(b, []stageRow{{"laplacian", "gUp0", tiers}, {"pyramid", "colUp0", tiers},
		{"interpolate", "up0", tiers}, {"camera", "rFull", tiers}})
}

// BenchmarkBoxSum times harris's 3×3 box sums of products `Sxx`, `Sxy` and
// `Syy`, whose kernels carry the six products each output shares with the
// two to its left, on the generated and VM tiers.
func BenchmarkBoxSum(b *testing.B) {
	tiers := []string{"gen", "vm"}
	benchStages(b, []stageRow{{"harris", "Sxx", tiers}, {"harris", "Sxy", tiers}, {"harris", "Syy", tiers}})
}

// BenchmarkAccumulate times bilateral's grid construction, the accumulators
// `gridV` and `gridW`, on the generated tier and on the row VM's sweep.
func BenchmarkAccumulate(b *testing.B) {
	tiers := []string{"gen", "vm"}
	benchStages(b, []stageRow{{"bilateral", "gridV", tiers}, {"bilateral", "gridW", tiers}})
}

// BenchmarkDownsample times the down-sampling stages whose kernels read
// their producer at stride 2 and run four lanes per iteration — pyramid
// blending's `gA1` (a 5×5 tap on a 3-D buffer) and `gM1`, local Laplacian's
// `gPyr1` and `inG1` — on the generated and VM tiers.
func BenchmarkDownsample(b *testing.B) {
	tiers := []string{"gen", "vm"}
	benchStages(b, []stageRow{{"pyramid", "gA1", tiers}, {"pyramid", "gM1", tiers},
		{"laplacian", "gPyr1", tiers}, {"laplacian", "inG1", tiers}})
}

// BenchmarkRemap times local Laplacian's `remap0`, one exp per point, whose
// kernel prints numeric.Exp's common path inline, on the generated and VM
// tiers.
func BenchmarkRemap(b *testing.B) {
	benchStages(b, []stageRow{{"laplacian", "remap0", []string{"gen", "vm"}}})
}
