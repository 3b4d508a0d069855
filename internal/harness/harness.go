// Package harness compiles, runs and times the benchmark applications under
// the evaluation variants, and regenerates the paper's tables and figures
// (Table 2, Figures 9 and 10). It is shared by cmd/polymage-bench and the
// root bench_test.go.
package harness

import (
	"math"
	"runtime"
	"time"

	"repro/internal/apps"
	"repro/internal/autotune"
	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/cvlib"
	"repro/internal/dsl"
	"repro/internal/engine"
	"repro/internal/schedule"
)

// Config controls a harness run.
type Config struct {
	// Scale divides the paper image sizes: 1 = paper-sized inputs, larger
	// values shrink the workload (parameters are divided by Scale, floored
	// at the app's test size).
	Scale int64
	// Runs per measurement; the first is a discarded warm-up when Runs > 1
	// (the paper discards one warm-up run and averages five).
	Runs int
	// Threads for "16-core" measurements; 0 = GOMAXPROCS.
	Threads int
	// Tune runs the model-driven autotuner per app before measuring
	// (otherwise the default tile sizes are used).
	Tune bool
	// Seed for synthetic inputs.
	Seed int64
}

// DefaultSeed is the fixed seed for synthetic benchmark inputs: runs are
// reproducible by default and comparable across machines and sessions.
// Override with cmd/polymage-bench's -seed flag.
const DefaultSeed = 42

// ScaledParams divides the paper parameters by the scale, clamping at the
// test-size parameters.
func ScaledParams(app *apps.App, scale int64) map[string]int64 {
	return scaleParams(app.PaperParams, app.TestParams, scale)
}

// scaleParams divides every parameter of full by scale, not below floor.
func scaleParams(full, floor map[string]int64, scale int64) map[string]int64 {
	if scale <= 1 {
		return full
	}
	out := make(map[string]int64, len(full))
	for k, v := range full {
		out[k] = max(v/scale, floor[k], 1)
	}
	return out
}

// Prepared is an app compiled for one variant, ready to be timed.
type Prepared struct {
	App     *apps.App
	Variant baseline.Variant
	Params  map[string]int64
	Prog    *engine.Program
	Inputs  map[string]*engine.Buffer
}

// Prepare compiles the app under the variant's scheduling options.
func Prepare(app *apps.App, v baseline.Variant, params map[string]int64, threads int, base schedule.Options, seed int64) (*Prepared, error) {
	p, err := prepare(app.Build, app.Inputs, v, v.EngineOptions(threads), params, base, seed)
	if err != nil {
		return nil, err
	}
	p.App = app
	return p, nil
}

// PrepareNarrow compiles a uint8 app (apps.AllNarrow) as Prepare compiles a
// Table-2 app. narrowTypes selects the layout: bitwidth inference on, with
// the app's uint8 inputs, or the float32 layout of the same pipeline, with
// the inputs widened to match. Prepared.App stays nil.
func PrepareNarrow(app *apps.NarrowApp, v baseline.Variant, narrowTypes bool, params map[string]int64, threads int, base schedule.Options, seed int64) (*Prepared, error) {
	eo := v.EngineOptions(threads)
	eo.NarrowTypes = narrowTypes
	p, err := prepare(app.Build, app.Inputs, v, eo, params, base, seed)
	if err != nil {
		return nil, err
	}
	if !narrowTypes {
		for name, in := range p.Inputs {
			p.Inputs[name] = engine.ConvertBuffer(in, engine.ElemF32)
		}
	}
	return p, nil
}

func prepare(build func() (*dsl.Builder, []string),
	mkInputs func(*dsl.Builder, map[string]int64, int64) (map[string]*engine.Buffer, error),
	v baseline.Variant, eo engine.ExecOptions, params map[string]int64, base schedule.Options, seed int64) (*Prepared, error) {
	b, outs := build()
	inputs, err := mkInputs(b, params, seed)
	if err != nil {
		return nil, err
	}
	pl, err := core.Compile(b, outs, core.Options{
		Estimates:     params,
		Schedule:      v.Schedule(base),
		AllowUnproven: true,
	})
	if err != nil {
		return nil, err
	}
	prog, err := pl.Bind(params, eo)
	if err != nil {
		return nil, err
	}
	return &Prepared{Variant: v, Params: params, Prog: prog, Inputs: inputs}, nil
}

// Close releases the program's persistent executor (worker goroutines and
// recycled buffers).
func (p *Prepared) Close() { p.Prog.Close() }

// Measure runs the prepared program and returns the average wall time in
// milliseconds (first run discarded as warm-up when runs > 1). Outputs are
// recycled between runs, so this times the executor's steady state — the
// paper's serving scenario of one compiled pipeline run per frame.
func (p *Prepared) Measure(runs int) (float64, error) {
	if runs < 1 {
		runs = 1
	}
	e := p.Prog.Executor()
	var total time.Duration
	counted := 0
	for i := 0; i < runs; i++ {
		start := time.Now()
		out, err := e.Run(p.Inputs)
		if err != nil {
			return 0, err
		}
		d := time.Since(start)
		e.Recycle(out)
		if i == 0 && runs > 1 {
			continue // warm-up
		}
		total += d
		counted++
	}
	return float64(total.Microseconds()) / float64(counted) / 1000.0, nil
}

// MeasureApp compiles and times one app/variant/threads combination.
func MeasureApp(app *apps.App, variantName string, threads int, cfg Config) (float64, error) {
	v, err := baseline.Get(variantName)
	if err != nil {
		return 0, err
	}
	params := ScaledParams(app, cfg.Scale)
	base := schedule.DefaultOptions()
	if cfg.Tune && (variantName == "opt" || variantName == "opt+vec") {
		best, err := autotune.Grid(app, params, autotune.QuickSpace(), threads, cfg.Seed)
		if err != nil {
			return 0, err
		}
		base = best.Options
	}
	p, err := Prepare(app, v, params, threads, base, cfg.Seed)
	if err != nil {
		return 0, err
	}
	defer p.Close()
	return p.Measure(cfg.Runs)
}

// MeasureOpenCV times the library-composed implementation where one exists
// (unsharp, harris, pyramid; Table 2's OpenCV column). Returns ok=false for
// the other apps (the paper leaves those cells empty).
func MeasureOpenCV(app *apps.App, threads int, cfg Config) (float64, bool, error) {
	params := ScaledParams(app, cfg.Scale)
	b, _ := app.Build()
	inputs, err := app.Inputs(b, params, cfg.Seed)
	if err != nil {
		return 0, false, err
	}
	cvlib.Threads = threads
	defer func() { cvlib.Threads = 0 }()
	var run func()
	switch app.Name {
	case "unsharp":
		run = func() { cvlib.UnsharpMask(inputs["I"]) }
	case "harris":
		run = func() { cvlib.Harris(inputs["I"]) }
	case "pyramid":
		run = func() { cvlib.PyramidBlend(inputs["A"], inputs["B"], inputs["M"], 4, 4) }
	default:
		return 0, false, nil
	}
	runs := cfg.Runs
	if runs < 1 {
		runs = 1
	}
	var total time.Duration
	counted := 0
	for i := 0; i < runs; i++ {
		start := time.Now()
		run()
		d := time.Since(start)
		if i == 0 && runs > 1 {
			continue
		}
		total += d
		counted++
	}
	return float64(total.Microseconds()) / float64(counted) / 1000.0, true, nil
}

// geomean of a slice.
func geomean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	p := 1.0
	for _, v := range vs {
		p *= v
	}
	return math.Pow(p, 1.0/float64(len(vs)))
}

func defaultThreads() int { return runtime.GOMAXPROCS(0) }
