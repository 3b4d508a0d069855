// Package core drives the PolyMage compiler phases of Figure 4: build the
// stage graph, static bounds checking, inlining, polyhedral representation
// and initial schedules (implicit in the pipeline graph), alignment/scaling,
// grouping, schedule transformation (overlapped tiling), storage
// optimization, and lowering for execution.
package core

import (
	"fmt"
	"slices"

	"repro/internal/bounds"
	"repro/internal/dsl"
	"repro/internal/engine"
	"repro/internal/inline"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/schedule"
)

// Options configures a compilation.
type Options struct {
	// Estimates gives approximate values for the pipeline parameters
	// (Section 3.5: "typically, the user has an idea of the range of image
	// dimensions"). Grouping decisions are made at these values.
	Estimates map[string]int64
	// Schedule tunes grouping and tiling (tile sizes, overlap threshold).
	Schedule schedule.Options
	// Inline tunes the point-wise inlining pass.
	Inline inline.Options
	// AllowUnproven accepts accesses that hold at the estimates but are
	// not provable for all parameter values (the generated implementation
	// is still checked dynamically in debug builds).
	AllowUnproven bool
}

// ServeOptions is the configuration polymage-serve compiles and binds a
// request in, from what the request and the server fix of it: hand tile
// sizes (nil for the default ones), the auto-scheduler, the worker count,
// Fast (row programs and generated kernels) and executor metrics. Buffers
// are pooled and accesses unproven for every parameter value are accepted;
// the caller sets Estimates. difftest's serve-default knobs run the same
// function, so the sweep checks what the service runs.
func ServeOptions(tiles []int64, auto bool, threads int, fast, metrics bool) (Options, engine.ExecOptions) {
	so := schedule.DefaultOptions()
	if len(tiles) > 0 {
		so.TileSizes = slices.Clone(tiles)
	}
	so.Auto = auto
	return Options{Schedule: so, AllowUnproven: true},
		engine.ExecOptions{Threads: threads, Fast: fast, ReuseBuffers: true, Metrics: metrics}
}

// Pipeline is a compiled pipeline: analysis and scheduling are done; Bind
// lowers it for a concrete parameter binding.
type Pipeline struct {
	Graph    *pipeline.Graph
	Grouping *schedule.Grouping
	Bounds   *bounds.Result
	Inlined  []string
	Opts     Options
	// Trace records the wall time of each compiler phase (graph build,
	// bounds check, inlining, grouping). Bind attaches it to the Program it
	// produces, so Program.Stats carries the full compile-time picture.
	Trace *obs.Trace
}

// Compile runs the front-end and optimizer on a DSL specification.
//
// Compile never panics on a malformed specification: internal panics from
// the DSL layer or the compiler phases are recovered and returned as errors
// (the panic messages carry the offending stage's name). Long-lived callers
// — the serving layer compiles untrusted specifications — rely on this
// barrier.
func Compile(b *dsl.Builder, liveOuts []string, opts Options) (pl *Pipeline, err error) {
	defer func() {
		if r := recover(); r != nil {
			pl, err = nil, fmt.Errorf("core: malformed specification: %v", r)
		}
	}()
	if opts.Estimates == nil {
		opts.Estimates = map[string]int64{}
	}
	tr := &obs.Trace{}
	done := tr.Start("graph")
	g, err := pipeline.Build(b, liveOuts...)
	done()
	if err != nil {
		return nil, err
	}
	done = tr.Start("bounds")
	res := bounds.Check(g, opts.Estimates)
	done()
	if err := res.Err(); err != nil {
		return nil, err
	}
	if !opts.AllowUnproven && len(res.Unproven) > 0 {
		v := res.Unproven[0]
		return nil, fmt.Errorf("core: %d access(es) not provable for all parameters (first: %s); set AllowUnproven or fix the specification", len(res.Unproven), v.String())
	}
	done = tr.Start("inline")
	inlined, err := inline.Apply(g, opts.Inline)
	done()
	if err != nil {
		return nil, err
	}
	done = tr.Start("group")
	gr, err := schedule.BuildGroups(g, opts.Estimates, opts.Schedule)
	done()
	if err != nil {
		return nil, err
	}
	return &Pipeline{Graph: g, Grouping: gr, Bounds: res, Inlined: inlined, Opts: opts, Trace: tr}, nil
}

// Bind lowers the pipeline for a concrete parameter binding. The grouping
// (decided at the estimates) is reused — like the paper's generated code,
// the implementation is valid for all parameter values even though it is
// optimized around the estimates.
func (p *Pipeline) Bind(params map[string]int64, eopts engine.ExecOptions) (prog *engine.Program, err error) {
	// Same panic barrier as Compile: lowering a hostile spec/binding must
	// yield (nil, error), never crash a serving process.
	defer func() {
		if r := recover(); r != nil {
			prog, err = nil, fmt.Errorf("core: bind panicked: %v", r)
		}
	}()
	prog, err = engine.Compile(p.Grouping, params, eopts)
	if err != nil {
		return nil, err
	}
	prog.CompileTrace = p.Trace
	return prog, nil
}

// NewInputs allocates one buffer per declared input image under the given
// parameter binding, keyed by image name — ready to fill and pass to
// Program.Run.
func (p *Pipeline) NewInputs(params map[string]int64) (map[string]*engine.Buffer, error) {
	out := make(map[string]*engine.Buffer, len(p.Graph.Images))
	for name, im := range p.Graph.Images {
		buf, err := im.NewBuffer(params)
		if err != nil {
			return nil, fmt.Errorf("core: input %q: %w", name, err)
		}
		out[name] = buf
	}
	return out, nil
}

// GroupSummary renders the grouping (the dashed boxes of Figure 8) as one
// line per group: "anchor <= member, member, ...".
func (p *Pipeline) GroupSummary() []string {
	var out []string
	for _, grp := range p.Grouping.Groups {
		line := grp.Anchor
		if len(grp.Members) > 1 {
			line += " <="
			for _, m := range grp.Members {
				line += " " + m
			}
			line += fmt.Sprintf("  [tiles %v, overlap %.3f]", grp.TileSizes, maxRatio(grp.OverlapRatio))
		}
		out = append(out, line)
	}
	return out
}

func maxRatio(rs []float64) float64 {
	m := 0.0
	for _, r := range rs {
		if r > m {
			m = r
		}
	}
	return m
}
