package main

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/difftest"
	"repro/internal/dsl"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/schedule"
	"repro/internal/service"
)

// pipe is one benchmark pipeline: a Table-2 app or a narrow-type app, at
// the size the workloads time it and at an eighth of it per dimension,
// where the correctness pre-check can afford the reference interpreter.
type pipe struct {
	name   string
	narrow bool
	build  func() (*dsl.Builder, []string)
	inputs func(b *dsl.Builder, params map[string]int64, seed int64) (map[string]*engine.Buffer, error)
	bench  map[string]int64
	check  map[string]int64
}

// shrink divides every parameter by n, not below the app's test size.
func shrink(params, floor map[string]int64, n int64) map[string]int64 {
	out := make(map[string]int64, len(params))
	for k, v := range params {
		out[k] = max(v/n, floor[k], 1)
	}
	return out
}

// tablePipes returns the named Table-2 apps (all seven when names is
// empty) at scale 4 — the binding the checked-in generated kernels were
// emitted for — or at test size when tiny.
func tablePipes(tiny bool, names ...string) ([]pipe, error) {
	if len(names) == 0 {
		names = apps.Names()
	}
	var out []pipe
	for _, n := range names {
		a, err := apps.Get(n)
		if err != nil {
			return nil, err
		}
		p := pipe{name: a.Name, build: a.Build, inputs: a.Inputs, bench: a.TestParams, check: a.TestParams}
		if !tiny {
			p.bench = shrink(a.PaperParams, a.TestParams, 4)
			p.check = shrink(p.bench, a.TestParams, 8)
		}
		out = append(out, p)
	}
	return out, nil
}

// narrowPipes returns the uint8 apps at their benchmark size.
func narrowPipes(tiny bool) []pipe {
	var out []pipe
	for _, a := range apps.AllNarrow() {
		p := pipe{name: a.Name, narrow: true, build: a.Build, inputs: a.Inputs, bench: a.TestParams, check: a.TestParams}
		if !tiny {
			p.bench = a.BenchParams
			p.check = shrink(a.BenchParams, a.TestParams, 8)
		}
		out = append(out, p)
	}
	return out
}

// execOptions is the library path's default configuration.
func (p pipe) execOptions(metrics bool) engine.ExecOptions {
	return engine.ExecOptions{Fast: true, ReuseBuffers: true, NarrowTypes: p.narrow, Metrics: metrics}
}

// compiled is a pipe compiled and bound at one parameter binding.
type compiled struct {
	pipe
	b      *dsl.Builder
	outs   []string
	params map[string]int64
	pl     *core.Pipeline
	prog   *engine.Program
}

// compile runs the service's build path for a registered app, under the
// serving default (auto-scheduler) or the hand schedule.
func compile(p pipe, params map[string]int64, auto, metrics bool, tr *tracer, parent, op int) (*compiled, error) {
	b, outs := p.build()
	pl, prog, err := compileGraph(b, outs, params, auto, p.execOptions(metrics), tr, parent, op)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", p.name, err)
	}
	return &compiled{pipe: p, b: b, outs: outs, params: params, pl: pl, prog: prog}, nil
}

// compileGraph is service.build's sequence, core.Compile then Bind. With a
// tracer it records a span around each call and, inside them, the phases
// the program's own compile traces report.
func compileGraph(b *dsl.Builder, outs []string, params map[string]int64, auto bool, eo engine.ExecOptions, tr *tracer, parent, op int) (*core.Pipeline, *engine.Program, error) {
	so := schedule.DefaultOptions()
	so.Auto = auto
	sp := tr.begin("core.compile", parent, op)
	pl, err := core.Compile(b, outs, core.Options{Estimates: params, Schedule: so, AllowUnproven: true})
	tr.end(sp)
	if err != nil {
		return nil, nil, fmt.Errorf("compile: %w", err)
	}
	tracePhases(tr, sp, pl.Trace, map[string]string{
		"graph": "pipeline.build", "bounds": "bounds.check", "inline": "inline.apply",
		"group": "schedule.group", "auto": "schedule.group",
	})
	sp = tr.begin("engine.compile", parent, op)
	prog, err := pl.Bind(params, eo)
	tr.end(sp)
	if err != nil {
		return nil, nil, fmt.Errorf("bind: %w", err)
	}
	tracePhases(tr, sp, &prog.BindTrace, map[string]string{"lower": "engine.lower", "tileplan": "engine.tileplan"})
	return pl, prog, nil
}

// tracePhases lays a compile trace's phases end to end inside their parent
// span, renamed to the module that did the work.
func tracePhases(tr *tracer, parent int, t *obs.Trace, names map[string]string) {
	if tr == nil || t == nil {
		return
	}
	var at time.Duration
	for _, ph := range t.Phases {
		if name, ok := names[ph.Name]; ok {
			tr.child(name, parent, at, time.Duration(ph.Nanos))
		}
		at += time.Duration(ph.Nanos)
	}
}

// rebind lowers the same compiled pipeline again with executor metrics on:
// the traced pass reads per-stage kernel time from it, the timed pass runs
// the default program without the recorder.
func (c *compiled) rebind() (*compiled, error) {
	prog, err := c.pl.Bind(c.params, c.execOptions(true))
	if err != nil {
		return nil, fmt.Errorf("%s: bind with metrics: %w", c.name, err)
	}
	cc := *c
	cc.prog = prog
	return &cc, nil
}

// checksum fingerprints a run's live-outs in the format of responseSums.
func (c *compiled) checksum(out map[string]*engine.Buffer) string {
	return responseSums(libraryResponse(c.name, c.outs, out))
}

// libraryResponse builds what Service.Do answers for a checksum-mode
// request from a library run's outputs: each live-out's box and checksum.
func libraryResponse(label string, outs []string, out map[string]*engine.Buffer) *service.RunResponse {
	resp := &service.RunResponse{Pipeline: label, Outputs: make(map[string]service.OutputResult, len(outs))}
	for _, lo := range outs {
		b := out[lo]
		o := service.OutputResult{Checksum: fmt.Sprintf("%016x", difftest.Checksum(b))}
		for _, iv := range b.Box {
			o.Box = append(o.Box, [2]int64{iv.Lo, iv.Hi})
		}
		resp.Outputs[lo] = o
	}
	return resp
}

// responseSums flattens a response's output checksums into one string, so
// a served result and a library result compare with ==.
func responseSums(resp *service.RunResponse) string {
	names := make([]string, 0, len(resp.Outputs))
	for n := range resp.Outputs {
		names = append(names, n)
	}
	sort.Strings(names)
	var sb strings.Builder
	for _, n := range names {
		sb.WriteString(n + "=" + resp.Outputs[n].Checksum + ";")
	}
	return sb.String()
}

// goldenSeed is the input seed of the repository's golden oracle tests. The
// pre-check uses it whatever the run's seed: unsharp's output is a threshold
// select, and on other seeds a pixel can sit close enough to the threshold
// for float32 and the float64 reference to take different branches, which
// no tolerance covers.
const goldenSeed = 42

// precheck compiles the pipe in the timed configuration at its check size,
// runs it on the golden tests' input and compares every live-out with the
// independent tree-walking reference interpreter, at the golden tests'
// tolerance (exact for the integer pipelines).
func precheck(p pipe) error {
	c, err := compile(p, p.check, true, false, nil, -1, -1)
	if err != nil {
		return err
	}
	defer c.prog.Close()
	in, err := p.inputs(c.b, p.check, goldenSeed)
	if err != nil {
		return fmt.Errorf("%s: inputs: %w", p.name, err)
	}
	out, err := c.prog.Run(in)
	if err != nil {
		return fmt.Errorf("%s: run: %w", p.name, err)
	}
	ref, err := engine.Reference(c.prog.Graph, p.check, in)
	if err != nil {
		return fmt.Errorf("%s: reference: %w", p.name, err)
	}
	atol, ulp := 2e-3, uint32(64)
	if p.narrow {
		atol, ulp = 0, 0
	}
	for _, lo := range c.outs {
		if d := difftest.Compare(out[lo], ref[lo], atol, ulp); d != "" {
			return fmt.Errorf("%s: output %s differs from the reference interpreter at %v: %s", p.name, lo, p.check, d)
		}
	}
	return nil
}

func precheckAll(pipes []pipe) error {
	for _, p := range pipes {
		if err := precheck(p); err != nil {
			return err
		}
	}
	return nil
}

// tierNames are the evaluator tiers of obs.StageModel, in dispatch order.
var tierNames = []string{"gen", "stencil", "comb", "intstencil", "rowvm", "closure", "scalar"}

// tierCounts returns how many stage pieces lowered to each tier.
func tierCounts(stages []obs.StageModel) map[string]int {
	n := map[string]int{}
	for _, s := range stages {
		n["gen"] += s.Gen
		n["stencil"] += s.Stencil
		n["comb"] += s.Comb
		n["intstencil"] += s.IntStencil
		n["rowvm"] += s.RowVM
		n["closure"] += s.ClosureRow
		n["scalar"] += s.Scalar
	}
	return n
}

// engineLayers derives the engine's per-layer rows from what programs
// expose: the lowering decisions of Program.Stats (exact) and the kernel
// counters of Executor.Snapshot, each keyed by pipeline.
func engineLayers(m map[string]float64, stages map[string][]obs.StageModel, snaps map[string]obs.Snapshot) {
	total := map[string]int{}
	pieces := 0
	for name, st := range stages {
		n := tierCounts(st)
		all := 0
		for tier, c := range n {
			total[tier] += c
			all += c
		}
		pieces += all
		m["engine.gen_piece_share."+name] = ratio(float64(n["gen"]), float64(all))
	}
	for _, tier := range tierNames {
		m["engine.tier_piece_share."+tier] = ratio(float64(total[tier]), float64(pieces))
	}
	var points, recomputed, busy, capacity float64
	var hits, misses int64
	for name, s := range snaps {
		hits += s.Arena.Hits
		misses += s.Arena.Misses
		if !s.Enabled {
			continue // arena counters only: the program runs without the recorder
		}
		var nanos, pts float64
		for _, st := range s.Stages {
			nanos += float64(st.KernelNanos)
			pts += float64(st.Points)
			recomputed += float64(st.RecomputedPoints)
		}
		points += pts
		m["engine.ns_per_point."+name] = ratio(nanos, pts)
		busy += float64(s.Workers.BusyNanos)
		capacity += float64(s.WallNanos+s.FrameNanos) * float64(s.Workers.Workers)
	}
	m["engine.recompute_share"] = ratio(recomputed, points)
	m["engine.worker_utilization"] = ratio(busy, capacity)
	m["engine.arena_hit_share"] = ratio(float64(hits), float64(hits+misses))
}

// serviceLayers derives per-layer rows from a server's GET /metrics: the
// engine rows of its cached app programs, keyed by app, and the service's
// own cache and admission counters.
func serviceLayers(m map[string]float64, met *service.Metrics) {
	stages := map[string][]obs.StageModel{}
	snaps := map[string]obs.Snapshot{}
	for _, p := range met.Programs {
		if !strings.HasPrefix(p.Pipeline, "spec:") {
			stages[p.Pipeline] = p.Stages
			snaps[p.Pipeline] = p.Snapshot
		}
	}
	engineLayers(m, stages, snaps)
	m["service.cache_hit_share"] = ratio(float64(met.CacheHits), float64(met.CacheHits+met.CacheMisses))
	m["service.refused"] = float64(met.Rejected429 + met.Rejected503)
}
