package engine

import (
	"fmt"
	"runtime"
	"slices"
	"sync"

	"repro/internal/affine"
	"repro/internal/dsl"
	"repro/internal/expr"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/schedule"
)

// ExecOptions configures execution.
type ExecOptions struct {
	// Threads is the number of worker goroutines (the paper's OpenMP
	// thread count). 0 means GOMAXPROCS.
	Threads int
	// Fast dispatches stage pieces to ahead-of-time generated Go kernels
	// (cmd/polymage-gen) where the process links one for the piece's shape
	// — the stand-in for the paper's `+vec` axis. Without it, and for every
	// piece no kernel covers, pieces run on the row VM.
	Fast bool
	// Debug checks every row-VM load, gather and accumulator target against
	// the region of the buffer it addresses. Generated kernels stay
	// unchecked, and under Debug gathers and accumulators bind none.
	Debug bool
	// Tiling selects the tiling strategy for fused groups: the paper's
	// overlapped tiling (default, parallel tiles with recomputed halos) or
	// parallelogram tiling (sequential skewed tiles, no recomputation,
	// full-buffer intermediates) for the Figure 5 trade-off comparison.
	Tiling TilingStrategy
	// ReuseBuffers enables liveness-based pooling of full buffers: once
	// every consumer group of an intermediate live-out has executed, its
	// array is recycled for later stages (an extension of Section 3.6's
	// storage optimization from tile scratchpads to inter-group buffers).
	// With pooling on, Run returns only the pipeline's declared outputs —
	// other stage buffers may alias recycled storage.
	ReuseBuffers bool
	// Metrics enables the executor's observability layer: per-stage and
	// per-group kernel times, tiles, recomputation and worker-pool
	// utilization, read via Executor.Snapshot. Must be set before the
	// Program's first Run/Executor call (the recorder is sized when the
	// executor is created). When false, the instrumented call sites reduce
	// to a nil check and the steady-state Run path is unchanged.
	Metrics bool
	// NarrowTypes enables bitwidth inference (see narrow.go): stages whose
	// values are provably integral and bounded within ±2^24 are stored as
	// uint8/uint16/int32 instead of float32, cutting memory traffic on
	// integer imaging pipelines, and UChar input images are expected as
	// uint8 buffers. Inferred stages evaluate in a generated kernel's int64
	// body or on the integer row VM (or their float64 counterparts, which are
	// bit-identical on the provable subset); the float32 bodies are never
	// used for them, so results are exactly equal to the default layout's.
	// Off by default: with the flag clear no inference runs and every buffer
	// keeps the historical float32 layout.
	NarrowTypes bool

	// fleet overrides the process-wide scheduler this program's executor
	// attaches to. Test hook only: lets scheduler tests build a private
	// multi-worker fleet without touching the process singleton (whose size
	// tracks the machine).
	fleet *fleet
}

// fleetOf returns the fleet a program with these options runs on and its
// effective parallelism: Threads (0: GOMAXPROCS) clamped to the fleet's
// size. The fleet is the machine, so a larger request would only
// oversubscribe it; Snapshot().Workers reports the clamped value.
func (o ExecOptions) fleetOf() (*fleet, int) {
	f := o.fleet
	if f == nil {
		f = defaultFleet()
	}
	t := o.Threads
	if t <= 0 {
		t = runtime.GOMAXPROCS(0)
	}
	return f, min(t, f.size)
}

// loweredPiece is one case of a stage lowered for a concrete parameter
// binding: the sub-box where it applies, an optional residual predicate
// (nil when the condition is exactly the box — Section 3.7's branch-free
// splitting), and its one lowering. A piece runs gen when one is bound and
// vm otherwise. A predicated piece's program is Select(pred, E, own output),
// so the points its predicate rejects keep their values. A case shadowed by
// an earlier overlapping default has no piece.
type loweredPiece struct {
	box  affine.Box
	pred expr.Cond
	vm   *rowVM
	// gen is the ahead-of-time generated Go kernel bound to this piece
	// (nil unless a kernel is registered under the piece's content key);
	// it takes precedence over every interpreted tier.
	gen *genBound
	// unit is the piece's canonical form and its one lowering (lowerCanon),
	// which vm runs bound to this program's slots and the piece's generated
	// kernel prints. It follows the fields the tile loop reads.
	unit GenUnit
}

// loweredStage is a stage compiled against a parameter binding.
type loweredStage struct {
	name    string
	slot    int
	id      int // dense stage id (index into Program.stageNames), for metrics
	dom     affine.Box
	pieces  []loweredPiece
	selfRef bool
	// rows marks a self-referencing stage whose every self-read is carried
	// by an outer dimension (carriedByRows): it runs a row at a time, any
	// other self-referencing stage a point at a time.
	rows bool
	// elem is the stage's inferred storage element type (ElemF32 unless
	// Options.NarrowTypes narrowed it); intExact marks stages whose every
	// expression node is provably integral within ±2^24 — eligible for the
	// integer row VM.
	elem     Elem
	intExact bool

	isAcc  bool
	accOp  dsl.ReduceOp
	redDom affine.Box
	// acc is the accumulator's canonical form and its one lowering, and
	// accVM that program for the row sweep: per row it computes every
	// target index row and the value row, which are scattered in the
	// reference's order.
	acc   GenUnit
	accVM *rowVM
	// accGen is the generated kernel bound to the accumulator (nil unless one
	// is registered under its key); it takes precedence over the row sweep.
	accGen *genBound
}

// predicated reports whether a piece of ls has a residual predicate: its
// program stores the point's own value where the predicate fails, so a
// region recomputed into a buffer that is not fresh must first be zeroed.
func (ls *loweredStage) predicated() bool {
	for i := range ls.pieces {
		if ls.pieces[i].pred != nil {
			return true
		}
	}
	return false
}

// groupExec pairs a schedule group with its tile plan and lowered members.
type groupExec struct {
	grp *schedule.Group
	// tp is the plan the tile loop runs: the schedule's overlapped tiles
	// for a fused group, schedule.NewBandPlan's bands for a lone stage (one
	// region for an accumulator or a self-referencing stage).
	tp      *schedule.TilePlan
	id      int // dense group id (execution order), for metrics
	members []*loweredStage
	// liveOut[i] reports whether members[i] must be written to its full
	// buffer.
	liveOut []bool
	// releases lists the stages whose full buffers a pooled run recycles
	// to the arena after this group, precomputed at compile time: their
	// last consumer group is this one and they are not declared pipeline
	// outputs.
	releases []*loweredStage
}

// Program is a pipeline compiled for one parameter binding, ready to run.
type Program struct {
	Graph    *pipeline.Graph
	Grouping *schedule.Grouping
	Params   map[string]int64
	Opts     ExecOptions

	slots     map[string]int
	slotCount int
	// slotElem is the storage element type per buffer slot (images and
	// stages). All-ElemF32 unless Opts.NarrowTypes narrowed some slots;
	// Run validates input buffers against it.
	slotElem []Elem
	// inBoxes is the concrete domain of each input image under Params.
	inBoxes map[string]affine.Box
	stages  map[string]*loweredStage
	groups  []*groupExec
	// fullStages lists stages that get full-buffer allocations (all group
	// live-outs).
	fullStages []string
	// maxDims is the largest rank of any stage domain or reduction domain;
	// persistent workers size their point odometer with it once.
	maxDims int
	// isOutput marks the pipeline's declared outputs (Graph.LiveOuts).
	isOutput map[string]bool
	// stageNames/groupNames give the dense metric-id spaces: stage id i is
	// stageNames[i] (topological order), group id i the i-th executed
	// group's anchor.
	stageNames []string
	groupNames []string

	// BindTrace times the lowering phases of this parameter binding
	// (stage lowering, tile planning and, under Fast, binding generated
	// kernels); part of Stats().
	BindTrace obs.Trace
	// CompileTrace, when set by core.Pipeline.Bind, carries the front-end
	// phase timings (graph construction, bounds, inlining, grouping).
	CompileTrace *obs.Trace

	// exec is the lazily created persistent runtime (see Executor).
	execOnce sync.Once
	exec     *Executor

	// genMiss records why pieces did not bind a generated kernel
	// (attachGenKernels); part of Stats().
	genMiss obs.GenMisses

	// SplitStats counts points computed in each split-tiling phase (filled
	// by runs with ExecOptions.Tiling == SplitTiling; diagnostics only).
	SplitStats struct{ Phase1, Phase2 int64 }
}

// Compile lowers a grouped pipeline for the given parameter binding. The
// binding must cover every parameter the pipeline references; missing ones
// are reported up front as an error wrapping affine.ErrUnboundParam.
func Compile(gr *schedule.Grouping, params map[string]int64, opts ExecOptions) (*Program, error) {
	g := gr.Graph
	if err := checkParams(g, params); err != nil {
		return nil, err
	}
	p := &Program{
		Graph:    g,
		Grouping: gr,
		Params:   params,
		Opts:     opts,
		slots:    make(map[string]int),
		stages:   make(map[string]*loweredStage),
	}
	// Slot assignment: images first, then stages in topological order.
	for _, name := range sortedImageNames(g) {
		p.slots[name] = p.slotCount
		p.slotCount++
	}
	for _, name := range g.Order {
		p.slots[name] = p.slotCount
		p.slotCount++
	}
	p.inBoxes = make(map[string]affine.Box, len(g.Images))
	for name, im := range g.Images {
		box, err := im.Domain().Eval(params)
		if err != nil {
			return nil, err
		}
		p.inBoxes[name] = box
	}
	// Bitwidth inference: pick a storage element type per slot. Without
	// NarrowTypes everything is ElemF32 and lowering below is unchanged.
	p.slotElem = make([]Elem, p.slotCount)
	var nw *narrowing
	if opts.NarrowTypes {
		nw = inferNarrow(g, params)
		for name, slot := range p.slots {
			if sn, ok := nw.stages[name]; ok {
				p.slotElem[slot] = sn.elem
			}
		}
	}
	lowerDone := p.BindTrace.Start("lower")
	p.stageNames = append(p.stageNames, g.Order...)
	for i, name := range g.Order {
		ls, err := p.lowerStage(g.Stages[name], nw)
		if err != nil {
			return nil, err
		}
		ls.id = i
		p.stages[name] = ls
	}
	lowerDone()
	planDone := p.BindTrace.Start("tileplan")
	// A lone stage runs as the paper's parallel loop over its outer
	// dimension, cut into 4 bands per thread.
	_, threads := opts.fleetOf()
	bands := int64(1)
	if threads > 1 {
		bands = 4 * int64(threads)
	}
	seenFull := make(map[string]bool)
	for _, grp := range gr.Groups {
		var tp *schedule.TilePlan
		var err error
		if ls := p.stages[grp.Anchor]; len(grp.Members) > 1 {
			tp, err = schedule.NewTilePlan(g, grp, params)
		} else if ls.isAcc || ls.selfRef {
			tp, err = schedule.NewBandPlan(g, grp, params, 1)
		} else {
			tp, err = schedule.NewBandPlan(g, grp, params, bands)
		}
		if err != nil {
			return nil, err
		}
		ge := &groupExec{grp: grp, tp: tp, id: len(p.groups)}
		p.groupNames = append(p.groupNames, grp.Anchor)
		lo := make(map[string]bool, len(tp.LiveOuts))
		for _, m := range tp.LiveOuts {
			lo[m] = true
		}
		for _, m := range grp.Members {
			ge.members = append(ge.members, p.stages[m])
			ge.liveOut = append(ge.liveOut, lo[m])
			if lo[m] && !seenFull[m] {
				seenFull[m] = true
				p.fullStages = append(p.fullStages, m)
			}
		}
		p.groups = append(p.groups, ge)
	}
	planDone()
	for _, ls := range p.stages {
		if len(ls.dom) > p.maxDims {
			p.maxDims = len(ls.dom)
		}
		if len(ls.redDom) > p.maxDims {
			p.maxDims = len(ls.redDom)
		}
	}
	p.isOutput = make(map[string]bool, len(g.LiveOuts))
	for _, lo := range g.LiveOuts {
		p.isOutput[lo] = true
	}
	// Precompute the pooled-execution release schedule: after which group
	// each full buffer recycles (its last consumer group), so runs do no
	// liveness analysis.
	groupOf := make(map[string]int, len(p.stages))
	for gi, ge := range p.groups {
		for _, m := range ge.grp.Members {
			groupOf[m] = gi
		}
	}
	for _, name := range p.fullStages {
		if p.isOutput[name] {
			continue
		}
		last := groupOf[name]
		for _, c := range g.Stages[name].Consumers {
			if gi := groupOf[c]; gi > last {
				last = gi
			}
		}
		p.groups[last].releases = append(p.groups[last].releases, p.stages[name])
	}
	// Generated-kernel lookup: bind every piece whose content key has an
	// ahead-of-time kernel registered (see genkernel.go).
	if opts.Fast {
		kernelsDone := p.BindTrace.Start("kernels")
		p.attachGenKernels()
		kernelsDone()
	}
	return p, nil
}

func sortedImageNames(g *pipeline.Graph) []string {
	names := make([]string, 0, len(g.Images))
	for n := range g.Images {
		names = append(names, n)
	}
	slices.Sort(names)
	return names
}

func (p *Program) lowerStage(st *pipeline.Stage, nw *narrowing) (*loweredStage, error) {
	dom, err := st.Decl.Domain().Eval(p.Params)
	if err != nil {
		return nil, fmt.Errorf("engine: %s: %v", st.Name, err)
	}
	ls := &loweredStage{
		name:    st.Name,
		slot:    p.slots[st.Name],
		dom:     dom,
		selfRef: st.SelfRef,
	}
	if nw != nil {
		sn := nw.stages[st.Name]
		ls.elem = sn.elem
		ls.intExact = sn.intExact
	}
	if st.IsAccumulator() {
		acc := st.Decl.(*dsl.Accumulator)
		ls.isAcc = true
		ls.accOp = st.AccOp
		ls.redDom, err = acc.ReductionDomain().Eval(p.Params)
		if err != nil {
			return nil, err
		}
		ls.acc, ls.accVM, err = p.lowerCanon(GenUnit{Stage: st.Name, Rank: len(ls.redDom), Op: st.AccOp, Out: ls.elem},
			append(slices.Clone(st.AccTarget), st.AccValue), len(st.AccTarget), false, setF64)
		return ls, err
	}
	nd := len(dom)
	ls.rows = st.SelfRef && carriedByRows(st, nd, p.Params)
	// own is the stage's own output at the point: what a predicated piece
	// stores where its predicate fails.
	own := expr.Access{Target: st.Name, Args: make([]expr.Expr, nd)}
	for d := range nd {
		own.Args[d] = expr.VarRef{Dim: d}
	}
	boxes := make([]affine.Box, 0, len(st.Cases))
cases:
	for i, c := range st.Cases {
		piece := loweredPiece{box: dom.Clone()}
		if c.Cond != nil {
			lower, upper, ok := expr.CondToBox(c.Cond, nd)
			if !ok {
				// Keep the predicate; the conjuncts that convert still shrink
				// the box (a sound over-approximation of the case's region).
				lower, upper = expr.CondToBoxPartial(c.Cond, nd)
				piece.pred = c.Cond
			}
			for d := range nd {
				if lower[d] != nil {
					if piece.box[d].Lo, err = lower[d].Eval(p.Params); err != nil {
						return nil, err
					}
				}
				if upper[d] != nil {
					if piece.box[d].Hi, err = upper[d].Eval(p.Params); err != nil {
						return nil, err
					}
				}
			}
			piece.box = piece.box.Intersect(dom)
		}
		boxes = append(boxes, piece.box)
		// The first matching case wins: where an earlier case's box meets
		// this one, the earlier condition is excluded here, and an earlier
		// case without one shadows this case entirely.
		for j, b := range boxes[:i] {
			if b.Intersect(piece.box).Empty() {
				continue
			}
			cj := st.Cases[j].Cond
			if cj == nil {
				continue cases
			}
			if piece.pred == nil {
				piece.pred = expr.Not{A: cj}
			} else {
				piece.pred = expr.And{A: piece.pred, B: expr.Not{A: cj}}
			}
		}
		e := c.E
		if piece.pred != nil {
			e = expr.Select{Cond: piece.pred, Then: c.E, Else: own}
		}
		// Lower the piece's canonical form once and pick its register type.
		// A provably integral stage (which stores a narrow type) asks for
		// int64. Narrow-involved pieces (the stage stores a narrow type, or
		// any access reads a narrow slot) never get float32: its rounding
		// would break the narrow layout's exact-equality guarantee. The rest
		// ask for float32. finish falls back to float64 when the program
		// fails the requested set's gate.
		want := setF64
		switch {
		case ls.intExact:
			want = setInt
		case ls.elem == ElemF32 && !p.readsNarrow(c.E):
			want = setF32
		}
		piece.unit, piece.vm, err = p.lowerCanon(GenUnit{Stage: st.Name, Piece: len(ls.pieces), Rank: nd, Out: ls.elem},
			[]expr.Expr{e}, 0, piece.pred != nil, want)
		if err != nil {
			return nil, err
		}
		ls.pieces = append(ls.pieces, piece)
	}
	return ls, nil
}

// readsNarrow reports whether any access in e targets a narrow-typed slot.
func (p *Program) readsNarrow(e expr.Expr) bool {
	found := false
	expr.Walk(e, func(x expr.Expr) bool {
		if a, ok := x.(expr.Access); ok {
			if slot, ok := p.slots[a.Target]; ok && p.slotElem[slot] != ElemF32 {
				found = true
			}
		}
		return !found
	})
	return found
}

// carriedByRows reports whether every read st makes of itself is carried by
// an outer dimension: over the outer dimensions its index is
// lexicographically earlier than the point's (heat's t−1), so a row depends
// only on rows before it. A read that can land in its own row (an in-row
// scan) or has a non-affine outer index is not carried.
func carriedByRows(st *pipeline.Stage, nd int, params map[string]int64) bool {
	for i, r := range st.Reads {
		if r.Target == st.Name && r.ProducerDim == 0 && !readCarried(st.Reads[i:i+nd], params) {
			return false
		}
	}
	return true
}

// readCarried reports whether the self-read whose arguments are args lands
// in an earlier row: its outer indices are the point's up to one dimension
// that reads d − k, k > 0.
func readCarried(args []pipeline.Read, params map[string]int64) bool {
	for d, r := range args[:len(args)-1] {
		if !r.OK || r.Acc.Var != d || r.Acc.Coeff != 1 || r.Acc.Div != 1 {
			return false
		}
		off, err := r.Acc.Off.Eval(params)
		if err != nil || off > 0 {
			return false
		}
		if off < 0 {
			return true
		}
	}
	return false
}

// InputBox returns the concrete domain of a declared input image.
func (p *Program) InputBox(name string) (affine.Box, error) {
	box, ok := p.inBoxes[name]
	if !ok {
		return nil, fmt.Errorf("engine: unknown input image %q: %w", name, ErrUnknownStage)
	}
	return slices.Clone(box), nil
}

// OutputBox returns the concrete domain of a live-out stage.
func (p *Program) OutputBox(name string) (affine.Box, error) {
	ls, ok := p.stages[name]
	if !ok {
		return nil, fmt.Errorf("engine: unknown stage %q: %w", name, ErrUnknownStage)
	}
	return slices.Clone(ls.dom), nil
}

// Stats returns the compile-time side of the program's observability
// surface: front-end phase timings (when the program was compiled through
// core.Compile), the lowering phase timings of this binding, and the
// schedule model — tile sizes/counts and estimated overlap — per group.
// Compare against Executor.Snapshot to see how the model's predictions
// line up with measured recomputation.
func (p *Program) Stats() obs.ProgramStats {
	st := obs.ProgramStats{Compile: p.CompileTrace, Bind: p.BindTrace, GenMisses: p.genMiss}
	st.Groups = make([]obs.GroupModel, 0, len(p.groups))
	for _, ge := range p.groups {
		gm := obs.GroupModel{
			Anchor:       ge.grp.Anchor,
			Members:      append([]string(nil), ge.grp.Members...),
			Tiled:        ge.grp.Tiled,
			TileSizes:    append([]int64(nil), ge.tp.TileSizes...),
			TileCounts:   append([]int64(nil), ge.tp.TileCounts...),
			OverlapRatio: append([]float64(nil), ge.grp.OverlapRatio...),
			PlannedTiles: ge.tp.NumTiles(),
		}
		if c := ge.grp.Cost; c != nil {
			gm.Cost = &obs.GroupCostModel{
				Compute:         c.Compute,
				Recompute:       c.Recompute,
				Traffic:         c.Traffic,
				ParallelIdle:    c.ParallelIdle,
				FootprintExcess: c.FootprintExcess,
				ModelTiles:      c.Tiles,
				Exact:           c.Exact,
			}
		}
		st.Groups = append(st.Groups, gm)
	}
	if p.Grouping != nil && p.Grouping.Searched {
		st.AutoScheduled = true
		st.ScheduleModelCost = p.Grouping.ModelCost
		if s := p.Grouping.Search; s != nil {
			st.SearchStates = s.States
			st.SearchPerDimEvals = s.PerDimEvals
			st.SearchEnumeratedEvals = s.EnumeratedEvals
		}
	}
	st.Stages = make([]obs.StageModel, 0, len(p.stageNames))
	for _, name := range p.stageNames {
		ls := p.stages[name]
		sm := obs.StageModel{Name: name, Elem: ls.elem.String(), IntExact: ls.intExact}
		// vmShape adds one row program to the stage's VM counters.
		vmShape := func(vm *rowVM) {
			sm.VMInstrs += len(vm.instrs)
			sm.VMFusedOps += vm.fused
			sm.VMRegs = max(sm.VMRegs, vm.nRegs)
			sm.VMBoolRegs = max(sm.VMBoolRegs, vm.nBool)
		}
		switch {
		case ls.accGen != nil:
			sm.Gen++
		case ls.isAcc:
			// An accumulator is one piece, one row program computing its
			// targets and value (accumulateRows).
			sm.RowVM++
			vmShape(ls.accVM)
		}
		for pi := range ls.pieces {
			piece := &ls.pieces[pi]
			if piece.gen != nil {
				sm.Gen++
				continue
			}
			sm.RowVM++
			vmShape(piece.vm)
			sm.VMF32 = sm.VMF32 || piece.vm.set == setF32
			sm.VMInt = sm.VMInt || piece.vm.set == setInt
		}
		st.Stages = append(st.Stages, sm)
	}
	return st
}
