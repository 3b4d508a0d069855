// Package codegen emits C++ source in the style of the paper's generated
// code (Figure 7): an OpenMP-parallel tile loop per fused group, scratchpad
// arrays for intermediates declared at the top of the parallel region with
// tile-relative indexing, branch-free bounded inner loops per case with
// ivdep annotations, and full-array allocations for live-outs.
//
// The paper's compiler hands this code to icc; here no C++ toolchain is
// available, so the emitted source is a presentation artifact (inspected by
// golden/structure tests and the polymage-cgen tool) while the in-process
// engine executes the same schedule (DESIGN.md, substitution note 2).
package codegen

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/affine"
	"repro/internal/core"
	"repro/internal/dsl"
	"repro/internal/expr"
	"repro/internal/schedule"
)

// Emit renders the scheduled pipeline as a C++ function named
// pipe_<name>.
func Emit(p *core.Pipeline, name string) (string, error) {
	e := &emitter{p: p, est: p.Opts.Estimates}
	return e.emit(name)
}

type emitter struct {
	p   *core.Pipeline
	est map[string]int64
	b   strings.Builder
	ind int
	// floorDiv records that an index uses floord, emitted ahead of the
	// function.
	floorDiv bool
}

const floordSrc = `static inline int floord(int a, int b) {
  int q = a / b;
  return (a % b != 0 && ((a < 0) != (b < 0))) ? q - 1 : q;
}

`

func (e *emitter) printf(format string, args ...any) {
	e.b.WriteString(strings.Repeat("  ", e.ind))
	fmt.Fprintf(&e.b, format, args...)
	e.b.WriteByte('\n')
}

func (e *emitter) emit(name string) (string, error) {
	g := e.p.Graph
	params := g.ParamNames()
	var args []string
	for _, pn := range params {
		args = append(args, "int "+pn)
	}
	var imgs []string
	for n := range g.Images {
		imgs = append(imgs, n)
	}
	sort.Strings(imgs)
	for _, n := range imgs {
		args = append(args, "float* "+n)
	}
	for _, lo := range g.LiveOuts {
		args = append(args, "float*& "+lo)
	}
	e.printf("void pipe_%s(%s)", name, strings.Join(args, ", "))
	e.printf("{")
	e.ind++

	// Live-out allocations (every group live-out gets a full array).
	e.printf("/* Live out allocation */")
	allocated := map[string]bool{}
	for _, grp := range e.p.Grouping.Groups {
		tp, err := schedule.NewTilePlan(g, grp, e.est)
		if err != nil {
			return "", err
		}
		for _, lo := range tp.LiveOuts {
			if allocated[lo] {
				continue
			}
			allocated[lo] = true
			dom := g.Stages[lo].Decl.Domain()
			e.printf("%s = (float *) (malloc(sizeof(float) * %s));", lo, e.domSize(dom))
		}
	}
	for _, grp := range e.p.Grouping.Groups {
		if err := e.emitGroup(grp); err != nil {
			return "", err
		}
	}
	e.ind--
	e.printf("}")
	if e.floorDiv {
		return floordSrc + e.b.String(), nil
	}
	return e.b.String(), nil
}

// domSize renders the element count of a parametric domain.
func (e *emitter) domSize(dom affine.Domain) string {
	var parts []string
	for _, iv := range dom {
		parts = append(parts, "("+e.affine(iv.Hi.Sub(iv.Lo).AddConst(1))+")")
	}
	return strings.Join(parts, " * ")
}

func (e *emitter) affine(a affine.Expr) string {
	s := a.String()
	return strings.ReplaceAll(s, "*", " * ")
}

func (e *emitter) emitGroup(grp *schedule.Group) error {
	g := e.p.Graph
	if !grp.Tiled {
		return e.emitSingle(grp)
	}
	tp, err := schedule.NewTilePlan(g, grp, e.est)
	if err != nil {
		return err
	}
	anchorDom := g.Stages[grp.Anchor].Decl.Domain()
	e.printf("")
	e.printf("/* Group: %s (%d stages, overlapped tiling) */", grp.Anchor, len(grp.Members))

	// One tile loop per tiled anchor dimension.
	liveOut := map[string]bool{}
	for _, lo := range tp.LiveOuts {
		liveOut[lo] = true
	}
	var tiledDims []int
	for d, ts := range tp.TileSizes {
		if ts > 0 {
			tiledDims = append(tiledDims, d)
		}
	}
	// Scratchpad extents from an interior tile at the estimates.
	idx := make([]int64, len(tp.TileCounts))
	for d, c := range tp.TileCounts {
		idx[d] = c / 2
	}
	req := tp.MemberBoxes()
	if err := tp.RequiredInto(idx, req); err != nil {
		return err
	}

	opened := 0
	for i, d := range tiledDims {
		if i == 0 {
			e.printf("#pragma omp parallel for schedule(dynamic)")
		}
		e.printf("for (int T%d = 0; T%d < %s; T%d += 1) {", d, d,
			e.ceilDivStr(anchorDom[d], tp.TileSizes[d]), d)
		e.ind++
		opened++
		if i == 0 {
			e.printf("/* Scratchpads (tile-local intermediate storage) */")
			for mi, m := range grp.Members {
				box := req[mi]
				if liveOut[m] || box.Empty() {
					continue
				}
				var dims []string
				for _, r := range box {
					dims = append(dims, fmt.Sprintf("[%d]", r.Size()))
				}
				e.printf("float %s%s;", scratchName(m), strings.Join(dims, ""))
			}
		}
	}

	for _, m := range grp.Members {
		if err := e.emitStageLoops(grp, tp, m, liveOut[m]); err != nil {
			return err
		}
	}
	for ; opened > 0; opened-- {
		e.ind--
		e.printf("}")
	}
	return nil
}

// ceilDivStr renders ceil(extent / ts) for the tile-count loop bound.
func (e *emitter) ceilDivStr(iv affine.Interval, ts int64) string {
	ext := iv.Hi.Sub(iv.Lo).AddConst(1)
	return fmt.Sprintf("((%s + %d) / %d)", e.affine(ext), ts-1, ts)
}

func scratchName(m string) string { return "scr_" + sanitize(m) }

func sanitize(s string) string {
	return strings.Map(func(r rune) rune {
		if r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' || r >= '0' && r <= '9' || r == '_' {
			return r
		}
		return '_'
	}, s)
}

// emitStageLoops renders one member's loops inside the tile.
func (e *emitter) emitStageLoops(grp *schedule.Group, tp *schedule.TilePlan, m string, isLiveOut bool) error {
	g := e.p.Graph
	st := g.Stages[m]
	dom := st.Decl.Domain()
	scales := grp.Scales[m]
	nd := len(dom)
	e.printf("/* stage %s */", m)
	for _, c := range st.Cases {
		lbs, ubs := e.caseBounds(dom, c)
		// Intersect with the tile-mapped region per aligned dimension.
		for d := 0; d < nd; d++ {
			ds := scales[d]
			if ds.AnchorDim < 0 || tp.TileSizes[ds.AnchorDim] == 0 {
				continue
			}
			ts := tp.TileSizes[ds.AnchorDim]
			lbs[d] = fmt.Sprintf("max(%s, %s)", lbs[d],
				scaleTerm(ds.Scale, fmt.Sprintf("T%d * %d", ds.AnchorDim, ts), -int64(ts)))
			ubs[d] = fmt.Sprintf("min(%s, %s)", ubs[d],
				scaleTerm(ds.Scale, fmt.Sprintf("(T%d + 1) * %d", ds.AnchorDim, ts), int64(ts)))
		}
		names := st.Decl.VarNames()
		for d := 0; d < nd; d++ {
			if d == nd-1 {
				e.printf("#pragma ivdep")
			}
			e.printf("for (int %s = %s; %s <= %s; %s += 1) {", names[d], lbs[d], names[d], ubs[d], names[d])
			e.ind++
		}
		target := m
		if !isLiveOut {
			target = scratchName(m)
		}
		e.printf("%s = %s;", e.lvalue(target, m, names, !isLiveOut, grp, tp),
			e.expr(c.E, grp, tp))
		for d := 0; d < nd; d++ {
			e.ind--
			e.printf("}")
		}
	}
	return nil
}

// scaleTerm renders scale·(base) + slack, used for tile-mapped loop bounds
// (the slack widens the window by one tile to cover the overlap region; the
// max/min against the case bounds keeps it exact).
func scaleTerm(s affine.Rational, base string, slack int64) string {
	inner := base
	if slack > 0 {
		inner = fmt.Sprintf("%s + %d", base, slack)
	} else if slack < 0 {
		inner = fmt.Sprintf("%s - %d", base, -slack)
	}
	if s.Num == 1 && s.Den == 1 {
		return inner
	}
	if s.Den == 1 {
		return fmt.Sprintf("%d * (%s)", s.Num, inner)
	}
	return fmt.Sprintf("(%d * (%s)) / %d", s.Num, inner, s.Den)
}

// caseBounds renders per-dimension lower/upper bounds of a case: the domain
// bounds tightened by the case's box condition.
func (e *emitter) caseBounds(dom affine.Domain, c dsl.Case) (lbs, ubs []string) {
	nd := len(dom)
	lbs = make([]string, nd)
	ubs = make([]string, nd)
	for d := 0; d < nd; d++ {
		lbs[d] = e.affine(dom[d].Lo)
		ubs[d] = e.affine(dom[d].Hi)
	}
	if c.Cond == nil {
		return
	}
	lower, upper, ok := expr.CondToBox(c.Cond, nd)
	if !ok {
		return
	}
	for d := 0; d < nd; d++ {
		if lower[d] != nil {
			lbs[d] = fmt.Sprintf("max(%s, %s)", lbs[d], e.affine(*lower[d]))
		}
		if upper[d] != nil {
			ubs[d] = fmt.Sprintf("min(%s, %s)", ubs[d], e.affine(*upper[d]))
		}
	}
	return
}

// lvalue renders the assignment target: scratchpads index relative to the
// tile base, live-outs as flat arrays.
func (e *emitter) lvalue(target, m string, names []string, scratch bool, grp *schedule.Group, tp *schedule.TilePlan) string {
	if scratch {
		return target + e.scratchIndex(m, names, grp, tp)
	}
	return fmt.Sprintf("%s[%s]", target, e.flatIndex(m, names))
}

// scratchIndex renders [x - base0][y - base1]... with tile-relative bases.
func (e *emitter) scratchIndex(m string, idx []string, grp *schedule.Group, tp *schedule.TilePlan) string {
	scales := grp.Scales[m]
	var b strings.Builder
	for d, ix := range idx {
		ds := scales[d]
		if ds.AnchorDim < 0 || tp.TileSizes[ds.AnchorDim] == 0 {
			fmt.Fprintf(&b, "[%s]", ix)
			continue
		}
		base := scaleTerm(ds.Scale, fmt.Sprintf("T%d * %d", ds.AnchorDim, tp.TileSizes[ds.AnchorDim]), -int64(tp.TileSizes[ds.AnchorDim]))
		fmt.Fprintf(&b, "[%s - (%s)]", ix, base)
	}
	return b.String()
}

// flatIndex renders a row-major flat index over the stage/image domain.
func (e *emitter) flatIndex(target string, idx []string) string {
	dom := e.targetDomain(target)
	out := idx[0]
	if c, ok := dom[0].Lo.ConstVal(); !ok || c != 0 {
		out = fmt.Sprintf("(%s - (%s))", idx[0], e.affine(dom[0].Lo))
	}
	for d := 1; d < len(idx); d++ {
		ext := e.affine(dom[d].Hi.Sub(dom[d].Lo).AddConst(1))
		term := idx[d]
		if c, ok := dom[d].Lo.ConstVal(); !ok || c != 0 {
			term = fmt.Sprintf("(%s - (%s))", idx[d], e.affine(dom[d].Lo))
		}
		out = fmt.Sprintf("(%s) * (%s) + %s", out, ext, term)
	}
	return out
}

func (e *emitter) targetDomain(target string) affine.Domain {
	if st, ok := e.p.Graph.Stages[target]; ok {
		return st.Decl.Domain()
	}
	if im, ok := e.p.Graph.Images[target]; ok {
		return im.Domain()
	}
	if im, ok := e.p.Graph.Builder.InputImage(target); ok {
		return im.Domain()
	}
	return nil
}

// emitSingle renders an untiled single-stage group.
func (e *emitter) emitSingle(grp *schedule.Group) error {
	g := e.p.Graph
	st := g.Stages[grp.Anchor]
	e.printf("")
	if st.IsAccumulator() {
		return e.emitAccumulator(st.Name)
	}
	e.printf("/* Stage: %s (no fusion) */", st.Name)
	dom := st.Decl.Domain()
	names := st.Decl.VarNames()
	for _, c := range st.Cases {
		lbs, ubs := e.caseBounds(dom, c)
		for d := range dom {
			if d == 0 {
				e.printf("#pragma omp parallel for schedule(static)")
			}
			if d == len(dom)-1 {
				e.printf("#pragma ivdep")
			}
			e.printf("for (int %s = %s; %s <= %s; %s += 1) {", names[d], lbs[d], names[d], ubs[d], names[d])
			e.ind++
		}
		e.printf("%s[%s] = %s;", st.Name, e.flatIndex(st.Name, names), e.expr(c.E, grp, nil))
		for range dom {
			e.ind--
			e.printf("}")
		}
	}
	return nil
}

func (e *emitter) emitAccumulator(name string) error {
	g := e.p.Graph
	st := g.Stages[name]
	acc := st.Decl.(*dsl.Accumulator)
	e.printf("/* Reduction: %s */", name)
	init := map[dsl.ReduceOp]string{dsl.MinOp: "INFINITY", dsl.MaxOp: "-INFINITY", dsl.MulOp: "1.0f"}[st.AccOp]
	if init == "" {
		e.printf("memset(%s, 0, sizeof(float) * %s);", name, e.domSize(acc.Domain()))
	} else {
		e.printf("std::fill_n(%s, %s, %s);", name, e.domSize(acc.Domain()), init)
	}
	red := acc.ReductionDomain()
	names := acc.RedVarNames()
	for d := range red {
		e.printf("for (int %s = %s; %s <= %s; %s += 1) {", names[d], e.affine(red[d].Lo), names[d], e.affine(red[d].Hi), names[d])
		e.ind++
	}
	var idx []string
	for _, t := range st.AccTarget {
		idx = append(idx, e.iexpr(t, nil, nil))
	}
	lv, v := fmt.Sprintf("%s[%s]", name, e.flatIndex(name, idx)), e.expr(st.AccValue, nil, nil)
	switch st.AccOp {
	case dsl.MinOp:
		e.printf("%s = std::min(%s, %s);", lv, lv, v)
	case dsl.MaxOp:
		e.printf("%s = std::max(%s, %s);", lv, lv, v)
	case dsl.MulOp:
		e.printf("%s *= %s;", lv, v)
	default:
		e.printf("%s += %s;", lv, v)
	}
	for range red {
		e.ind--
		e.printf("}")
	}
	return nil
}
