package schedule_test

import (
	"fmt"
	"math/rand"
	"slices"
	"sync/atomic"
	"testing"

	"repro/internal/affine"
	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/difftest"
	"repro/internal/dsl"
	"repro/internal/expr"
	"repro/internal/pipeline"
	"repro/internal/schedule"
)

// TestAffectedIntoSound holds TilePlan.AffectedInto, the forward image a
// dirty-rectangle frame clips its tiles to, against the backward pass it
// inverts. On every group of the searched schedules of the seven apps and
// the two uint8 apps at test size and of the 40 generated pipelines, each
// out-of-group producer in turn gets a seeded dirty box (interior,
// touching an edge, one wide); then every point of every member whose
// reads, evaluated exactly at the point, meet that box or a changed point
// of an earlier member must lie in the member's affected box. On
// harris, where one 3×3 stencil feeds another, the anchor's affected box is
// exactly the dirty box dilated by 2, clipped to the domain.
func TestAffectedIntoSound(t *testing.T) {
	type input struct {
		name   string
		build  func() (*dsl.Builder, []string)
		params map[string]int64
	}
	var inputs []input
	for _, app := range apps.All() {
		inputs = append(inputs, input{app.Name, app.Build, app.TestParams})
	}
	for _, app := range apps.AllNarrow() {
		inputs = append(inputs, input{app.Name, app.Build, app.TestParams})
	}
	for seed := int64(1); seed <= 40; seed++ {
		built, err := difftest.Generate(seed).Build(false)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		build := func() (*dsl.Builder, []string) { return built.Graph.Builder, built.LiveOuts }
		inputs = append(inputs, input{fmt.Sprintf("seed%03d", seed), build, built.Params})
	}
	var harrisChecked atomic.Bool
	t.Run("all", func(t *testing.T) {
		for k, in := range inputs {
			t.Run(in.name, func(t *testing.T) {
				t.Parallel()
				checkAffectedPipeline(t, in.name, in.build, in.params, int64(k)+1, &harrisChecked)
			})
		}
	})
	if !harrisChecked.Load() {
		t.Error("no harris group reads the image I: the exact-box check did not run")
	}
}

// checkAffectedPipeline compiles one pipeline under the auto-scheduler
// and checks the affected boxes of every group of its schedule, drawing
// the dirty boxes from seed.
func checkAffectedPipeline(t *testing.T, name string, build func() (*dsl.Builder, []string), params map[string]int64, seed int64, harrisChecked *atomic.Bool) {
	b, outs := build()
	so := schedule.Options{Auto: true, AutoOpts: &schedule.AutoOptions{FleetWidth: 2}}
	pl, err := core.Compile(b, outs, core.Options{Estimates: params, Schedule: so, AllowUnproven: true})
	if err != nil {
		t.Fatal(err)
	}
	g := pl.Graph
	rng := rand.New(rand.NewSource(seed))
	for _, grp := range pl.Grouping.Groups {
		tp, err := schedule.NewTilePlan(g, grp, params)
		if err != nil {
			t.Fatal(err)
		}
		for _, prod := range externalProducers(g, grp) {
			dom, err := domainOf(g, prod, params)
			if err != nil {
				t.Fatal(err)
			}
			for _, kind := range []string{"interior", "edge", "1-wide"} {
				dirty := dirtyBox(rng, dom, kind)
				aff := tp.MemberBoxes()
				if err := tp.AffectedInto(map[string]affine.Box{prod: dirty}, aff); err != nil {
					t.Fatal(err)
				}
				where := fmt.Sprintf("group %s, %s dirty %s %v", grp.Anchor, kind, prod, dirty)
				checkAffected(t, g, grp, params, prod, dirty, aff, where)
				if name == "harris" && grp.Anchor == "harris" && prod == "I" {
					harrisChecked.Store(true)
					checkHarrisAnchor(t, g, grp, params, dirty, aff, where)
				}
			}
		}
	}
}

// externalProducers lists the stages and images outside grp its members
// read, in first-read order.
func externalProducers(g *pipeline.Graph, grp *schedule.Group) []string {
	var out []string
	for _, m := range grp.Members {
		st := g.Stages[m]
		for _, pr := range append(slices.Clone(st.Producers), st.InputDeps...) {
			if !slices.Contains(grp.Members, pr) && !slices.Contains(out, pr) {
				out = append(out, pr)
			}
		}
	}
	return out
}

// checkAffected computes, point by point, which points of the members of
// grp read a changed value when the external producer prod changed inside
// dirty,
// and demands each lie in its member's affected box. Each access call's
// read is evaluated exactly at the point, straight from the stage's
// expressions; an argument without an affine form in the stage's own
// variables may read any index. A member point changes when some call
// reads dirty, or reads a changed point of an earlier member.
func checkAffected(t *testing.T, g *pipeline.Graph, grp *schedule.Group, params map[string]int64, prod string, dirty affine.Box, aff []affine.Box, where string) {
	t.Helper()
	pos := make(map[string]int, len(grp.Members))
	for i, m := range grp.Members {
		pos[m] = i
	}
	doms := make([]affine.Box, len(grp.Members))
	changed := make([][]bool, len(grp.Members))
	anyChanged := make([]bool, len(grp.Members))
	for i, m := range grp.Members {
		dom, err := domainOf(g, m, params)
		if err != nil {
			t.Fatal(err)
		}
		doms[i] = dom
		changed[i] = make([]bool, dom.Size())
		all, err := stageReads(g.Stages[m], params)
		if err != nil {
			t.Fatal(err)
		}
		// The calls that can read a change, with the earlier member they
		// read (-1: the dirty producer).
		var calls []readCall
		var from []int
		for _, c := range all {
			if j, in := pos[c.target]; in && j < i && anyChanged[j] {
				calls, from = append(calls, c), append(from, j)
			} else if c.target == prod {
				calls, from = append(calls, c), append(from, -1)
			}
		}
		if len(calls) == 0 {
			continue
		}
		at := make([]int64, 0, 8)
		free := make([]bool, 0, 8)
		missed := false
		forEachPoint(dom, func(pt []int64) {
			hit := false
			for k, c := range calls {
				at, free = c.at(pt, at[:0], free[:0])
				if j := from[k]; j >= 0 {
					hit = readsChanged(doms[j], changed[j], at, free)
				} else {
					hit = boxMeets(dirty, at, free)
				}
				if hit {
					break
				}
			}
			if !hit {
				return
			}
			changed[i][linear(dom, pt)] = true
			anyChanged[i] = true
			if !aff[i].Contains(pt) && !missed {
				missed = true
				t.Errorf("%s: %s%v reads a changed value, outside its affected box %v", where, m, pt, aff[i])
			}
		})
	}
}

// readCall is one access call of a stage with its arguments' affine forms
// under the binding.
type readCall struct {
	target string
	args   []readArg
}

type readArg struct {
	acc affine.Access
	off int64
	// exact reports an affine form in one of the stage's own variables,
	// or in none; any other argument may read any index.
	exact bool
}

// stageReads lists every access call of st, conditions included.
func stageReads(st *pipeline.Stage, params map[string]int64) ([]readCall, error) {
	var out []readCall
	var err error
	rank := len(st.Decl.Domain())
	record := func(e expr.Expr) bool {
		a, ok := e.(expr.Access)
		if !ok {
			return true
		}
		c := readCall{target: a.Target}
		for _, arg := range a.Args {
			acc, ok := expr.ToAffineAccess(arg)
			ra := readArg{acc: acc, exact: ok && acc.Var < rank}
			if ra.exact {
				if ra.off, err = acc.Off.Eval(params); err != nil {
					return false
				}
			}
			c.args = append(c.args, ra)
		}
		out = append(out, c)
		return true
	}
	for _, e := range st.Exprs() {
		expr.Walk(e, record)
	}
	for _, c := range st.Cases {
		if c.Cond != nil {
			expr.WalkCond(c.Cond, record)
		}
	}
	return out, err
}

// at evaluates the call's read at pt into at, and free marks the
// arguments that may read any index.
func (c readCall) at(pt, at []int64, free []bool) ([]int64, []bool) {
	for _, a := range c.args {
		var v int64
		if a.exact {
			v = a.off
			if a.acc.Var >= 0 {
				v += a.acc.Coeff * pt[a.acc.Var]
			}
			v = affine.FloorDiv(v, a.acc.Div)
		}
		at = append(at, v)
		free = append(free, !a.exact)
	}
	return at, free
}

// boxMeets reports whether a read at at (any index where free) can land
// in box.
func boxMeets(box affine.Box, at []int64, free []bool) bool {
	for d := range box {
		if !free[d] && !box[d].Contains(at[d]) {
			return false
		}
	}
	return true
}

// readsChanged reports whether a read at at (any index where free) can land
// on a changed point of a member with domain dom.
func readsChanged(dom affine.Box, changed []bool, at []int64, free []bool) bool {
	if !slices.Contains(free, true) {
		return dom.Contains(at) && changed[linear(dom, at)]
	}
	q := make(affine.Box, len(dom))
	for d := range dom {
		q[d] = dom[d]
		if !free[d] {
			q[d] = q[d].Intersect(affine.Range{Lo: at[d], Hi: at[d]})
		}
	}
	hit := false
	forEachPoint(q, func(pt []int64) {
		hit = hit || changed[linear(dom, pt)]
	})
	return hit
}

// linear is pt's row-major offset in box.
func linear(box affine.Box, pt []int64) int64 {
	var off int64
	for d, r := range box {
		off = off*r.Size() + pt[d] - r.Lo
	}
	return off
}

// checkHarrisAnchor demands harris's affected box be the dirty box
// dilated by 2 (a 3×3 stencil of a 3×3 stencil of I), clipped to the
// domain.
func checkHarrisAnchor(t *testing.T, g *pipeline.Graph, grp *schedule.Group, params map[string]int64, dirty affine.Box, aff []affine.Box, where string) {
	t.Helper()
	dom, err := domainOf(g, grp.Anchor, params)
	if err != nil {
		t.Fatal(err)
	}
	want := make(affine.Box, len(dom))
	for d := range dom {
		want[d] = affine.Range{Lo: dirty[d].Lo - 2, Hi: dirty[d].Hi + 2}.Intersect(dom[d])
	}
	for i, m := range grp.Members {
		if m != grp.Anchor {
			continue
		}
		for d := range want {
			if aff[i][d] != want[d] {
				t.Errorf("%s: harris affected box %v, want %v", where, aff[i], want)
				break
			}
		}
	}
}

// dirtyBox draws a sub-box of dom: one strictly inside it where the
// extent allows ("interior"), one touching the low or high edge of a
// random dimension ("edge"), or one a single index wide in a random
// dimension ("1-wide").
func dirtyBox(rng *rand.Rand, dom affine.Box, kind string) affine.Box {
	sub := func(r affine.Range) affine.Range {
		lo := r.Lo + rng.Int63n(r.Size())
		return affine.Range{Lo: lo, Hi: lo + rng.Int63n(r.Hi-lo+1)}
	}
	out := make(affine.Box, len(dom))
	for d, r := range dom {
		if r.Size() >= 3 {
			r = affine.Range{Lo: r.Lo + 1, Hi: r.Hi - 1}
		}
		out[d] = sub(r)
	}
	k := rng.Intn(len(dom))
	switch kind {
	case "edge":
		if rng.Intn(2) == 0 {
			out[k].Lo = dom[k].Lo
		} else {
			out[k].Hi = dom[k].Hi
		}
	case "1-wide":
		out[k].Hi = out[k].Lo
	}
	return out
}

// domainOf is the concrete domain of a stage or an input image.
func domainOf(g *pipeline.Graph, name string, params map[string]int64) (affine.Box, error) {
	if st, ok := g.Stages[name]; ok {
		return st.Decl.Domain().Eval(params)
	}
	return g.Images[name].Domain().Eval(params)
}

// forEachPoint calls f on every point of the non-empty box b, the last
// dimension fastest; f must not keep pt.
func forEachPoint(b affine.Box, f func(pt []int64)) {
	if b.Empty() {
		return
	}
	pt := make([]int64, len(b))
	for d := range b {
		pt[d] = b[d].Lo
	}
	for {
		f(pt)
		d := len(b) - 1
		for ; d >= 0; d-- {
			pt[d]++
			if pt[d] <= b[d].Hi {
				break
			}
			pt[d] = b[d].Lo
		}
		if d < 0 {
			return
		}
	}
}

// TestAccumulatorReadsWiden: an accumulator's access variables index its
// reduction domain from 0, not its output box, so the tile plan widens
// every read it makes outside its group to the producer's whole extent. On
// difftest's histogram at R=72, C=52 (an 8×12×32 grid swept over the 72×52
// image I) the group's tile reads all of I, not the grid's [0,7]×[0,11]
// corner of it, and a change anywhere in I affects the whole grid.
func TestAccumulatorReadsWiden(t *testing.T) {
	var hist difftest.GatherCase
	for _, gc := range difftest.AccumCases() {
		if gc.Name == "sum" {
			hist = gc
		}
	}
	b, outs := hist.Build()
	g, err := pipeline.Build(b, outs...)
	if err != nil {
		t.Fatal(err)
	}
	params := map[string]int64{"R": 72, "C": 52}
	gr, err := schedule.BuildGroups(g, params, schedule.Options{TileSizes: []int64{4, 4}})
	if err != nil {
		t.Fatal(err)
	}
	image := affine.Box{{Lo: 0, Hi: 71}, {Lo: 0, Hi: 51}}
	grid := affine.Box{{Lo: 0, Hi: 7}, {Lo: 0, Hi: 11}, {Lo: 0, Hi: 31}}
	for _, grp := range gr.Groups {
		if grp.Anchor != "hist" {
			continue
		}
		tp, err := schedule.NewTilePlan(g, grp, params)
		if err != nil {
			t.Fatal(err)
		}
		req, ext := tp.MemberBoxes(), tp.ExtBoxes()
		if err := tp.RequiredInto(make([]int64, len(tp.TileCounts)), req); err != nil {
			t.Fatal(err)
		}
		if err := tp.ExternalInto(req, ext); err != nil {
			t.Fatal(err)
		}
		if len(ext) != 1 || !slices.Equal(ext[0], image) {
			t.Errorf("hist's tile reads %v of I, want %v", ext, image)
		}
		aff := tp.MemberBoxes()
		dirty := affine.Box{{Lo: 60, Hi: 61}, {Lo: 40, Hi: 40}}
		if err := tp.AffectedInto(map[string]affine.Box{"I": dirty}, aff); err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(aff[0], grid) {
			t.Errorf("I dirty in %v affects %v of hist, want %v", dirty, aff[0], grid)
		}
		return
	}
	t.Fatal("no group anchored at hist")
}
