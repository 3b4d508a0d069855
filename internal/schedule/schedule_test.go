package schedule

import (
	"sort"
	"strings"
	"testing"

	"repro/internal/affine"
	"repro/internal/dsl"
	"repro/internal/expr"
	"repro/internal/inline"
	"repro/internal/pipeline"
)

var est = map[string]int64{"R": 512, "C": 512}

// rangeCovers reports whether o is a subset of r (an empty o always is).
func rangeCovers(r, o affine.Range) bool {
	return o.Empty() || (o.Lo >= r.Lo && o.Hi <= r.Hi)
}

// harrisGraph builds the (inlined) Harris pipeline: Ix, Iy, Sxx, Sxy, Syy,
// harris — the stage structure of Figure 7.
func harrisGraph(t *testing.T) *pipeline.Graph {
	t.Helper()
	b := dsl.NewBuilder()
	R, C := b.Param("R"), b.Param("C")
	I := b.Image("I", expr.Float, R.Affine().AddConst(2), C.Affine().AddConst(2))
	x, y := b.Var("x"), b.Var("y")
	dom := []dsl.Interval{
		dsl.Span(affine.Const(0), R.Affine().AddConst(1)),
		dsl.Span(affine.Const(0), C.Affine().AddConst(1)),
	}
	inner := dsl.InBox([]*dsl.Variable{x, y}, []any{1, 1}, []any{R, C})
	innerB := dsl.InBox([]*dsl.Variable{x, y}, []any{2, 2}, []any{dsl.Sub(R, 1), dsl.Sub(C, 1)})
	Iy := b.Func("Iy", expr.Float, []*dsl.Variable{x, y}, dom)
	Iy.Define(dsl.Case{Cond: inner, E: dsl.Stencil(I, 1.0/12,
		[][]float64{{-1, -2, -1}, {0, 0, 0}, {1, 2, 1}}, [2]any{x, y})})
	Ix := b.Func("Ix", expr.Float, []*dsl.Variable{x, y}, dom)
	Ix.Define(dsl.Case{Cond: inner, E: dsl.Stencil(I, 1.0/12,
		[][]float64{{-1, 0, 1}, {-2, 0, 2}, {-1, 0, 1}}, [2]any{x, y})})
	box := [][]float64{{1, 1, 1}, {1, 1, 1}, {1, 1, 1}}
	mk := func(name string, src *dsl.Function, other *dsl.Function) *dsl.Function {
		f := b.Func(name, expr.Float, []*dsl.Variable{x, y}, dom)
		prod := dsl.Mul(src.At(x, y), other.At(x, y))
		sq := b.Func(name+"_sq", expr.Float, []*dsl.Variable{x, y}, dom)
		sq.Define(dsl.Case{E: prod})
		f.Define(dsl.Case{Cond: innerB, E: dsl.Stencil(sq, 1, box, [2]any{x, y})})
		return f
	}
	Sxx := mk("Sxx", Ix, Ix)
	Syy := mk("Syy", Iy, Iy)
	Sxy := mk("Sxy", Ix, Iy)
	harris := b.Func("harris", expr.Float, []*dsl.Variable{x, y}, dom)
	det := dsl.Sub(dsl.Mul(Sxx.At(x, y), Syy.At(x, y)), dsl.Mul(Sxy.At(x, y), Sxy.At(x, y)))
	trace := dsl.Add(Sxx.At(x, y), Syy.At(x, y))
	harris.Define(dsl.Case{Cond: innerB, E: dsl.Sub(det, dsl.Mul(0.04, dsl.Mul(trace, trace)))})
	g, err := pipeline.Build(b, "harris")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := inline.Apply(g, inline.DefaultOptions()); err != nil {
		t.Fatal(err)
	}
	return g
}

func TestHarrisGroupsIntoOne(t *testing.T) {
	g := harrisGraph(t)
	gr, err := BuildGroups(g, est, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(gr.Groups) != 1 {
		names := []string{}
		for _, grp := range gr.Groups {
			names = append(names, strings.Join(grp.Members, "+"))
		}
		t.Fatalf("expected 1 group, got %d: %v", len(gr.Groups), names)
	}
	grp := gr.Groups[0]
	if grp.Anchor != "harris" || !grp.Tiled {
		t.Errorf("anchor=%s tiled=%v", grp.Anchor, grp.Tiled)
	}
	if len(grp.Members) != 6 {
		t.Errorf("members = %v", grp.Members)
	}
	// All stages share the anchor grid: scale 1 on both dims.
	for m, ds := range grp.Scales {
		for d, s := range ds {
			if s.AnchorDim != d || !s.Scale.Equal(affine.One) {
				t.Errorf("%s dim %d scale = %+v", m, d, s)
			}
		}
	}
	// Overlap for a 3-deep stencil chain on 32x256 tiles is small but nonzero.
	if grp.OverlapRatio[0] <= 0 || grp.OverlapRatio[0] >= 0.4 {
		t.Errorf("overlap ratio = %v", grp.OverlapRatio)
	}
}

// TestGroupingDigest: the digest identifies the plan — grouping and tile
// sizes — and nothing else: equal for the same plan reached through
// different options or estimates, different when either moves.
func TestGroupingDigest(t *testing.T) {
	digest := func(est map[string]int64, o Options) string {
		gr, err := BuildGroups(harrisGraph(t), est, o)
		if err != nil {
			t.Fatal(err)
		}
		return gr.Digest()
	}
	tiled := func(sizes ...int64) Options {
		o := DefaultOptions()
		o.TileSizes = sizes
		return o
	}
	base := digest(est, DefaultOptions())
	if len(base) != 16 || base != digest(map[string]int64{"R": 2 * est["R"], "C": est["C"]}, tiled(DefaultOptions().TileSizes...)) {
		t.Error("same grouping and tile sizes, different digest")
	}
	if base == digest(est, tiled(16, 64)) {
		t.Error("tile sizes do not enter the digest")
	}
	if base == digest(est, Options{DisableFusion: true}) {
		t.Error("grouping does not enter the digest")
	}
}

func TestDisableFusion(t *testing.T) {
	g := harrisGraph(t)
	gr, err := BuildGroups(g, est, Options{DisableFusion: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(gr.Groups) != 6 {
		t.Errorf("expected 6 singleton groups, got %d", len(gr.Groups))
	}
	for _, grp := range gr.Groups {
		if grp.Tiled || len(grp.Members) != 1 {
			t.Errorf("group %v should be a singleton", grp.Members)
		}
	}
}

func TestTinyThresholdBlocksStencilFusion(t *testing.T) {
	// A near-zero threshold still admits zero-overlap (point-wise) merges —
	// harris reads Sxx/Syy/Sxy at identity — but blocks every merge across
	// a stencil edge.
	g := harrisGraph(t)
	gr, err := BuildGroups(g, est, Options{OverlapThreshold: 1e-9})
	if err != nil {
		t.Fatal(err)
	}
	if len(gr.Groups) != 3 {
		t.Errorf("expected 3 groups ({S*,harris}, {Ix}, {Iy}), got %v", describeGroups(gr))
	}
	if gr.ByName["Sxx"] != gr.ByName["harris"] {
		t.Error("zero-overlap point-wise merge should still happen")
	}
	if gr.ByName["Ix"] == gr.ByName["Sxx"] {
		t.Error("stencil merge must be blocked by the tiny threshold")
	}
}

func TestNegativeThresholdBlocksAllFusion(t *testing.T) {
	g := harrisGraph(t)
	gr, err := BuildGroups(g, est, Options{OverlapThreshold: -1})
	if err != nil {
		t.Fatal(err)
	}
	if len(gr.Groups) != 6 {
		t.Errorf("negative threshold must block all merges, got %d groups", len(gr.Groups))
	}
}

// downsampleChain builds out(x) consuming half-resolution d(x) consuming
// full-resolution f(x): tests scaling (Section 3.3 / Figure 6).
func downsampleChain(t *testing.T) *pipeline.Graph {
	t.Helper()
	b := dsl.NewBuilder()
	R := b.Param("R")
	I := b.Image("I", expr.Float, R.Affine().Scale(2).AddConst(2))
	x := b.Var("x")
	full := []dsl.Interval{dsl.Span(affine.Const(0), R.Affine().Scale(2).AddConst(1))}
	half := []dsl.Interval{dsl.Span(affine.Const(0), R.Affine())}
	f := b.Func("f", expr.Float, []*dsl.Variable{x}, full)
	f.Define(dsl.Case{E: I.At(x)})
	d := b.Func("d", expr.Float, []*dsl.Variable{x}, half)
	d.Define(dsl.Case{E: dsl.Add(f.At(dsl.Mul(2, x)), f.At(dsl.Add(dsl.Mul(2, x), 1)))})
	// out upsamples d back to full resolution.
	out := b.Func("out", expr.Float, []*dsl.Variable{x}, full)
	out.Define(dsl.Case{E: d.At(dsl.IDiv(x, 2))})
	g, err := pipeline.Build(b, "out")
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestScalingThroughSampling(t *testing.T) {
	g := downsampleChain(t)
	members := map[string]bool{"f": true, "d": true, "out": true}
	scales, err := computeScales(newGraphInfo(g, nil), members, "out")
	if err != nil {
		t.Fatal(err)
	}
	if !scales["out"][0].Scale.Equal(affine.One) {
		t.Errorf("out scale = %v", scales["out"][0])
	}
	if got := scales["d"][0].Scale; !got.Equal(affine.NewRational(1, 2)) {
		t.Errorf("d scale = %v, want 1/2", got)
	}
	if got := scales["f"][0].Scale; !got.Equal(affine.One) {
		t.Errorf("f scale = %v, want 1 (2 · 1/2)", got)
	}
}

func TestInconsistentScalesRejected(t *testing.T) {
	// f(x) = g(x/2) + g(x/4): the paper's example of un-alignable schedules.
	b := dsl.NewBuilder()
	R := b.Param("R")
	I := b.Image("I", expr.Float, R.Affine())
	x := b.Var("x")
	dom := []dsl.Interval{dsl.Span(affine.Const(0), R.Affine().AddConst(-1))}
	gg := b.Func("g", expr.Float, []*dsl.Variable{x}, dom)
	gg.Define(dsl.Case{E: I.At(x)})
	f := b.Func("f", expr.Float, []*dsl.Variable{x},
		[]dsl.Interval{dsl.ConstSpan(0, 99)})
	f.Define(dsl.Case{E: dsl.Add(gg.At(dsl.IDiv(x, 2)), gg.At(dsl.IDiv(x, 4)))})
	g, err := pipeline.Build(b, "f")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := computeScales(newGraphInfo(g, nil), map[string]bool{"f": true, "g": true}, "f"); err == nil {
		t.Error("expected inconsistent-scale error for g(x/2) + g(x/4)")
	}
}

func TestTransposedAccessRejected(t *testing.T) {
	// f(x,y) = g(x,y) + g(y,x): dims align to two different anchor dims.
	b := dsl.NewBuilder()
	x, y := b.Var("x"), b.Var("y")
	dom := []dsl.Interval{dsl.ConstSpan(0, 99), dsl.ConstSpan(0, 99)}
	gg := b.Func("g", expr.Float, []*dsl.Variable{x, y}, dom)
	gg.Define(dsl.Case{E: dsl.Add(x, y)})
	f := b.Func("f", expr.Float, []*dsl.Variable{x, y}, dom)
	f.Define(dsl.Case{E: dsl.Add(gg.At(x, y), gg.At(y, x))})
	g, err := pipeline.Build(b, "f")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := computeScales(newGraphInfo(g, nil), map[string]bool{"f": true, "g": true}, "f"); err == nil {
		t.Error("expected alignment conflict for g(x,y) + g(y,x)")
	}
}

func TestAccumulatorNeverGrouped(t *testing.T) {
	b := dsl.NewBuilder()
	R := b.Param("R")
	I := b.Image("I", expr.UChar, R.Affine(), R.Affine())
	x, y, bin := b.Var("x"), b.Var("y"), b.Var("bin")
	dom := []dsl.Interval{
		dsl.Span(affine.Const(0), R.Affine().AddConst(-1)),
		dsl.Span(affine.Const(0), R.Affine().AddConst(-1)),
	}
	hist := b.Accum("hist", expr.Int, []*dsl.Variable{x, y}, dom,
		[]*dsl.Variable{bin}, []dsl.Interval{dsl.ConstSpan(0, 255)})
	hist.Define([]any{I.At(x, y)}, 1, dsl.SumOp)
	cdf := b.Func("cdf", expr.Float, []*dsl.Variable{bin}, []dsl.Interval{dsl.ConstSpan(0, 255)})
	cdf.Define(dsl.Case{E: dsl.Div(hist.At(bin), 100.0)})
	g, err := pipeline.Build(b, "cdf")
	if err != nil {
		t.Fatal(err)
	}
	gr, err := BuildGroups(g, map[string]int64{"R": 512}, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if gr.ByName["hist"] == gr.ByName["cdf"] {
		t.Error("accumulator must not be fused with its consumer")
	}
}

// TestTilePlanInvariants checks the execution-safety invariants of the
// overlapped tile decomposition on the Harris group:
//  1. owned live-out boxes partition each live-out domain (cover, disjoint);
//  2. for every tile and in-group access, the producer's required region
//     contains everything the consumer's required region reads (soundness).
func TestTilePlanInvariants(t *testing.T) {
	g := harrisGraph(t)
	smallEst := map[string]int64{"R": 150, "C": 200}
	gr, err := BuildGroups(g, smallEst, Options{TileSizes: []int64{32, 64}, MinTileExtent: 16})
	if err != nil {
		t.Fatal(err)
	}
	if len(gr.Groups) != 1 {
		t.Fatalf("expected one group, got %d", len(gr.Groups))
	}
	tp, err := NewTilePlan(g, gr.Groups[0], smallEst)
	if err != nil {
		t.Fatal(err)
	}
	checkTilePlanInvariants(t, tp, smallEst)
}

func checkTilePlanInvariants(t *testing.T, tp *TilePlan, params map[string]int64) {
	t.Helper()
	// Per live-out, per dimension: owned intervals must tile the domain.
	type cover struct{ lo, hi int64 }
	covers := make(map[int][][]cover) // live-out position -> dim -> intervals
	idx := make([]int64, len(tp.TileCounts))
	req, owned := tp.MemberBoxes(), tp.MemberBoxes()
	n := tp.NumTiles()
	for flat := int64(0); flat < n; flat++ {
		tp.TileIndex(flat, idx)
		if err := tp.RequiredInto(idx, req); err != nil {
			t.Fatal(err)
		}
		// Soundness of propagation for in-group reads.
		for ci, cname := range tp.Group.Members {
			crq := req[ci]
			if crq.Empty() {
				continue
			}
			for _, aa := range tp.InGroupAccesses(ci) {
				var vr affine.Range
				if aa.Acc.Var >= 0 {
					vr = crq[aa.Acc.Var]
				}
				off, err := aa.Acc.Off.Eval(params)
				if err != nil {
					t.Fatal(err)
				}
				need := aa.Acc.RangeAt(off, vr).Intersect(tp.members[aa.Target].dom[aa.ProducerDim])
				have := req[aa.Target][aa.ProducerDim]
				if !rangeCovers(have, need) {
					t.Fatalf("tile %v: %s needs %s of %s dim %d but tile computes %s",
						idx, cname, need, tp.Group.Members[aa.Target], aa.ProducerDim, have)
				}
			}
		}
		// Ownership bookkeeping.
		for i, m := range tp.Group.Members {
			if !tp.members[i].live {
				continue
			}
			own := owned[i]
			tp.OwnedInto(own, i, idx)
			if own.Empty() {
				continue
			}
			for d := range own {
				if !rangeCovers(req[i][d], own[d]) {
					t.Fatalf("tile %v: owned box %v of %s not computed (%v)", idx, own, m, req[i])
				}
			}
			if covers[i] == nil {
				covers[i] = make([][]cover, len(own))
			}
			for d, r := range own {
				covers[i][d] = append(covers[i][d], cover{r.Lo, r.Hi})
			}
		}
	}
	// Per dim: dedup and check the intervals tile the domain contiguously.
	for i, dims := range covers {
		lo, dom := tp.Group.Members[i], tp.members[i].dom
		for d, ivs := range dims {
			uniq := map[cover]bool{}
			for _, iv := range ivs {
				uniq[iv] = true
			}
			list := make([]cover, 0, len(uniq))
			for iv := range uniq {
				list = append(list, iv)
			}
			sort.Slice(list, func(i, j int) bool { return list[i].lo < list[j].lo })
			if list[0].lo != dom[d].Lo || list[len(list)-1].hi != dom[d].Hi {
				t.Fatalf("%s dim %d: owned intervals %v do not span domain %v", lo, d, list, dom[d])
			}
			for i := 1; i < len(list); i++ {
				if list[i].lo != list[i-1].hi+1 {
					t.Fatalf("%s dim %d: gap/overlap between %v and %v", lo, d, list[i-1], list[i])
				}
			}
		}
	}
}

// TestTilePlanSamplingChain checks invariants on a group with non-unit
// scales (down/up-sampling).
func TestTilePlanSamplingChain(t *testing.T) {
	g := downsampleChain(t)
	smallEst := map[string]int64{"R": 64} // full res 130, half res 65
	gr, err := BuildGroups(g, smallEst, Options{TileSizes: []int64{16}, MinTileExtent: 8, MinSize: 16, OverlapThreshold: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	grp := gr.ByName["out"]
	if len(grp.Members) != 3 {
		t.Fatalf("expected full fusion, groups: %v", describeGroups(gr))
	}
	tp, err := NewTilePlan(g, grp, smallEst)
	if err != nil {
		t.Fatal(err)
	}
	checkTilePlanInvariants(t, tp, smallEst)
}

func describeGroups(gr *Grouping) []string {
	var out []string
	for _, grp := range gr.Groups {
		out = append(out, strings.Join(grp.Members, "+"))
	}
	return out
}

func TestEffectiveTileSizes(t *testing.T) {
	opts := DefaultOptions()
	// 3-channel x 1000 x 2000 image: channel dim untiled.
	box := affine.Box{{Lo: 0, Hi: 2}, {Lo: 0, Hi: 999}, {Lo: 0, Hi: 1999}}
	ts := effectiveTileSizes(box, opts)
	if ts[0] != 0 || ts[1] != 32 || ts[2] != 256 {
		t.Errorf("tile sizes = %v", ts)
	}
	// Tile size larger than extent: untiled.
	small := affine.Box{{Lo: 0, Hi: 30}}
	if got := effectiveTileSizes(small, opts); got[0] != 0 {
		t.Errorf("small extent should be untiled, got %v", got)
	}
}

// TestBandPlan: a lone stage's band plan cuts the outermost dimension with
// extent > 1 into min(bands, extent) balanced bands, band t owning
// [Lo + t·n/k, Lo + (t+1)·n/k − 1], ignores the group's tile sizes, and is
// one region at bands ≤ 1.
func TestBandPlan(t *testing.T) {
	g := harrisGraph(t)
	est := map[string]int64{"R": 150, "C": 200}
	gr, err := BuildGroups(g, est, Options{DisableFusion: true})
	if err != nil {
		t.Fatal(err)
	}
	grp := *gr.ByName["Ix"]
	grp.Tiled, grp.TileSizes = true, []int64{32, 64} // ignored
	for _, bands := range []int64{0, 1, 3, 8, 1000} {
		tp, err := NewBandPlan(g, &grp, est, bands)
		if err != nil {
			t.Fatal(err)
		}
		n, lo := tp.AnchorBox[0].Size(), tp.AnchorBox[0].Lo
		k := max(1, min(bands, n))
		if tp.NumTiles() != k || tp.TileCounts[1] != 1 || tp.TileSizes[0] != 0 || tp.TileSizes[1] != 0 {
			t.Fatalf("bands=%d: counts %v sizes %v, want %d×1 untiled", bands, tp.TileCounts, tp.TileSizes, k)
		}
		own := tp.MemberBoxes()[0]
		for b := int64(0); b < k; b++ {
			tp.OwnedInto(own, 0, []int64{b, 0})
			want := affine.Range{Lo: lo + b*n/k, Hi: lo + (b+1)*n/k - 1}
			if own[0] != want || own[1] != tp.AnchorBox[1] {
				t.Fatalf("bands=%d: band %d owns %v, want %v × %v", bands, b, own, want, tp.AnchorBox[1])
			}
		}
		checkTilePlanInvariants(t, tp, est)
	}
}

// TestRequiredSteadyStateAllocs pins the contract the engine's tile loop
// relies on: with their boxes reused, RequiredInto, ExternalInto and
// OwnedInto allocate nothing.
func TestRequiredSteadyStateAllocs(t *testing.T) {
	g := harrisGraph(t)
	est := map[string]int64{"R": 150, "C": 200}
	gr, err := BuildGroups(g, est, Options{TileSizes: []int64{32, 64}, MinTileExtent: 16})
	if err != nil {
		t.Fatal(err)
	}
	tp, err := NewTilePlan(g, gr.Groups[0], est)
	if err != nil {
		t.Fatal(err)
	}
	idx := []int64{1, 1}
	req, owned, ext := tp.MemberBoxes(), tp.MemberBoxes(), tp.ExtBoxes()
	if len(ext) == 0 {
		t.Fatal("harris group reads no external producer")
	}
	allocs := testing.AllocsPerRun(20, func() {
		if err := tp.RequiredInto(idx, req); err != nil {
			t.Fatal(err)
		}
		if err := tp.ExternalInto(req, ext); err != nil {
			t.Fatal(err)
		}
		for i := range owned {
			tp.OwnedInto(owned[i], i, idx)
		}
	})
	if allocs != 0 {
		t.Errorf("steady-state RequiredInto+ExternalInto+OwnedInto allocate %.0f times per tile", allocs)
	}
}
