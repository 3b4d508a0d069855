package schedule

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"repro/internal/affine"
	"repro/internal/dsl"
	"repro/internal/expr"
	"repro/internal/pipeline"
)

// This file holds the explicit dependence-vector view of Section 3.4 and the
// tests that reproduce Figures 5 and 6 with it: after alignment and
// scaling, every in-group access contributes a constant dependence vector
// (Δlevel, Δd0, Δd1, ...) in the group's common scaled space; the tile
// shape's bounding hyperplanes φl and φr are derived from the per-level
// maximum non-negative / minimum non-positive components, and the overlap
// per dimension is o = h·(|l| + |r|) (Figure 6). The executor
// computes exact per-tile regions by interval propagation (tile.go); these
// vectors are the analytical counterpart the tests cross-check it against.

// DepVector is one constant dependence vector of a group.
type DepVector struct {
	From, To string // consumer and producer stage names
	// LevelDelta is the difference in (group-local) topological level —
	// the leading dimension of the initial schedules of Section 3.1.
	LevelDelta int
	// Delta has one rational entry per anchor dimension: the dependence
	// distance in the common scaled space (nil entries for dimensions the
	// access does not constrain).
	Delta []*affine.Rational
}

// TileShape summarizes the overlapped-tile geometry of a group.
type TileShape struct {
	// Height is h: one less than the number of levels in the group.
	Height int
	// SlopeL and SlopeR are the |l| and |r| slope magnitudes per anchor
	// dimension (the bounding hyperplanes φl, φr of Figure 6).
	SlopeL, SlopeR []float64
	// Overlap is o = h·(|l|+|r|) per anchor dimension, in common-space
	// points.
	Overlap []float64
	Vectors []DepVector
}

// DependenceVectors computes the constant dependence vectors of a fused
// group. It requires the group's scales (alignment/scaling already done).
func DependenceVectors(g *pipeline.Graph, grp *Group) ([]DepVector, error) {
	if grp.Scales == nil {
		return nil, fmt.Errorf("schedule: group %s has no scales", grp.Anchor)
	}
	levels := groupLevels(g, grp)
	var out []DepVector
	anchorDims := len(grp.Scales[grp.Anchor])
	memberSet := make(map[string]bool, len(grp.Members))
	for _, m := range grp.Members {
		memberSet[m] = true
	}
	for _, cname := range grp.Members {
		cs := grp.Scales[cname]
		seen := make(map[string]bool)
		for _, aa := range g.Stages[cname].Reads {
			target := aa.Target
			if !memberSet[target] || target == cname {
				continue
			}
			if !aa.OK {
				return nil, fmt.Errorf("schedule: non-affine in-group access %s -> %s", cname, target)
			}
			dv := DepVector{
				From:       cname,
				To:         target,
				LevelDelta: levels[cname] - levels[target],
				Delta:      make([]*affine.Rational, anchorDims),
			}
			if aa.Acc.Var >= 0 && aa.Acc.Var < len(cs) {
				ds := cs[aa.Acc.Var]
				if ds.AnchorDim >= 0 && ds.Scale.Num != 0 {
					// Common-space dependence distance: the consumer
					// point u reads the producer at u + β/(s_c·α)
					// where the access is (α·x + β)/δ and s_c is the
					// consumer's scale. The distance (consumer −
					// producer) is −β/(s_c·α).
					off, _ := aa.Acc.Off.ConstVal()
					d := affine.NewRational(-off*ds.Scale.Den, ds.Scale.Num*aa.Acc.Coeff)
					dv.Delta[ds.AnchorDim] = &d
				}
			}
			key := fmt.Sprintf("%s|%d|%v", target, dv.LevelDelta, dv.Delta)
			if !seen[key] {
				seen[key] = true
				out = append(out, dv)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].From != out[j].From {
			return out[i].From < out[j].From
		}
		if out[i].To != out[j].To {
			return out[i].To < out[j].To
		}
		return fmt.Sprint(out[i].Delta) < fmt.Sprint(out[j].Delta)
	})
	return out, nil
}

// groupLevels re-levels the members within the group (0 = group sources).
func groupLevels(g *pipeline.Graph, grp *Group) map[string]int {
	memberSet := make(map[string]bool, len(grp.Members))
	for _, m := range grp.Members {
		memberSet[m] = true
	}
	levels := make(map[string]int, len(grp.Members))
	for _, m := range grp.Members { // Members is in topological order
		l := 0
		for _, p := range g.Stages[m].Producers {
			if memberSet[p] {
				if pl := levels[p] + 1; pl > l {
					l = pl
				}
			}
		}
		levels[m] = l
	}
	return levels
}

// ComputeTileShape derives the bounding-hyperplane slopes and the analytic
// overlap of a group from its dependence vectors (Section 3.4): for φl only
// the non-negative components matter, for φr the non-positive ones, each
// normalized by the level distance they span.
func ComputeTileShape(g *pipeline.Graph, grp *Group) (*TileShape, error) {
	vecs, err := DependenceVectors(g, grp)
	if err != nil {
		return nil, err
	}
	levels := groupLevels(g, grp)
	h := 0
	for _, l := range levels {
		if l > h {
			h = l
		}
	}
	nd := len(grp.Scales[grp.Anchor])
	ts := &TileShape{
		Height:  h,
		SlopeL:  make([]float64, nd),
		SlopeR:  make([]float64, nd),
		Overlap: make([]float64, nd),
		Vectors: vecs,
	}
	for _, v := range vecs {
		if v.LevelDelta <= 0 {
			continue
		}
		for d, delta := range v.Delta {
			if delta == nil {
				continue
			}
			slope := delta.Float() / float64(v.LevelDelta)
			// A positive distance means the consumer reads to the left
			// (producer at smaller coordinate): it widens φl; negative
			// widens φr.
			if slope > ts.SlopeL[d] {
				ts.SlopeL[d] = slope
			}
			if -slope > ts.SlopeR[d] {
				ts.SlopeR[d] = -slope
			}
		}
	}
	for d := range ts.Overlap {
		ts.Overlap[d] = float64(ts.Height) * (ts.SlopeL[d] + ts.SlopeR[d])
	}
	return ts, nil
}

// String renders a dependence vector like "(1, 1, -1) f2->fout".
func (v DepVector) String() string {
	s := fmt.Sprintf("(%d", v.LevelDelta)
	for _, d := range v.Delta {
		if d == nil {
			s += ", *"
		} else {
			s += ", " + d.String()
		}
	}
	return fmt.Sprintf("%s) %s->%s", s, v.To, v.From)
}

// figure5Chain builds the example of Figure 5: f1(x) = fin(x),
// f2(x) = f1(x-1) + f1(x+1), fout(x) = f2(x-1) · f2(x+1).
func figure5Chain(t *testing.T) (*pipeline.Graph, *Group) {
	t.Helper()
	b := dsl.NewBuilder()
	R := b.Param("R")
	fin := b.Image("fin", expr.Float, R.Affine().AddConst(4))
	x := b.Var("x")
	f1 := b.Func("f1", expr.Float, []*dsl.Variable{x},
		[]dsl.Interval{dsl.Span(affine.Const(0), R.Affine().AddConst(3))})
	f1.Define(dsl.Case{E: fin.At(x)})
	f2 := b.Func("f2", expr.Float, []*dsl.Variable{x},
		[]dsl.Interval{dsl.Span(affine.Const(1), R.Affine().AddConst(2))})
	f2.Define(dsl.Case{E: dsl.Add(f1.At(dsl.Sub(x, 1)), f1.At(dsl.Add(x, 1)))})
	fout := b.Func("fout", expr.Float, []*dsl.Variable{x},
		[]dsl.Interval{dsl.Span(affine.Const(2), R.Affine().AddConst(1))})
	fout.Define(dsl.Case{E: dsl.Mul(f2.At(dsl.Sub(x, 1)), f2.At(dsl.Add(x, 1)))})
	g, err := pipeline.Build(b, "fout")
	if err != nil {
		t.Fatal(err)
	}
	members := map[string]bool{"f1": true, "f2": true, "fout": true}
	scales, err := computeScales(newGraphInfo(g, nil), members, "fout")
	if err != nil {
		t.Fatal(err)
	}
	grp := &Group{
		Members: sortedMembers(g, members), Anchor: "fout",
		Scales: scales, Tiled: true, TileSizes: []int64{16},
	}
	return g, grp
}

func TestFigure5DependenceVectors(t *testing.T) {
	g, grp := figure5Chain(t)
	vecs, err := DependenceVectors(g, grp)
	if err != nil {
		t.Fatal(err)
	}
	// Each of the two edges carries (1, 1) and (1, -1): four vectors.
	if len(vecs) != 4 {
		t.Fatalf("got %d vectors: %v", len(vecs), vecs)
	}
	for _, v := range vecs {
		if v.LevelDelta != 1 {
			t.Errorf("level delta = %d in %v", v.LevelDelta, v)
		}
		d := v.Delta[0]
		if d == nil || (d.Float() != 1 && d.Float() != -1) {
			t.Errorf("unexpected distance %v in %v", d, v)
		}
	}
	shape, err := ComputeTileShape(g, grp)
	if err != nil {
		t.Fatal(err)
	}
	if shape.Height != 2 {
		t.Errorf("height = %d, want 2", shape.Height)
	}
	if shape.SlopeL[0] != 1 || shape.SlopeR[0] != 1 {
		t.Errorf("slopes = %v / %v, want 1 / 1", shape.SlopeL, shape.SlopeR)
	}
	// o = h·(|l|+|r|) = 2·2 = 4 (Section 3.4).
	if shape.Overlap[0] != 4 {
		t.Errorf("overlap = %v, want 4", shape.Overlap)
	}
}

// TestTileShapeMatchesPropagation cross-checks the analytic overlap against
// the exact interval propagation: for an interior tile, the widest member
// region exceeds the tile size by exactly the analytic overlap.
func TestTileShapeMatchesPropagation(t *testing.T) {
	g, grp := figure5Chain(t)
	params := map[string]int64{"R": 500}
	tp, err := NewTilePlan(g, grp, params)
	if err != nil {
		t.Fatal(err)
	}
	req := tp.MemberBoxes()
	if err := tp.RequiredInto([]int64{tp.TileCounts[0] / 2}, req); err != nil {
		t.Fatal(err)
	}
	shape, err := ComputeTileShape(g, grp)
	if err != nil {
		t.Fatal(err)
	}
	widest := int64(0)
	for i := range grp.Members {
		if w := req[i][0].Size(); w > widest {
			widest = w
		}
	}
	measured := float64(widest - tp.TileSizes[0])
	if math.Abs(measured-shape.Overlap[0]) > 1e-9 {
		t.Errorf("measured overlap %v != analytic %v", measured, shape.Overlap[0])
	}
}

// TestSamplingDependenceVectors checks the Figure 6 style scaled distances:
// out(x) = d(x/2), d(x) = f(2x-1) + f(2x+1).
func TestSamplingDependenceVectors(t *testing.T) {
	b := dsl.NewBuilder()
	R := b.Param("R") // d extent; f extent 2R+2, out extent 2R
	f := b.Func("f", expr.Float, []*dsl.Variable{b.Var("x")},
		[]dsl.Interval{dsl.Span(affine.Const(0), R.Affine().Scale(2).AddConst(1))})
	x := b.Var("x")
	_ = f
	fi := b.Image("fin", expr.Float, R.Affine().Scale(2).AddConst(2))
	ff := b.Func("ff", expr.Float, []*dsl.Variable{x},
		[]dsl.Interval{dsl.Span(affine.Const(0), R.Affine().Scale(2).AddConst(1))})
	ff.Define(dsl.Case{E: fi.At(x)})
	d := b.Func("d", expr.Float, []*dsl.Variable{x},
		[]dsl.Interval{dsl.Span(affine.Const(1), R.Affine().AddConst(-1))})
	d.Define(dsl.Case{E: dsl.Add(ff.At(dsl.Sub(dsl.Mul(2, x), 1)), ff.At(dsl.Add(dsl.Mul(2, x), 1)))})
	out := b.Func("out", expr.Float, []*dsl.Variable{x},
		[]dsl.Interval{dsl.Span(affine.Const(2), R.Affine().Scale(2).AddConst(-2))})
	out.Define(dsl.Case{E: d.At(dsl.IDiv(x, 2))})
	g, err := pipeline.Build(b, "out")
	if err != nil {
		t.Fatal(err)
	}
	members := map[string]bool{"ff": true, "d": true, "out": true}
	scales, err := computeScales(newGraphInfo(g, nil), members, "out")
	if err != nil {
		t.Fatal(err)
	}
	grp := &Group{Members: sortedMembers(g, members), Anchor: "out", Scales: scales}
	vecs, err := DependenceVectors(g, grp)
	if err != nil {
		t.Fatal(err)
	}
	// out -> d: distance 0; d -> ff: distances ±1 in common space
	// (consumer scale 1/2, access rate 2, offsets ∓1).
	byEdge := map[string][]float64{}
	for _, v := range vecs {
		if v.Delta[0] != nil {
			byEdge[v.To+"->"+v.From] = append(byEdge[v.To+"->"+v.From], v.Delta[0].Float())
		}
	}
	if ds := byEdge["d->out"]; len(ds) != 1 || ds[0] != 0 {
		t.Errorf("out->d distances = %v, want [0]", ds)
	}
	ds := byEdge["ff->d"]
	if len(ds) != 2 || !(ds[0] == 1 && ds[1] == -1 || ds[0] == -1 && ds[1] == 1) {
		t.Errorf("d->ff distances = %v, want ±1", ds)
	}
}
