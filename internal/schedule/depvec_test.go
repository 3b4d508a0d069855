package schedule

import (
	"math"
	"testing"

	"repro/internal/affine"
	"repro/internal/dsl"
	"repro/internal/expr"
	"repro/internal/pipeline"
)

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
	req, err := tp.Required([]int64{tp.TileCounts[0] / 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	shape, err := ComputeTileShape(g, grp)
	if err != nil {
		t.Fatal(err)
	}
	widest := int64(0)
	for _, m := range grp.Members {
		if w := req[m][0].Size(); w > widest {
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
