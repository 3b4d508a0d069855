package schedule_test

// The per-dimension enumeration of the cost model (cost.go perDimSums) is
// held to the tile-by-tile loop it replaces, bit for bit, over every group
// the repo knows how to make — and over hand-built groups that must fall
// back to the loop.

import (
	"fmt"
	"maps"
	"math"
	"slices"
	"testing"

	"repro/internal/affine"
	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/difftest"
	"repro/internal/dsl"
	"repro/internal/expr"
	"repro/internal/harness"
	"repro/internal/pipeline"
	"repro/internal/schedule"
)

// sameCost compares every GroupCost field, floats by their bits.
func sameCost(a, b schedule.GroupCost) bool {
	bits := math.Float64bits
	return bits(a.Compute) == bits(b.Compute) && bits(a.Recompute) == bits(b.Recompute) &&
		bits(a.Traffic) == bits(b.Traffic) &&
		bits(a.ParallelIdle) == bits(b.ParallelIdle) && bits(a.FootprintExcess) == bits(b.FootprintExcess) &&
		a.Tiles == b.Tiles && a.Exact == b.Exact
}

// retiled lists a group as scheduled plus the group under each default tile
// candidate (sizes assigned to the anchor's dimensions outermost first, the
// last repeating, as Options.TileSizes are).
func retiled(grp *schedule.Group, rank int) []*schedule.Group {
	out := []*schedule.Group{grp}
	for _, cand := range schedule.DefaultAutoOptions().TileCandidates {
		g2 := *grp
		g2.Tiled = true
		g2.TileSizes = make([]int64, rank)
		for d := range g2.TileSizes {
			g2.TileSizes[d] = cand[min(d, len(cand)-1)]
		}
		out = append(out, &g2)
	}
	return out
}

// perDimTally counts how the exact evaluations of a pipeline were enumerated.
type perDimTally struct{ perDim, enumerated, extrapolated int }

// checkGrouping prices every group of a grouping, as scheduled and under
// every tile candidate, both ways.
func checkGrouping(t *testing.T, label string, gr *schedule.Grouping, tally *perDimTally) {
	t.Helper()
	for _, grp := range gr.Groups {
		rank := gr.Graph.Stages[grp.Anchor].Decl.NumDims()
		for _, g2 := range retiled(grp, rank) {
			fast, ref, perDim, err := schedule.EvalGroupCostBothWays(gr.Graph, g2, gr.Est, schedule.AutoOptions{})
			if err != nil {
				t.Fatalf("%s: group %s tiles %v: %v", label, grp.Anchor, g2.TileSizes, err)
			}
			if !sameCost(fast, ref) {
				t.Errorf("%s: group %s tiles %v (per-dim %v):\n  fast %+v\n  loop %+v", label, grp.Anchor, g2.TileSizes, perDim, fast, ref)
			}
			switch {
			case !fast.Exact:
				tally.extrapolated++
			case perDim:
				tally.perDim++
			default:
				tally.enumerated++
			}
		}
	}
}

// checkPipeline compiles a pipeline under the hand and the auto schedule and
// checks both groupings; search is the auto schedule's search effort.
func checkPipeline(t *testing.T, label string, b *dsl.Builder, outs []string, params map[string]int64) (tally perDimTally, search *schedule.SearchStats) {
	t.Helper()
	for _, auto := range []bool{false, true} {
		so := schedule.DefaultOptions()
		so.Auto = auto
		pl, err := core.Compile(b, outs, core.Options{Estimates: params, Schedule: so, AllowUnproven: true})
		if err != nil {
			t.Fatalf("%s auto=%v: %v", label, auto, err)
		}
		checkGrouping(t, fmt.Sprintf("%s auto=%v", label, auto), pl.Grouping, &tally)
		search = pl.Grouping.Search
	}
	return tally, search
}

// pyramidAxisProbes is SearchStats.AxisProbes of pyramid's searched
// compile at scale 4 with every tile of every tiled axis probed, as the
// per-dimension enumeration did before it probed one period; the periodic
// enumeration must stay well below it.
const pyramidAxisProbes = 7965

func TestEvalGroupCostPerDimMatchesEnumeration(t *testing.T) {
	type sized struct {
		label  string
		params map[string]int64
	}
	t.Run("apps", func(t *testing.T) {
		// The Table-2 and uint8 apps must stay on the fast path: a tile-by-
		// tile evaluation here is the cold-path regression the split guards.
		check := func(name string, build func() (*dsl.Builder, []string), sizes []sized) {
			for _, sz := range sizes {
				if testing.Short() && sz.label != "test" {
					continue
				}
				b, outs := build()
				tally, search := checkPipeline(t, name+"/"+sz.label, b, outs, sz.params)
				if tally.perDim == 0 || tally.enumerated != 0 {
					t.Errorf("%s/%s: %d per-dimension, %d tile-by-tile evaluations", name, sz.label, tally.perDim, tally.enumerated)
				}
				if name == "pyramid" && sz.label == "scale4" && float64(search.AxisProbes) > 0.4*pyramidAxisProbes {
					t.Errorf("pyramid/scale4: the search probed %d tiles, above 0.4 × %d", search.AxisProbes, pyramidAxisProbes)
				}
			}
		}
		// offSize is the scale-4 binding with every parameter moved by delta,
		// or with R set to 1 (its row axis a single tile) when delta is 0:
		// clamped prefixes and suffixes of other lengths than the apps'.
		offSize := func(app *apps.App, delta int64) sized {
			p := maps.Clone(harness.ScaledParams(app, 4))
			if delta == 0 {
				p["R"] = 1
				return sized{"scale4 R=1", p}
			}
			for k := range p {
				p[k] += delta
			}
			return sized{fmt.Sprintf("scale4+%d", delta), p}
		}
		for _, app := range apps.All() {
			sizes := []sized{{"test", app.TestParams}, {"scale4", harness.ScaledParams(app, 4)}}
			switch app.Name {
			case "pyramid", "laplacian", "interpolate":
				sizes = append(sizes, offSize(app, 1), offSize(app, 3), offSize(app, 0))
			}
			check(app.Name, app.Build, sizes)
		}
		for _, app := range apps.AllNarrow() {
			check(app.Name, app.Build, []sized{{"test", app.TestParams}, {"bench", app.BenchParams}})
		}
	})
	t.Run("periods", handBuiltPeriods)
	t.Run("generated", func(t *testing.T) {
		var total perDimTally
		add := func(label string, sp difftest.PipelineSpec) {
			built, err := sp.Build(false)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			tally, _ := checkPipeline(t, label, built.Graph.Builder, built.LiveOuts, built.Params)
			total.perDim += tally.perDim
			total.enumerated += tally.enumerated
			total.extrapolated += tally.extrapolated
		}
		for seed := int64(1); seed <= 40; seed++ {
			add(fmt.Sprintf("gencorpus seed %d", seed), difftest.Generate(seed))
		}
		n := int64(100)
		if testing.Short() {
			n = 12
		}
		for i := int64(0); i < n; i++ {
			seed := 20260805 + i
			add(fmt.Sprintf("float seed %d", seed), difftest.Generate(seed))
			add(fmt.Sprintf("integer seed %d", seed), difftest.GenerateInteger(seed))
		}
		for _, gc := range difftest.GatherCases() {
			b, outs := gc.Build()
			tally, _ := checkPipeline(t, "gather "+gc.Name, b, outs, gc.Params)
			total.perDim += tally.perDim
			total.enumerated += tally.enumerated
		}
		t.Logf("generated pipelines: %d per-dimension, %d tile-by-tile, %d extrapolated evaluations", total.perDim, total.enumerated, total.extrapolated)
		if total.perDim == 0 {
			t.Error("no generated group took the per-dimension path")
		}
	})
}

// fiveLevelPyramid builds a 256×256 image's Gaussian pyramid four levels
// down (d1…d4, 3-tap stencils at stride 2) and back up (u3…u0, each the
// coarser level read at x/2 and (x+1)/2 plus the Gaussian level beside it),
// fused into one group anchored at u0 under 8×8 tiles. d4 and u3's reads of
// it move half a point per tile, so the group's axes repeat every 2 tiles.
func fiveLevelPyramid(t *testing.T) (*pipeline.Graph, *schedule.Group) {
	const n, levels = 256, 4
	b := dsl.NewBuilder()
	x, y := b.Var("x"), b.Var("y")
	I := b.Image("I", expr.Float, affine.Const(n), affine.Const(n))
	dom := func(l int) []dsl.Interval {
		return []dsl.Interval{dsl.ConstSpan(0, n>>l-1), dsl.ConstSpan(0, n>>l-1)}
	}
	type reader interface{ At(args ...any) expr.Expr }
	scales := map[string][]schedule.DimScale{}
	var members []string
	add := func(name string, l int) *dsl.Function {
		s := affine.NewRational(1, 1<<l)
		scales[name] = []schedule.DimScale{{AnchorDim: 0, Scale: s}, {AnchorDim: 1, Scale: s}}
		members = append(members, name)
		return b.Func(name, expr.Float, []*dsl.Variable{x, y}, dom(l))
	}
	gauss := []reader{I}
	for l := 1; l <= levels; l++ {
		d := add(fmt.Sprintf("d%d", l), l)
		var terms []expr.Expr
		for i := -1; i <= 1; i++ {
			terms = append(terms, gauss[l-1].At(dsl.Add(dsl.Mul(2, x), i), dsl.Add(dsl.Mul(2, y), i)))
		}
		d.Define(dsl.Case{E: expr.Sum(terms...)})
		gauss = append(gauss, d)
	}
	coarse := gauss[levels]
	for l := levels - 1; l >= 0; l-- {
		u := add(fmt.Sprintf("u%d", l), l)
		u.Define(dsl.Case{E: expr.Sum(
			coarse.At(dsl.IDiv(x, 2), dsl.IDiv(y, 2)),
			coarse.At(dsl.IDiv(dsl.Add(x, 1), 2), dsl.IDiv(dsl.Add(y, 1), 2)),
			gauss[l].At(x, y),
		)})
		coarse = u
	}
	g, err := pipeline.Build(b, "u0")
	if err != nil {
		t.Fatal(err)
	}
	return g, &schedule.Group{Members: g.Order, Anchor: "u0", Scales: scales, Tiled: true, TileSizes: []int64{8, 8}}
}

// handBuiltPeriods prices hand-built groups whose axes repeat with a period
// above 1, or must be probed tile by tile although the table applies, both
// ways bit for bit.
func handBuiltPeriods(t *testing.T) {
	const n = 32
	dom2 := []dsl.Interval{dsl.ConstSpan(0, n-1), dsl.ConstSpan(0, n-1)}
	identity := []schedule.DimScale{{AnchorDim: 0, Scale: affine.One}, {AnchorDim: 1, Scale: affine.One}}
	// flipped reads p and its mirror image p(n−1−x, y) into the same
	// producer dimension: the x bounds of p fall and rise with the tile
	// index, so the x axis is probed tile by tile and the y axis is not.
	flipped := func(t *testing.T) (*pipeline.Graph, *schedule.Group) {
		b := dsl.NewBuilder()
		I := b.Image("I", expr.Float, affine.Const(n), affine.Const(n))
		x, y := b.Var("x"), b.Var("y")
		p := b.Func("p", expr.Float, []*dsl.Variable{x, y}, dom2)
		p.Define(dsl.Case{E: I.At(x, y)})
		f := b.Func("f", expr.Float, []*dsl.Variable{x, y}, dom2)
		f.Define(dsl.Case{E: dsl.Add(p.At(x, dsl.Add(y, 1)), p.At(dsl.Sub(n-1, x), y))})
		g, err := pipeline.Build(b, "f")
		if err != nil {
			t.Fatal(err)
		}
		return g, &schedule.Group{
			Members: []string{"p", "f"}, Anchor: "f", Tiled: true, TileSizes: []int64{8, 8},
			Scales: map[string][]schedule.DimScale{"p": identity, "f": identity},
		}
	}
	// shortOwned has f read rows (x−24)/2 of a live p whose rows stop at
	// 29: p's owned rows 8t…8t+7 leave its domain one tile before the rows
	// f reads do, so the run must end where the owned range is clamped.
	shortOwned := func(t *testing.T) (*pipeline.Graph, *schedule.Group) {
		b := dsl.NewBuilder()
		I := b.Image("I", expr.Float, affine.Const(2*n), affine.Const(2*n))
		x, y := b.Var("x"), b.Var("y")
		p := b.Func("p", expr.Float, []*dsl.Variable{x, y}, []dsl.Interval{dsl.ConstSpan(0, 29), dsl.ConstSpan(0, 2*n-1)})
		p.Define(dsl.Case{E: I.At(x, y)})
		f := b.Func("f", expr.Float, []*dsl.Variable{x, y}, []dsl.Interval{dsl.ConstSpan(16, 95), dsl.ConstSpan(0, 2*n-1)})
		f.Define(dsl.Case{E: p.At(dsl.IDiv(dsl.Sub(x, 24), 2), y)})
		g, err := pipeline.Build(b, "f", "p")
		if err != nil {
			t.Fatal(err)
		}
		half := []schedule.DimScale{{AnchorDim: 0, Scale: affine.NewRational(1, 2)}, {AnchorDim: 1, Scale: affine.One}}
		return g, &schedule.Group{
			Members: []string{"p", "f"}, Anchor: "f", Tiled: true, TileSizes: []int64{16, 16},
			Scales: map[string][]schedule.DimScale{"p": half, "f": identity},
		}
	}
	// stencil reads p at x−1 and x+1 from a p that reads no image: only the
	// in-group reads leave a domain on the first and last tiles.
	stencil := func(t *testing.T) (*pipeline.Graph, *schedule.Group) {
		b := dsl.NewBuilder()
		I := b.Image("I", expr.Float, affine.Const(n), affine.Const(n))
		x, y := b.Var("x"), b.Var("y")
		p := b.Func("p", expr.Float, []*dsl.Variable{x, y}, dom2)
		p.Define(dsl.Case{E: dsl.Mul(x, y)})
		f := b.Func("f", expr.Float, []*dsl.Variable{x, y}, dom2)
		f.Define(dsl.Case{E: expr.Sum(p.At(dsl.Sub(x, 1), y), p.At(dsl.Add(x, 1), y), I.At(x, y))})
		g, err := pipeline.Build(b, "f")
		if err != nil {
			t.Fatal(err)
		}
		return g, &schedule.Group{
			Members: []string{"p", "f"}, Anchor: "f", Tiled: true, TileSizes: []int64{8, 8},
			Scales: map[string][]schedule.DimScale{"p": identity, "f": identity},
		}
	}
	cases := []struct {
		name  string
		build func(*testing.T) (*pipeline.Graph, *schedule.Group)
		want  []int64 // per-axis period (0: probed tile by tile)
	}{
		{"five-level pyramid", fiveLevelPyramid, []int64{2, 2}},
		{"flipped beside unflipped", flipped, []int64{0, 1}},
		{"owned range clamped first", shortOwned, []int64{1, 1}},
		{"in-group stencil clamped", stencil, []int64{1, 1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g, grp := tc.build(t)
			periods, err := schedule.AxisPeriods(g, grp, map[string]int64{})
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(periods, tc.want) {
				t.Errorf("axis periods %v, want %v", periods, tc.want)
			}
			fast, ref, perDim, err := schedule.EvalGroupCostBothWays(g, grp, map[string]int64{}, schedule.AutoOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if !perDim || !fast.Exact {
				t.Errorf("per-dimension path %v, exact %v: want both", perDim, fast.Exact)
			}
			if !sameCost(fast, ref) {
				t.Errorf("fast %+v\nloop %+v", fast, ref)
			}
		})
	}
}

// TestEvalGroupCostPerDimFallback hand-builds groups the separability check
// or a probe must refuse; each still prices the same both ways, by the loop.
// The reduction-variable case is the exception: an accumulator's reads
// widen to the producer's whole extent on every tile, which the
// per-dimension path models exactly.
func TestEvalGroupCostPerDimFallback(t *testing.T) {
	const n = 32
	dom2 := []dsl.Interval{dsl.ConstSpan(0, n-1), dsl.ConstSpan(0, n-1)}
	identity := func(rank int) []schedule.DimScale {
		ds := make([]schedule.DimScale, rank)
		for d := range ds {
			ds[d] = schedule.DimScale{AnchorDim: d, Scale: affine.One}
		}
		return ds
	}
	// pair builds I -> p -> f with f reading p through read(p, x, y).
	pair := func(pdom []dsl.Interval, read func(p *dsl.Function, x, y *dsl.Variable) dsl.Case) (*pipeline.Graph, *schedule.Group) {
		b := dsl.NewBuilder()
		I := b.Image("I", expr.Float, affine.Const(n), affine.Const(n))
		x, y := b.Var("x"), b.Var("y")
		p := b.Func("p", expr.Float, []*dsl.Variable{x, y}, pdom)
		p.Define(dsl.Case{E: I.At(x, y)})
		f := b.Func("f", expr.Float, []*dsl.Variable{x, y}, dom2)
		f.Define(read(p, x, y))
		g, err := pipeline.Build(b, "f")
		if err != nil {
			t.Fatal(err)
		}
		return g, &schedule.Group{
			Members: []string{"p", "f"}, Anchor: "f", Tiled: true, TileSizes: []int64{8, 8},
			Scales: map[string][]schedule.DimScale{"p": identity(2), "f": identity(2)},
		}
	}
	cases := []struct {
		name  string
		build func() (*pipeline.Graph, *schedule.Group)
		// perDim: the control case stays on the fast path, proving the
		// others fall back for their stated reason and not by accident.
		perDim bool
	}{
		{"control", func() (*pipeline.Graph, *schedule.Group) {
			return pair(dom2, func(p *dsl.Function, x, y *dsl.Variable) dsl.Case {
				return dsl.Case{E: dsl.Add(p.At(x, y), p.At(dsl.Add(x, 1), dsl.Sub(y, 1)))}
			})
		}, true},
		{"transposed access", func() (*pipeline.Graph, *schedule.Group) {
			return pair(dom2, func(p *dsl.Function, x, y *dsl.Variable) dsl.Case {
				return dsl.Case{E: p.At(y, x)}
			})
		}, false},
		{"dimension fed by two variables", func() (*pipeline.Graph, *schedule.Group) {
			return pair(dom2, func(p *dsl.Function, x, y *dsl.Variable) dsl.Case {
				return dsl.Case{E: dsl.Add(p.At(x, y), p.At(y, y))}
			})
		}, false},
		{"member not required by every tile", func() (*pipeline.Graph, *schedule.Group) {
			half := []dsl.Interval{dsl.ConstSpan(0, n/2-1), dsl.ConstSpan(0, n-1)}
			return pair(half, func(p *dsl.Function, x, y *dsl.Variable) dsl.Case {
				return dsl.Case{Cond: dsl.Cond(x, "<", n/2), E: p.At(x, y)}
			})
		}, false},
		{"reduction variable", func() (*pipeline.Graph, *schedule.Group) {
			b := dsl.NewBuilder()
			V := b.Image("V", expr.Float, affine.Const(n), affine.Const(n), affine.Const(4))
			x, y := b.Var("x"), b.Var("y")
			rx, ry, rz := b.Var("rx"), b.Var("ry"), b.Var("rz")
			red := []dsl.Interval{dsl.ConstSpan(0, n-1), dsl.ConstSpan(0, n-1), dsl.ConstSpan(0, 3)}
			acc := b.Accum("acc", expr.Float, []*dsl.Variable{rx, ry, rz}, red, []*dsl.Variable{x, y}, dom2)
			acc.Define([]any{rx, ry}, V.At(rx, ry, rz), dsl.SumOp)
			g, err := pipeline.Build(b, "acc")
			if err != nil {
				t.Fatal(err)
			}
			return g, &schedule.Group{
				Members: []string{"acc"}, Anchor: "acc", Tiled: true, TileSizes: []int64{8, 8},
				Scales: map[string][]schedule.DimScale{"acc": identity(2)},
			}
		}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g, grp := tc.build()
			fast, ref, perDim, err := schedule.EvalGroupCostBothWays(g, grp, map[string]int64{}, schedule.AutoOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if !sameCost(fast, ref) {
				t.Errorf("fast %+v\nloop %+v", fast, ref)
			}
			if !fast.Exact || fast.Tiles != 16 {
				t.Fatalf("want 16 exactly enumerated tiles, got %+v", fast)
			}
			if perDim != tc.perDim {
				t.Errorf("per-dimension path taken: %v, want %v", perDim, tc.perDim)
			}
		})
	}
}
