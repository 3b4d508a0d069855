package schedule_test

// Auto-scheduler tests that need whole apps (and therefore the core
// front-end): cost-model term pinning against the executor's measured
// observability counters, search determinism, the descent's stop rule and
// the never-worse-than-greedy guarantee in model space. Run race-checked by
// `make auto-race`.

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/difftest"
	"repro/internal/dsl"
	"repro/internal/engine"
	"repro/internal/harness"
	"repro/internal/obs"
	"repro/internal/schedule"
)

// compileAuto compiles one app with the cost-model auto-scheduler.
func compileAuto(t *testing.T, name string, scale int64) (*core.Pipeline, map[string]*engine.Buffer, []string, map[string]int64) {
	t.Helper()
	app, err := apps.Get(name)
	if err != nil {
		t.Fatal(err)
	}
	params := harness.ScaledParams(app, scale)
	b, outs := app.Build()
	inputs, err := app.Inputs(b, params, 42)
	if err != nil {
		t.Fatal(err)
	}
	so := schedule.DefaultOptions()
	so.Auto = true
	pl, err := core.Compile(b, outs, core.Options{Estimates: params, Schedule: so, AllowUnproven: true})
	if err != nil {
		t.Fatal(err)
	}
	return pl, inputs, outs, params
}

// TestAutoCostPinning pins the cost model's exact terms to the executor's
// measured counters on two Table-2 apps: a group's modeled Recompute must
// equal the summed StageStats.RecomputedPoints of its members after one
// metered run, and its modeled tile count must equal the executed
// GroupStats.Tiles. This is the model's central claim — on exact
// enumeration its numbers are the quantities the engine measures, not
// estimates.
func TestAutoCostPinning(t *testing.T) {
	for _, name := range []string{"unsharp", "harris"} {
		t.Run(name, func(t *testing.T) {
			pl, inputs, _, params := compileAuto(t, name, 16)
			if !pl.Grouping.Searched {
				t.Fatal("grouping not searched")
			}
			prog, err := pl.Bind(params, engine.ExecOptions{Threads: 1, Metrics: true})
			if err != nil {
				t.Fatal(err)
			}
			defer prog.Close()
			e := prog.Executor()
			out, err := e.Run(inputs)
			if err != nil {
				t.Fatal(err)
			}
			e.Recycle(out)
			snap := e.Snapshot()
			stageRec := make(map[string]int64, len(snap.Stages))
			for _, st := range snap.Stages {
				stageRec[st.Name] = st.RecomputedPoints
			}
			groupTiles := make(map[string]int64, len(snap.Groups))
			for _, gs := range snap.Groups {
				groupTiles[gs.Anchor] = gs.Tiles
			}
			pinned := 0
			for _, grp := range pl.Grouping.Groups {
				if grp.Cost == nil {
					t.Fatalf("group %s: no cost", grp.Anchor)
				}
				if !grp.Cost.Exact {
					continue // extrapolated groups are estimates by design
				}
				var measured int64
				for _, m := range grp.Members {
					measured += stageRec[m]
				}
				modeled := int64(math.Round(grp.Cost.Recompute))
				if modeled != measured {
					t.Errorf("group %s: modeled recompute %d, measured %d", grp.Anchor, modeled, measured)
				}
				if grp.Tiled {
					if got := groupTiles[grp.Anchor]; got != grp.Cost.Tiles {
						t.Errorf("group %s: modeled %d tiles, executed %d", grp.Anchor, grp.Cost.Tiles, got)
					}
				}
				if modeled > 0 {
					pinned++
				}
			}
			if name == "harris" && pinned == 0 {
				t.Error("no group with nonzero modeled recompute; pinning is vacuous")
			}
		})
	}
}

// TestAutoSearchDeterminism compiles the same app twice from scratch and
// requires identical searched schedules: the search must depend on nothing
// but its inputs (no wall clock, no RNG, no map-iteration order).
func TestAutoSearchDeterminism(t *testing.T) {
	sig := func() (string, float64, int) {
		pl, _, _, _ := compileAuto(t, "harris", 16)
		gr := pl.Grouping
		s := ""
		for _, grp := range gr.Groups {
			s += fmt.Sprintf("%s%v%v;", grp.Anchor, grp.Members, grp.TileSizes)
		}
		return s, gr.ModelCost, gr.Search.States
	}
	s1, c1, n1 := sig()
	s2, c2, n2 := sig()
	if s1 != s2 || c1 != c2 || n1 != n2 {
		t.Errorf("nondeterministic search:\n  %s cost=%g states=%d\n  %s cost=%g states=%d", s1, c1, n1, s2, c2, n2)
	}
}

// searchInput is one pipeline the model-space tests search.
type searchInput struct {
	name   string
	b      *dsl.Builder
	outs   []string
	params map[string]int64
}

// searchInputs lists the seven Table-2 apps at the given scale and the
// generated-pipeline corpus (the seeds cmd/polymage-gen emits gencorpus
// kernels for, built as difftest.BuildProgram builds them).
func searchInputs(t *testing.T, scale int64) []searchInput {
	t.Helper()
	var inputs []searchInput
	for _, app := range apps.All() {
		b, outs := app.Build()
		inputs = append(inputs, searchInput{app.Name, b, outs, harness.ScaledParams(app, scale)})
	}
	for seed := int64(1); seed <= 40; seed++ {
		built, err := difftest.Generate(seed).Build(false)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		inputs = append(inputs, searchInput{fmt.Sprintf("seed%03d", seed), built.Graph.Builder, built.LiveOuts, built.Params})
	}
	return inputs
}

// TestAutoNeverWorseThanGreedy checks the seed guarantee on every app and
// on the generated-pipeline corpus (the seeds cmd/polymage-gen emits
// gencorpus kernels for, built as difftest.BuildProgram builds them): the
// searched partition's model cost never exceeds the greedy Algorithm 1
// partition's cost on the same graph (the greedy result is a seed state).
// This is the part of "auto is never worse than the hand schedule" that
// holds exactly; wall clock is read from bench/'s schedule.hand_run_ms and
// engine.run_ms rows, bit-identical outputs from difftest's schedule-auto
// knob.
func TestAutoNeverWorseThanGreedy(t *testing.T) {
	for _, in := range searchInputs(t, 16) {
		t.Run(in.name, func(t *testing.T) {
			pl, err := core.Compile(in.b, in.outs, core.Options{Estimates: in.params, Schedule: schedule.DefaultOptions(), AllowUnproven: true})
			if err != nil {
				t.Fatal(err)
			}
			greedyCost, _, err := schedule.PipelineCost(pl.Graph, pl.Grouping.Groups, in.params, schedule.AutoOptions{})
			if err != nil {
				t.Fatal(err)
			}
			so := schedule.DefaultOptions()
			so.Auto = true
			searched, err := schedule.BuildGroups(pl.Graph, in.params, so)
			if err != nil {
				t.Fatal(err)
			}
			if !searched.Searched {
				t.Fatal("BuildGroups with Auto did not search")
			}
			if searched.ModelCost > greedyCost*(1+1e-9) {
				t.Errorf("searched cost %g worse than greedy %g", searched.ModelCost, greedyCost)
			}
		})
	}
}

// TestAutoDescentLocalMinimum checks the descent's stop rule on every app
// at scale 4 and on the generated-pipeline corpus: no legal single-merge
// successor of the searched partition models cheaper than it.
func TestAutoDescentLocalMinimum(t *testing.T) {
	so := schedule.DefaultOptions()
	so.Auto = true
	successors := 0
	for _, in := range searchInputs(t, 4) {
		t.Run(in.name, func(t *testing.T) {
			pl, err := core.Compile(in.b, in.outs, core.Options{Estimates: in.params, Schedule: so, AllowUnproven: true})
			if err != nil {
				t.Fatal(err)
			}
			gr := pl.Grouping
			if !gr.Searched {
				t.Fatal("grouping not searched")
			}
			costs := schedule.SuccessorCosts(gr, so)
			successors += len(costs)
			for i, c := range costs {
				if c < gr.ModelCost {
					t.Errorf("successor %d models %g, cheaper than the searched %g", i, c, gr.ModelCost)
				}
			}
		})
	}
	if successors == 0 {
		t.Error("no searched partition has a legal successor; the check is vacuous")
	}
}

// TestAutoStatsSurface checks the observability plumbing: a searched
// program reports AutoScheduled with its model cost, search counters and
// per-group cost breakdowns through Program.Stats.
func TestAutoStatsSurface(t *testing.T) {
	pl, _, _, params := compileAuto(t, "harris", 16)
	prog, err := pl.Bind(params, engine.ExecOptions{Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer prog.Close()
	st := prog.Stats()
	if !st.AutoScheduled {
		t.Error("AutoScheduled false on a searched program")
	}
	if st.ScheduleModelCost <= 0 || st.SearchStates <= 0 {
		t.Errorf("missing search stats: cost=%g states=%d", st.ScheduleModelCost, st.SearchStates)
	}
	var withCost int
	for _, gm := range st.Groups {
		if gm.Cost != nil {
			withCost++
			if gm.Cost.ModelTiles < 1 {
				t.Errorf("group %s: ModelTiles %d", gm.Anchor, gm.Cost.ModelTiles)
			}
		}
	}
	if withCost != len(st.Groups) {
		t.Errorf("%d/%d groups carry a cost model", withCost, len(st.Groups))
	}
	var _ obs.GroupCostModel // the surface under test
}
