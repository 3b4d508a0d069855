package core_test

import (
	"math"
	"testing"

	"repro/internal/pipeline"
	"repro/internal/schedule"
)

// TestSearchBelowIsExact holds SearchGroupsBelow to its contract on the
// uninlined graph of every golden pipeline: at any bound above the
// unbounded search's cost it returns that search's grouping, cost bits and
// counters; at any other bound its cost is at least the bound. The bounds
// sit just above, at and just below the unbounded cost, at half of it, and
// at the inlined graph's cost (the one core.Compile passes), so both sides
// run on every case.
func TestSearchBelowIsExact(t *testing.T) {
	so := schedule.Options{Auto: true, AutoOpts: &schedule.AutoOptions{FleetWidth: goldenFleetWidth}}
	stopped := 0
	for _, c := range searchCases(t) {
		pl, err := compileSearched(c)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		g, err := pipeline.Build(c.b, c.outs...)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		full, err := schedule.SearchGroups(g, c.params, so)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if full.Search.Bounded {
			t.Errorf("%s: unbounded search reports a bounded stop", c.name)
		}
		// The kept graph's cost is the inlined graph's, or this cost when
		// the uninlined graph won.
		cost, kept := full.ModelCost, pl.Grouping.ModelCost
		for _, bound := range []float64{
			math.Inf(1), math.Nextafter(cost, math.Inf(1)), cost,
			math.Nextafter(cost, math.Inf(-1)), cost / 2, kept,
		} {
			got, err := schedule.SearchGroupsBelow(g, c.params, so, bound)
			if err != nil {
				t.Fatalf("%s bound %g: %v", c.name, bound, err)
			}
			if cost < bound {
				if got.Digest() != full.Digest() || math.Float64bits(got.ModelCost) != math.Float64bits(cost) || *got.Search != *full.Search {
					t.Errorf("%s bound %g: got %s cost %v %+v, unbounded %s cost %v %+v", c.name, bound,
						got.Digest(), got.ModelCost, *got.Search, full.Digest(), cost, *full.Search)
				}
				continue
			}
			if !(got.ModelCost >= bound) {
				t.Errorf("%s bound %g: bounded search returned cost %v below its bound", c.name, bound, got.ModelCost)
			}
			if got.Search.States > full.Search.States {
				t.Errorf("%s bound %g: bounded search priced %d states, unbounded %d", c.name, bound, got.Search.States, full.Search.States)
			}
			if got.Search.Bounded {
				stopped++
			}
		}
	}
	if stopped == 0 {
		t.Error("no bound stopped any search early: the stop rule is never exercised")
	}
}
