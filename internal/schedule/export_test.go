package schedule

import "repro/internal/pipeline"

// EvalGroupCostBothWays prices one group twice for the external tests: with
// the per-dimension enumeration permitted (what the search does) and with
// every tile walked (the reference loop). perDim reports whether the first
// evaluation took the per-dimension path.
func EvalGroupCostBothWays(g *pipeline.Graph, grp *Group, est map[string]int64, ao AutoOptions) (fast, ref GroupCost, perDim bool, err error) {
	tp, err := NewTilePlan(g, grp, est)
	if err != nil {
		return fast, ref, false, err
	}
	ao = ao.withDefaults()
	fast, walk, ferr := evalGroupCost(tp, ao, true)
	ref, _, rerr := evalGroupCost(tp, ao, false)
	if ferr != nil {
		return fast, ref, false, ferr
	}
	return fast, ref, walk.perDim, rerr
}

// AxisPeriods reports, per anchor dimension of a group's tile plan, the
// period the per-dimension enumeration repeats the axis with between its
// clamped ends: 0 for an axis it probes tile by tile, or that has one tile.
func AxisPeriods(g *pipeline.Graph, grp *Group, est map[string]int64) ([]int64, error) {
	tp, err := NewTilePlan(g, grp, est)
	if err != nil {
		return nil, err
	}
	out := make([]int64, len(tp.TileCounts))
	memAxis, extAxis, ok := tp.tileAxes()
	if !ok {
		return out, nil
	}
	for a, n := range tp.TileCounts {
		if n <= 1 {
			continue
		}
		if ad, ok := tp.axisDrift(a, memAxis, extAxis); ok {
			if _, _, ok := tp.clampRun(a, &ad, tp.MemberBoxes()); ok {
				out[a] = ad.period
			}
		}
	}
	return out, nil
}

// SuccessorCosts runs the search's expand on a searched grouping's
// partition under the options it was searched with and returns the model
// cost of every legal single-merge successor.
func SuccessorCosts(gr *Grouping, opts Options) []float64 {
	s := newSearcher(gr.Graph, gr.Est, opts)
	for _, grp := range gr.Groups {
		s.nextID = max(s.nextID, grp.ID+1)
	}
	var out []float64
	for _, st := range s.expand(s.newState(gr.Groups)) {
		out = append(out, st.total)
	}
	return out
}
