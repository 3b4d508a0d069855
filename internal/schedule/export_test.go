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
	fast, perDim, ferr := evalGroupCost(tp, ao, true)
	ref, _, rerr := evalGroupCost(tp, ao, false)
	if ferr != nil {
		return fast, ref, false, ferr
	}
	return fast, ref, perDim, rerr
}
