package engine

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/affine"
	"repro/internal/dsl"
	"repro/internal/expr"
	"repro/internal/pipeline"
)

// requiredParams collects every pipeline parameter the graph needs a value
// for at lowering or execution time: the affine domain bounds of images,
// stages and reduction domains, plus every ParamRef inside definitions,
// conditions and accumulator updates.
func requiredParams(g *pipeline.Graph) map[string]bool {
	need := make(map[string]bool)
	addDom := func(d affine.Domain) {
		for _, iv := range d {
			for _, n := range iv.Lo.Params() {
				need[n] = true
			}
			for _, n := range iv.Hi.Params() {
				need[n] = true
			}
		}
	}
	addExpr := func(x expr.Expr) bool {
		if p, ok := x.(expr.ParamRef); ok {
			need[p.Name] = true
		}
		return true
	}
	for _, im := range g.Images {
		addDom(im.Domain())
	}
	for _, name := range g.Order {
		st := g.Stages[name]
		addDom(st.Decl.Domain())
		if acc, ok := st.Decl.(*dsl.Accumulator); ok {
			addDom(acc.ReductionDomain())
		}
		for _, e := range st.Exprs() {
			expr.Walk(e, addExpr)
		}
		for _, c := range st.Cases {
			if c.Cond != nil {
				expr.WalkCond(c.Cond, addExpr)
			}
		}
	}
	return need
}

// checkParams verifies that every parameter the graph requires has a value
// in the binding, returning an error wrapping affine.ErrUnboundParam that
// names the missing parameters. Compile and Reference call it up front, so
// an incomplete binding fails at Bind time with a typed error instead of
// surfacing later as an evaluation panic deep inside a kernel (the
// reference evaluator's unbound-parameter panic is thereby an internal
// invariant, never user-reachable through these entry points).
func checkParams(g *pipeline.Graph, params map[string]int64) error {
	var missing []string
	for n := range requiredParams(g) {
		if _, ok := params[n]; !ok {
			missing = append(missing, n)
		}
	}
	if len(missing) == 0 {
		return nil
	}
	slices.Sort(missing)
	return fmt.Errorf("engine: %w: missing %s", affine.ErrUnboundParam, strings.Join(missing, ", "))
}
