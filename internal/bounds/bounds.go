// Package bounds implements the static bounds check of Section 3: every
// affine access from a consumer stage must fall within the producer's
// domain. Accesses that are affine combinations of one variable and the
// parameters are verified parametrically where possible (valid for all
// parameter values), falling back to a check at the user-supplied parameter
// estimates; non-affine (data-dependent) accesses are reported as
// unverifiable, matching the paper ("function accesses which are affine
// combinations of variables and parameters are the only accesses
// analyzed").
package bounds

import (
	"fmt"
	"strings"

	"repro/internal/affine"
	"repro/internal/dsl"
	"repro/internal/expr"
	"repro/internal/pipeline"
)

// Violation describes one out-of-domain access.
type Violation struct {
	Consumer string
	Producer string
	Dim      int
	Access   string
	Detail   string
}

func (v Violation) String() string {
	return fmt.Sprintf("%s reads %s dim %d via %s: %s", v.Consumer, v.Producer, v.Dim, v.Access, v.Detail)
}

// Result aggregates the outcome of checking a pipeline.
type Result struct {
	// Violations are accesses provably or empirically (at the estimates)
	// outside the producer domain; these make the specification invalid.
	Violations []Violation
	// Unproven are accesses that hold at the estimates but could not be
	// proven for all parameter values.
	Unproven []Violation
	// Unverifiable are non-affine accesses that cannot be analyzed.
	Unverifiable []Violation
}

// Err returns an error summarizing the violations, or nil when none.
func (r *Result) Err() error {
	if len(r.Violations) == 0 {
		return nil
	}
	msgs := make([]string, 0, len(r.Violations))
	for _, v := range r.Violations {
		msgs = append(msgs, v.String())
	}
	return fmt.Errorf("bounds: %d out-of-domain access(es):\n  %s",
		len(r.Violations), strings.Join(msgs, "\n  "))
}

// Check verifies every access in the pipeline graph against the producer
// domains, using estimates to resolve parametric comparisons that cannot be
// proven symbolically.
func Check(g *pipeline.Graph, estimates map[string]int64) *Result {
	res := &Result{}
	for _, name := range g.Order {
		checkStage(g, g.Stages[name], estimates, res)
	}
	return res
}

// checkStage checks the reads of a stage's case expressions over the stage
// domain, tightened per case by the case's box condition when it is one.
// An accumulator's reads range over its reduction domain, and so do its
// target indices, which must land inside its own domain: its write is
// checked like a read.
func checkStage(g *pipeline.Graph, st *pipeline.Stage, estimates map[string]int64, res *Result) {
	if acc, ok := st.Decl.(*dsl.Accumulator); ok {
		red := []affine.Domain{acc.ReductionDomain()}
		for _, site := range []pipeline.Site{pipeline.AccTarget, pipeline.AccWrite, pipeline.AccValue} {
			checkReads(g, st, site, red, estimates, res)
		}
		return
	}
	doms := make([]affine.Domain, len(st.Cases))
	for i, c := range st.Cases {
		doms[i] = st.Decl.Domain()
		if c.Cond != nil {
			doms[i] = tightenByCond(doms[i], c.Cond)
		}
	}
	checkReads(g, st, pipeline.CaseExpr, doms, estimates, res)
}

// checkReads checks the stage's reads at one site, each over the domain of
// its case (an accumulator's reads are all of case 0).
func checkReads(g *pipeline.Graph, st *pipeline.Stage, site pipeline.Site, doms []affine.Domain, estimates map[string]int64, res *Result) {
	var prod affine.Domain
	call := -1
	for _, r := range st.Reads {
		if r.Site != site {
			continue
		}
		if r.Call != call {
			prod, call = producerDomain(g, r.Target), r.Call
		}
		checkOneAccess(st.Name, r, doms[r.Case], prod[r.ProducerDim], estimates, res)
	}
}

// tightenByCond intersects a parametric domain with a case condition:
// fully when the condition is a conjunctive box (Section 3.7 domain
// splitting), otherwise with whatever box-convertible conjuncts it has
// (sound over-approximation; e.g. `t > 0 && !interior` still bounds t).
func tightenByCond(dom affine.Domain, cond expr.Cond) affine.Domain {
	lower, upper, ok := expr.CondToBox(cond, len(dom))
	if !ok {
		lower, upper = expr.CondToBoxPartial(cond, len(dom))
	}
	out := make(affine.Domain, len(dom))
	copy(out, dom)
	for d := range out {
		if lower[d] != nil {
			// Tightening is sound only if provably >= existing bound; keep
			// the case bound when the difference is provably signed, else
			// keep the (wider) domain bound.
			if lower[d].Sub(out[d].Lo).NonNegative() {
				out[d].Lo = *lower[d]
			}
		}
		if upper[d] != nil {
			if out[d].Hi.Sub(*upper[d]).NonNegative() {
				out[d].Hi = *upper[d]
			}
		}
	}
	return out
}

// producerDomain is the domain of a stage or an input image of the graph.
func producerDomain(g *pipeline.Graph, target string) affine.Domain {
	if ps, ok := g.Stages[target]; ok {
		return ps.Decl.Domain()
	}
	return g.Images[target].Domain()
}

// checkOneAccess verifies a single index expression against one producer
// dimension.
func checkOneAccess(consumer string, r pipeline.Read, dom affine.Domain, prod affine.Interval, estimates map[string]int64, res *Result) {
	aff := r.Acc
	if !r.OK {
		res.Unverifiable = append(res.Unverifiable, Violation{
			Consumer: consumer, Producer: r.Target, Dim: r.ProducerDim,
			Access: r.Arg.String(), Detail: "non-affine access, not analyzed",
		})
		return
	}
	var varIv affine.Interval
	if aff.Var >= 0 {
		if aff.Var >= len(dom) {
			res.Violations = append(res.Violations, Violation{
				Consumer: consumer, Producer: r.Target, Dim: r.ProducerDim,
				Access: r.Arg.String(), Detail: "references nonexistent dimension",
			})
			return
		}
		varIv = dom[aff.Var]
	}
	// Lower side: min over the variable range of floor((a·x + b)/d) must be
	// >= prod.Lo, i.e. a·Xmin + b >= d·prod.Lo where Xmin is the domain
	// endpoint minimizing a·x.
	lowEnd, highEnd := varIv.Lo, varIv.Hi
	if aff.Coeff < 0 {
		lowEnd, highEnd = varIv.Hi, varIv.Lo
	}
	numLo := aff.Off
	numHi := aff.Off
	if aff.Var >= 0 {
		numLo = numLo.Add(lowEnd.Scale(aff.Coeff))
		numHi = numHi.Add(highEnd.Scale(aff.Coeff))
	}
	// floor(numLo/d) >= prod.Lo  ⇔  numLo - d·prod.Lo >= 0
	lowOK := numLo.Sub(prod.Lo.Scale(aff.Div))
	// floor(numHi/d) <= prod.Hi  ⇔  d·prod.Hi + d-1 - numHi >= 0
	highOK := prod.Hi.Scale(aff.Div).AddConst(aff.Div - 1).Sub(numHi)

	sides := []struct {
		name string
		cond affine.Expr
	}{{"lower", lowOK}, {"upper", highOK}}
	for _, s := range sides {
		side, cond := s.name, s.cond
		if cond.NonNegative() {
			continue
		}
		v, err := cond.Eval(estimates)
		if err != nil {
			res.Unproven = append(res.Unproven, Violation{
				Consumer: consumer, Producer: r.Target, Dim: r.ProducerDim,
				Access: r.Arg.String(),
				Detail: fmt.Sprintf("%s bound unresolvable: %v", side, err),
			})
			continue
		}
		if v < 0 {
			res.Violations = append(res.Violations, Violation{
				Consumer: consumer, Producer: r.Target, Dim: r.ProducerDim,
				Access: r.Arg.String(),
				Detail: fmt.Sprintf("%s bound violated at estimates (%s = %d < 0)", side, cond, v),
			})
		} else {
			res.Unproven = append(res.Unproven, Violation{
				Consumer: consumer, Producer: r.Target, Dim: r.ProducerDim,
				Access: r.Arg.String(),
				Detail: fmt.Sprintf("%s bound holds at estimates but is not proven parametrically", side),
			})
		}
	}
}
