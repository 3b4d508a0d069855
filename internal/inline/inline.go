// Package inline implements the point-wise inlining pass of Section 3:
// stages whose definitions access their producers only at identity indices
// (point-wise stages such as Ixx, det and trace in the Harris example) are
// substituted into their consumers, trading a small amount of recomputation
// for locality. Stencil/sampling stages are never inlined — the schedule
// transformations handle those — matching Figure 7's generated code, which
// materializes Ix/Iy/Sxx/Sxy/Syy and inlines the rest.
package inline

import (
	"fmt"

	"repro/internal/dsl"
	"repro/internal/expr"
	"repro/internal/pipeline"
)

// Options tunes the inliner.
type Options struct {
	// MaxDefSize is the maximum node count of a producer definition that
	// may be inlined (guards against duplicating large expressions).
	MaxDefSize int
	// MaxGrownSize is the maximum node count a consumer expression may
	// reach through inlining (guards against exponential growth in deep
	// point-wise chains).
	MaxGrownSize int
	// Disabled turns the pass off (the PolyMage "base" variant still
	// performs inlining per the paper; this flag exists for ablations).
	Disabled bool
}

// DefaultOptions returns the limits used by the compiler.
func DefaultOptions() Options {
	return Options{MaxDefSize: 96, MaxGrownSize: 4096}
}

// Apply runs the inlining pass on the graph in place (stage Cases and
// accumulator expressions are rewritten; the graph is Recomputed). It
// returns the names of the stages that were inlined away.
func Apply(g *pipeline.Graph, opts Options) ([]string, error) {
	if opts.Disabled {
		return nil, nil
	}
	if opts.MaxDefSize == 0 {
		opts = DefaultOptions()
	}
	var inlined []string
	for {
		candidate := pickCandidate(g, opts)
		if candidate == "" {
			break
		}
		if err := substitute(g, candidate, opts); err != nil {
			return nil, err
		}
		inlined = append(inlined, candidate)
		if err := g.Recompute(g.Stages[candidate].Consumers...); err != nil {
			return nil, err
		}
	}
	return inlined, nil
}

// pickCandidate returns the name of an inlinable stage, preferring the
// deepest (highest level) so chains collapse from the outputs inward,
// keeping intermediate expression sizes small.
func pickCandidate(g *pipeline.Graph, opts Options) string {
	best := ""
	bestLevel := -1
	for _, name := range g.Order {
		st := g.Stages[name]
		if !inlinable(g, st, opts) {
			continue
		}
		if st.Level > bestLevel {
			best, bestLevel = name, st.Level
		}
	}
	return best
}

func inlinable(g *pipeline.Graph, st *pipeline.Stage, opts Options) bool {
	if st.LiveOut || st.SelfRef || st.IsAccumulator() {
		return false
	}
	if len(st.Cases) != 1 {
		// Multi-case definitions would need Select chains; the paper's
		// point-wise stages are single-case. A single case may carry a
		// condition (det/trace in Figure 1 do): in a valid specification
		// consumers only read points where the producer is defined, so the
		// condition can be dropped on substitution (Figure 7 inlines them).
		return false
	}
	def := st.Cases[0].E
	if expr.Size(def) > opts.MaxDefSize {
		return false
	}
	// The stage must be point-wise: every access in its definition is at
	// the identity index vector (x0, x1, ...).
	for _, r := range st.Reads {
		if r.Site == pipeline.CaseExpr {
			if v, ok := r.Arg.(expr.VarRef); !ok || v.Dim != r.ProducerDim {
				return false
			}
		}
	}
	// Consumers must all be plain functions (substituting into an
	// accumulator's data-dependent target is legal for the value but we
	// keep reductions untouched, as the paper does), must read the stage at
	// quasi-affine indices only, and must not grow beyond the size cap. A
	// stage read at a data-dependent index is a lookup table: substituting
	// it would re-evaluate its definition at every consumer point instead of
	// once per table entry (the camera pipeline's 1024-entry tone curve).
	for _, cn := range st.Consumers {
		c := g.Stages[cn]
		if c.IsAccumulator() {
			return false
		}
		uses, lastCall := 0, -1
		for _, r := range c.Reads {
			if r.Target != st.Name || r.Site != pipeline.CaseExpr {
				continue
			}
			if !r.OK {
				return false
			}
			if r.Call != lastCall {
				uses, lastCall = uses+1, r.Call
			}
		}
		grown := 0
		for _, e := range c.Exprs() {
			grown += expr.Size(e)
		}
		grown += uses * expr.Size(def)
		if grown > opts.MaxGrownSize {
			return false
		}
	}
	return true
}

// substitute replaces every access to stage name in its consumers with the
// stage's definition, with the access arguments substituted for the
// definition's variables.
func substitute(g *pipeline.Graph, name string, opts Options) error {
	st := g.Stages[name]
	def := st.Cases[0].E
	nd := st.Decl.NumDims()
	rewrite := func(e expr.Expr) expr.Expr {
		return expr.Transform(e, func(x expr.Expr) expr.Expr {
			a, ok := x.(expr.Access)
			if !ok || a.Target != name {
				return nil
			}
			if len(a.Args) != nd {
				panic(fmt.Sprintf("inline: access to %s with %d args, expected %d", name, len(a.Args), nd))
			}
			return expr.SubstVars(def, a.Args)
		})
	}
	for _, cn := range st.Consumers {
		c := g.Stages[cn]
		for i := range c.Cases {
			c.Cases[i] = dsl.Case{
				Cond: rewriteCond(c.Cases[i].Cond, name, def, nd),
				E:    expr.Simplify(rewrite(c.Cases[i].E)),
			}
		}
	}
	return nil
}

func rewriteCond(c expr.Cond, name string, def expr.Expr, nd int) expr.Cond {
	if c == nil {
		return nil
	}
	return expr.TransformCond(c, func(x expr.Expr) expr.Expr {
		a, ok := x.(expr.Access)
		if !ok || a.Target != name {
			return nil
		}
		if len(a.Args) != nd {
			panic(fmt.Sprintf("inline: access to %s with %d args, expected %d", name, len(a.Args), nd))
		}
		return expr.SubstVars(def, a.Args)
	})
}
