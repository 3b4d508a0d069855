// Package pipeline builds the directed acyclic graph of stages from a DSL
// specification (Section 3 of the paper): nodes are functions/accumulators,
// edges are producer-consumer relationships extracted from the function
// definitions. It also computes topological levels, which seed the initial
// schedules (Section 3.1).
package pipeline

import (
	"fmt"
	"sort"

	"repro/internal/affine"
	"repro/internal/dsl"
	"repro/internal/expr"
)

// Stage is a node of the pipeline graph.
type Stage struct {
	Name string
	Decl dsl.Stage // original declaration

	// Cases is the (possibly inlined/rewritten) piecewise definition for
	// function stages; nil for accumulators.
	Cases []dsl.Case

	// Accumulator-only fields (copied from the declaration so optimizer
	// passes can rewrite them without mutating the DSL objects).
	AccOp     dsl.ReduceOp
	AccTarget []expr.Expr
	AccValue  expr.Expr

	Producers []string // stage names this stage reads (images excluded)
	Consumers []string // stage names reading this stage
	InputDeps []string // input image names this stage reads
	SelfRef   bool     // references its own values (time-iterated patterns)
	LiveOut   bool     // pipeline output
	Level     int      // topological level (0 = reads only inputs)

	// Reads is the table of the stage's accesses, filled when the graph is
	// built and again when a pass rewrites the definition (Recompute); it
	// is only read otherwise, by every pass and by every binding of the
	// graph.
	Reads []Read
}

// Read is one argument of one access call of a stage's definition: the
// quasi-affine analysis of the index, made once for every pass that reads
// it. Entries are in the definition's order: the case expressions (an
// accumulator's target indices, then its value), then the case conditions,
// each walked depth first with a call before the calls in its arguments;
// an accumulator's own write comes last.
type Read struct {
	Target      string
	Call        int // numbers the access calls in table order; one call's arguments share it
	ProducerDim int
	Site        Site
	Case        int // the case of a CaseExpr or CaseCond read; 0 for an accumulator
	Arg         expr.Expr
	Acc         affine.Access // Arg's quasi-affine form when OK
	OK          bool
}

// Site says where in a stage's definition a read sits.
type Site uint8

const (
	CaseExpr  Site = iota // a case's expression
	CaseCond              // a case's condition
	AccTarget             // an index of an accumulator's target
	AccValue              // an accumulator's value
	// AccWrite is the accumulator's target itself, read as an access of
	// the stage to its own domain: its indices are the call's arguments.
	AccWrite
)

// IsAccumulator reports whether the stage is a reduction.
func (s *Stage) IsAccumulator() bool { return s.Decl.IsAccumulator() }

// Exprs returns every expression of the stage's definition (case
// expressions for functions; target indices and value for accumulators).
// Conditions are not included.
func (s *Stage) Exprs() []expr.Expr {
	if s.IsAccumulator() {
		out := make([]expr.Expr, 0, len(s.AccTarget)+1)
		out = append(out, s.AccTarget...)
		return append(out, s.AccValue)
	}
	out := make([]expr.Expr, 0, len(s.Cases))
	for _, c := range s.Cases {
		out = append(out, c.E)
	}
	return out
}

// Graph is the pipeline DAG.
type Graph struct {
	Stages   map[string]*Stage
	Order    []string // topological order (producers first), deterministic
	LiveOuts []string
	Images   map[string]*dsl.Image
	Builder  *dsl.Builder
}

// Build extracts the pipeline graph reachable from the named live-out
// stages. It errors on undefined stages, references to unknown targets, and
// cycles (other than direct self-references, which express time-iterated
// computations and are handled specially downstream).
func Build(b *dsl.Builder, liveOuts ...string) (*Graph, error) {
	if len(liveOuts) == 0 {
		return nil, fmt.Errorf("pipeline: no live-out stages given")
	}
	g := &Graph{
		Stages:   make(map[string]*Stage),
		LiveOuts: liveOuts,
		Builder:  b,
	}
	// Collect reachable stages depth-first from the live-outs.
	var visit func(name string, path []string) error
	onPath := make(map[string]bool)
	visit = func(name string, path []string) error {
		if _, done := g.Stages[name]; done {
			if onPath[name] {
				return fmt.Errorf("pipeline: cycle through stage %q (path %v)", name, append(path, name))
			}
			return nil
		}
		decl, ok := b.Stage(name)
		if !ok {
			return fmt.Errorf("pipeline: unknown stage %q", name)
		}
		st := &Stage{Name: name, Decl: decl}
		if fn, isFn := decl.(*dsl.Function); isFn {
			// Copy the case slice: the inliner rewrites graph cases in
			// place, and the auto-scheduler rebuilds graphs from one
			// builder to search inlining variants — each graph must own
			// its cases.
			st.Cases = append([]dsl.Case(nil), fn.DefCases()...)
			if len(st.Cases) == 0 {
				return fmt.Errorf("pipeline: stage %q has no definition", name)
			}
		} else if acc, isAcc := decl.(*dsl.Accumulator); isAcc {
			op, target, v := acc.Update()
			if v == nil {
				return fmt.Errorf("pipeline: accumulator %q has no definition", name)
			}
			st.AccOp, st.AccTarget, st.AccValue = op, target, v
		}
		g.Stages[name] = st
		onPath[name] = true
		defer func() { onPath[name] = false }()

		if err := st.scan(b); err != nil {
			return err
		}
		for _, p := range st.Producers {
			if err := visit(p, append(path, name)); err != nil {
				return err
			}
		}
		return nil
	}
	for _, lo := range liveOuts {
		if err := visit(lo, nil); err != nil {
			return nil, err
		}
		g.Stages[lo].LiveOut = true
	}
	g.link()
	return g, nil
}

// scan fills the stage's read table with one walk of its definition, and
// Producers, InputDeps and SelfRef from the targets the walk meets. It
// errors on an unknown target and on an access whose argument count is not
// its target's rank.
func (st *Stage) scan(b *dsl.Builder) error {
	st.Reads = nil
	seenStage := make(map[string]bool)
	seenImage := make(map[string]bool)
	selfRef := false
	var err error
	calls, site, cs := 0, CaseExpr, 0
	record := func(e expr.Expr) bool {
		a, ok := e.(expr.Access)
		if !ok || err != nil {
			return err == nil
		}
		rank := 0
		if a.Target == st.Name {
			selfRef, rank = true, st.Decl.NumDims()
		} else if decl, isStage := b.Stage(a.Target); isStage {
			seenStage[a.Target], rank = true, decl.NumDims()
		} else if im, isImage := b.InputImage(a.Target); isImage {
			seenImage[a.Target], rank = true, im.NumDims()
		} else {
			err = fmt.Errorf("pipeline: stage %q references unknown target %q", st.Name, a.Target)
			return false
		}
		if len(a.Args) != rank {
			err = fmt.Errorf("pipeline: stage %q accesses %q with %d indices, domain has %d dims",
				st.Name, a.Target, len(a.Args), rank)
			return false
		}
		st.addCall(a, calls, site, cs)
		calls++
		return true
	}
	if st.IsAccumulator() {
		site = AccTarget
		for _, e := range st.AccTarget {
			expr.Walk(e, record)
		}
		site = AccValue
		expr.Walk(st.AccValue, record)
	} else {
		for cs = range st.Cases {
			expr.Walk(st.Cases[cs].E, record)
		}
		site = CaseCond
		for cs = range st.Cases {
			if c := st.Cases[cs]; c.Cond != nil {
				expr.WalkCond(c.Cond, record)
			}
		}
	}
	if err != nil {
		return err
	}
	if st.IsAccumulator() {
		st.addCall(expr.Access{Target: st.Name, Args: st.AccTarget}, calls, AccWrite, 0)
	}
	st.Producers, st.InputDeps, st.SelfRef = sortedKeys(seenStage), sortedKeys(seenImage), selfRef
	return nil
}

// addCall appends one entry per argument of the access call a.
func (st *Stage) addCall(a expr.Access, call int, site Site, cs int) {
	for d, arg := range a.Args {
		r := Read{Target: a.Target, Call: call, ProducerDim: d, Site: site, Case: cs, Arg: arg}
		r.Acc, r.OK = expr.ToAffineAccess(arg)
		st.Reads = append(st.Reads, r)
	}
}

func sortedKeys(set map[string]bool) []string {
	var out []string
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// computeOrderAndLevels assigns each stage its level in a topological sort
// of the DAG (the leading dimension of the initial schedule, Section 3.1)
// and fills Order with a deterministic topological ordering.
func (g *Graph) computeOrderAndLevels() {
	names := make([]string, 0, len(g.Stages))
	for n := range g.Stages {
		names = append(names, n)
	}
	sort.Strings(names)

	var level func(name string) int
	memo := make(map[string]int)
	level = func(name string) int {
		if l, ok := memo[name]; ok {
			return l
		}
		memo[name] = 0 // break self-reference
		l := 0
		for _, p := range g.Stages[name].Producers {
			if pl := level(p) + 1; pl > l {
				l = pl
			}
		}
		memo[name] = l
		return l
	}
	for _, n := range names {
		g.Stages[n].Level = level(n)
	}
	sort.SliceStable(names, func(i, j int) bool {
		li, lj := g.Stages[names[i]].Level, g.Stages[names[j]].Level
		if li != lj {
			return li < lj
		}
		return names[i] < names[j]
	})
	g.Order = names
}

// Recompute re-derives producer/consumer edges, input dependences, levels
// and order after a pass rewrote the definitions of the named stages
// (inlining), rescanning only those, and prunes stages that became
// unreachable from the live-outs.
func (g *Graph) Recompute(rewritten ...string) error {
	for _, name := range rewritten {
		if err := g.Stages[name].scan(g.Builder); err != nil {
			return err
		}
	}
	reach := make(map[string]bool)
	var mark func(string)
	mark = func(n string) {
		if reach[n] {
			return
		}
		reach[n] = true
		for _, p := range g.Stages[n].Producers {
			mark(p)
		}
	}
	for _, lo := range g.LiveOuts {
		mark(lo)
	}
	for n, st := range g.Stages {
		st.Consumers = nil
		if !reach[n] {
			delete(g.Stages, n)
		}
	}
	g.link()
	return nil
}

// link fills every stage's Consumers from the Producers, the levels and
// order, and the images the stages read.
func (g *Graph) link() {
	for name := range g.Stages {
		for _, p := range g.Stages[name].Producers {
			g.Stages[p].Consumers = append(g.Stages[p].Consumers, name)
		}
	}
	for _, st := range g.Stages {
		sort.Strings(st.Consumers)
	}
	g.computeOrderAndLevels()
	g.Images = make(map[string]*dsl.Image)
	for _, st := range g.Stages {
		for _, im := range st.InputDeps {
			g.Images[im], _ = g.Builder.InputImage(im)
		}
	}
}

// ParamNames returns the names of all declared parameters, sorted.
func (g *Graph) ParamNames() []string {
	names := make([]string, 0, len(g.Builder.Params()))
	for n := range g.Builder.Params() {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
