// Package pipeline builds the directed acyclic graph of stages from a DSL
// specification (Section 3 of the paper): nodes are functions/accumulators,
// edges are producer-consumer relationships extracted from the function
// definitions. It also computes topological levels, which seed the initial
// schedules (Section 3.1).
package pipeline

import (
	"fmt"
	"sort"

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
}

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
		Images:   make(map[string]*dsl.Image),
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

		prods, imgs, selfRef, err := referencedTargets(b, st)
		if err != nil {
			return err
		}
		st.SelfRef = selfRef
		st.Producers = prods
		st.InputDeps = imgs
		for _, p := range prods {
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
	for name := range g.Stages {
		for _, p := range g.Stages[name].Producers {
			g.Stages[p].Consumers = append(g.Stages[p].Consumers, name)
		}
	}
	for _, st := range g.Stages {
		sort.Strings(st.Consumers)
	}
	g.computeOrderAndLevels()
	// Record images actually referenced.
	for _, st := range g.Stages {
		for _, im := range st.InputDeps {
			img, _ := b.InputImage(im)
			g.Images[im] = img
		}
	}
	return g, nil
}

// referencedTargets scans a stage's expressions (including case conditions)
// for accesses, splitting them into producer stages and input images.
func referencedTargets(b *dsl.Builder, st *Stage) (stages, images []string, selfRef bool, err error) {
	seenStage := make(map[string]bool)
	seenImage := make(map[string]bool)
	record := func(e expr.Expr) bool {
		a, ok := e.(expr.Access)
		if !ok || err != nil {
			return err == nil
		}
		if a.Target == st.Name {
			selfRef = true
			return true
		}
		if _, isStage := b.Stage(a.Target); isStage {
			seenStage[a.Target] = true
			return true
		}
		if _, isImage := b.InputImage(a.Target); isImage {
			seenImage[a.Target] = true
			return true
		}
		err = fmt.Errorf("pipeline: stage %q references unknown target %q", st.Name, a.Target)
		return false
	}
	for _, e := range st.Exprs() {
		expr.Walk(e, record)
	}
	for _, c := range st.Cases {
		if c.Cond != nil {
			expr.WalkCond(c.Cond, record)
		}
	}
	if err != nil {
		return nil, nil, false, err
	}
	for s := range seenStage {
		stages = append(stages, s)
	}
	for s := range seenImage {
		images = append(images, s)
	}
	sort.Strings(stages)
	sort.Strings(images)
	return stages, images, selfRef, nil
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
// and order from the (possibly rewritten) stage definitions, and prunes
// stages that became unreachable from the live-outs. Optimizer passes that
// rewrite stage expressions (inlining) call this afterwards.
func (g *Graph) Recompute() error {
	for _, st := range g.Stages {
		prods, imgs, selfRef, err := referencedTargets(g.Builder, st)
		if err != nil {
			return err
		}
		st.Producers, st.InputDeps, st.SelfRef = prods, imgs, selfRef
		st.Consumers = nil
	}
	// Prune unreachable stages.
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
	for n := range g.Stages {
		if !reach[n] {
			delete(g.Stages, n)
		}
	}
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
			img, _ := g.Builder.InputImage(im)
			g.Images[im] = img
		}
	}
	return nil
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
