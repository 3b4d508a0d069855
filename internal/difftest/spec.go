// Package difftest is the differential-testing subsystem of the compiler:
// a seeded generator of random 1-D and 2-D pipeline DAGs with provably
// in-bounds accesses, a runner that executes each DAG through the naive
// reference interpreter and through the optimized engine under a sweep of
// schedule/execution knobs asserting ULP-bounded equality, and a shrinker
// that minimizes a failing DAG to a small replayable repro.
//
// The package grew out of the ad-hoc fuzz tests that lived inside
// internal/engine; promoting them to a library makes the oracle reusable
// from Go native fuzzing (FuzzDiff), the tier-1 seed-corpus test, and the
// cmd/polymage-difftest soak CLI.
package difftest

import (
	"fmt"

	"repro/internal/affine"
	"repro/internal/dsl"
	"repro/internal/engine"
	"repro/internal/expr"
	"repro/internal/pipeline"
)

// StageKind enumerates the stage shapes the generator emits. Every kind
// that is infeasible in context (margins too deep, extents too small) is
// degraded to KindCopy by Build, so any []StageSpec is a valid pipeline —
// the property the shrinker relies on.
type StageKind uint8

const (
	// KindCopy is a point-wise copy of producer P (the universal fallback).
	KindCopy StageKind = iota
	// KindPointAdd is 0.5·P + 0.5·Q over two same-resolution producers.
	KindPointAdd
	// KindPointMad is 0.75·P + 0.1 (exercises constant folding/CSE).
	KindPointMad
	// KindStencil3 is a 3-tap [0.25 0.5 0.25] stencil along Axis.
	KindStencil3
	// KindStencil5 is a 5-tap binomial stencil along Axis.
	KindStencil5
	// KindStencil9 is a 9-tap averaging stencil along Axis.
	KindStencil9
	// KindStencil2D is a dense 3×3 box stencil (rank-2 specs only).
	KindStencil2D
	// KindDown halves resolution along Axis (reads 2x and 2x+1).
	KindDown
	// KindUp doubles resolution along Axis (reads x/2).
	KindUp
	numKinds
)

var kindNames = [...]string{
	KindCopy: "Copy", KindPointAdd: "PointAdd", KindPointMad: "PointMad",
	KindStencil3: "Stencil3", KindStencil5: "Stencil5", KindStencil9: "Stencil9",
	KindStencil2D: "Stencil2D", KindDown: "Down", KindUp: "Up",
}

func (k StageKind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("StageKind(%d)", uint8(k))
}

// StageSpec describes one generated stage. Producer indices refer to
// earlier entries of PipelineSpec.Stages; -1 (or any out-of-range value)
// means the input image.
type StageSpec struct {
	Kind StageKind
	// P is the primary producer, Q the secondary (KindPointAdd only).
	P, Q int
	// Axis selects the dimension for directional kinds (clamped to rank).
	Axis int
	// BoxCond splits the domain into an interior case plus a
	// predicate-guarded boundary case (Not of a box is not a box,
	// exercising the per-point predicate path).
	BoxCond bool
	// Perturb is the fault-injection hook of the mutation smoke tests:
	// when a build is asked for the perturbed variant, this stage's
	// definition is scaled by 1.001, emulating a miscompiled kernel on the
	// optimized side only.
	Perturb bool
}

// PipelineSpec is a complete, serializable description of one random
// pipeline DAG. It is pure data: Build turns it into a fresh dsl/pipeline
// graph every time (compilation passes mutate graphs in place, so each
// knob run builds its own), and the shrinker edits it structurally.
type PipelineSpec struct {
	// Seed fills the input image pattern.
	Seed int64
	// Rank is 1 or 2.
	Rank int
	// N is the input extent per dimension.
	N int64
	// Parametric declares the extent as a pipeline parameter bound to N at
	// run time instead of a compile-time constant (resampling kinds are
	// degraded to copies in this mode: margins must stay affine).
	Parametric bool
	// Integer switches the spec to all-integral arithmetic over a uint8
	// input image: every kind maps to an integer variant normalized back
	// into [0, 255] (integral stencil weights with a floor division by the
	// total mass), so bitwidth inference narrows every stage and the
	// whole DAG is exact in all evaluation tiers — the runner diffs these
	// specs with a zero-tolerance oracle instead of the ULP budget.
	Integer bool
	// Stages lists the DAG body; live-outs are the sinks (stages no other
	// stage consumes), so multi-output DAGs arise naturally.
	Stages []StageSpec
}

// built is the result of materializing a spec.
type built struct {
	Graph    *pipeline.Graph
	Params   map[string]int64
	Inputs   map[string]*engine.Buffer
	LiveOuts []string
	// Degraded counts stages that fell back to KindCopy for feasibility.
	Degraded int
}

// stageState tracks, per built stage, the resolution scale s (extent
// N>>s) and safety margin m of each dimension so every generated access
// provably stays inside its producer's domain — the same invariant the
// original engine fuzzers maintained.
type stageState struct {
	f *dsl.Function // nil = the input image
	s []int         // per-dim scale
	m []int64       // per-dim margin: domain is [m, (N>>s)-1-m]
}

func (sp PipelineSpec) rank() int {
	if sp.Rank == 2 {
		return 2
	}
	return 1
}

func (sp PipelineSpec) extent() int64 {
	if sp.N < 16 {
		return 16
	}
	return sp.N
}

// Build materializes the spec into a graph, parameter binding and filled
// inputs. With perturb set, stages marked Perturb scale their definition
// by 1.001 (the runner builds the reference side unperturbed and the
// optimized side perturbed, so a Perturb stage models a broken kernel).
// Build never fails on a structurally odd spec — infeasible stages
// degrade to copies — but it does verify the in-bounds invariant through
// the bounds checker and reports violations as errors.
func (sp PipelineSpec) Build(perturb bool) (*built, error) {
	rank := sp.rank()
	N := sp.extent()
	b := dsl.NewBuilder()
	ext := func(s int) int64 { return N >> s }

	var nParam *dsl.Parameter
	params := map[string]int64{}
	var imDims []affine.Expr
	if sp.Parametric {
		nParam = b.Param("N")
		params["N"] = N
		for d := 0; d < rank; d++ {
			imDims = append(imDims, nParam.Affine())
		}
	} else {
		for d := 0; d < rank; d++ {
			imDims = append(imDims, affine.Const(N))
		}
	}
	imType := expr.Float
	if sp.Integer {
		imType = expr.UChar
	}
	b.Image("I", imType, imDims...)
	vars := make([]*dsl.Variable, rank)
	for d, name := range []string{"x", "y"}[:rank] {
		vars[d] = b.Var(name)
	}

	input := stageState{s: make([]int, rank), m: make([]int64, rank)}
	producer := func(states []stageState, idx int) stageState {
		if idx < 0 || idx >= len(states) {
			return input
		}
		return states[idx]
	}
	at := func(st stageState, args ...expr.Expr) expr.Expr {
		if st.f == nil {
			return expr.Access{Target: "I", Args: args}
		}
		a := make([]any, len(args))
		for i, e := range args {
			a[i] = e
		}
		return st.f.At(a...)
	}
	// varArgs returns the identity index expressions (x[, y]).
	varArgs := func() []expr.Expr {
		out := make([]expr.Expr, rank)
		for d := range vars {
			out[d] = dsl.E(vars[d])
		}
		return out
	}
	span := func(s int, m int64) dsl.Interval {
		if sp.Parametric {
			return dsl.Span(affine.Const(m), nParam.Affine().AddConst(-1-m))
		}
		return dsl.ConstSpan(m, ext(s)-1-m)
	}

	states := make([]stageState, 0, len(sp.Stages))
	consumed := make([]bool, len(sp.Stages))
	degraded := 0
	for i, st := range sp.Stages {
		pIdx, qIdx := clampIdx(st.P, i), clampIdx(st.Q, i)
		p := producer(states, pIdx)
		q := producer(states, qIdx)
		axis := st.Axis
		if axis < 0 || axis >= rank {
			axis = 0
		}
		kind := st.Kind
		if kind >= numKinds {
			kind = KindCopy
		}
		// Feasibility: degrade to a copy when the kind cannot keep its
		// accesses provably in bounds (or is meaningless in context).
		ns := stageState{s: append([]int(nil), p.s...), m: append([]int64(nil), p.m...)}
		taps := 0
		switch kind {
		case KindStencil3:
			taps = 1
		case KindStencil5:
			taps = 2
		case KindStencil9:
			taps = 4
		}
		useQ := false
		switch kind {
		case KindPointAdd:
			same := true
			for d := 0; d < rank; d++ {
				if q.s[d] != p.s[d] {
					same = false
				}
			}
			if !same {
				q = p
			} else {
				useQ = true
			}
			for d := 0; d < rank; d++ {
				ns.m[d] = max(p.m[d], q.m[d])
			}
		case KindStencil3, KindStencil5, KindStencil9:
			ns.m[axis] += int64(taps)
			if ns.m[axis] >= ext(ns.s[axis])/2-1 {
				kind, ns = KindCopy, stageState{s: p.s, m: p.m}
				degraded++
			}
		case KindStencil2D:
			if rank != 2 {
				kind = KindCopy
				degraded++
				break
			}
			ns.m[0]++
			ns.m[1]++
			if ns.m[0] >= ext(ns.s[0])/2-1 || ns.m[1] >= ext(ns.s[1])/2-1 {
				kind, ns = KindCopy, stageState{s: p.s, m: p.m}
				degraded++
			}
		case KindDown:
			if sp.Parametric || ext(p.s[axis]+1) < 16 {
				kind = KindCopy
				degraded++
				break
			}
			ns.s[axis] = p.s[axis] + 1
			ns.m[axis] = (p.m[axis]+1)/2 + 1
		case KindUp:
			if sp.Parametric || p.s[axis] == 0 {
				kind = KindCopy
				degraded++
				break
			}
			ns.s[axis] = p.s[axis] - 1
			ns.m[axis] = 2*p.m[axis] + 2
			if ns.m[axis] >= ext(ns.s[axis])/2-1 {
				kind, ns = KindCopy, stageState{s: p.s, m: p.m}
				degraded++
			}
		}

		// Definition expression for the (possibly degraded) kind. Integer
		// mode keeps every stage's interval inside [0, 255]: values grow
		// through integral weights, then a floor division by the total mass
		// renormalizes — so arbitrary DAG depth stays within the ±2^24
		// exactness cap and bitwidth inference narrows the whole graph.
		var def expr.Expr
		switch kind {
		case KindCopy:
			def = at(p, varArgs()...)
		case KindPointAdd:
			if sp.Integer {
				def = dsl.IDiv(dsl.Add(at(p, varArgs()...), at(q, varArgs()...)), 2)
			} else {
				def = dsl.Add(
					dsl.Mul(0.5, at(p, varArgs()...)),
					dsl.Mul(0.5, at(q, varArgs()...)))
			}
		case KindPointMad:
			if sp.Integer {
				// The operand spans [-64, 318], so the saturating UChar cast
				// actually clamps at runtime on both ends — every tier must
				// apply the shared numeric semantics to agree exactly.
				def = dsl.Cast(expr.UChar,
					dsl.Sub(dsl.IDiv(dsl.Mul(3, at(p, varArgs()...)), 2), 64))
			} else {
				def = dsl.Add(dsl.Mul(0.75, at(p, varArgs()...)), 0.1)
			}
		case KindStencil3, KindStencil5, KindStencil9:
			if sp.Integer {
				w, total := intStencilWeights(2*taps + 1)
				var terms []expr.Expr
				for k := -taps; k <= taps; k++ {
					args := varArgs()
					args[axis] = dsl.Add(vars[axis], k)
					terms = append(terms, dsl.Mul(w[k+taps], at(p, args...)))
				}
				def = dsl.IDiv(expr.Sum(terms...), total)
			} else {
				w := stencilWeights(2*taps + 1)
				var terms []expr.Expr
				for k := -taps; k <= taps; k++ {
					args := varArgs()
					args[axis] = dsl.Add(vars[axis], k)
					terms = append(terms, dsl.Mul(w[k+taps], at(p, args...)))
				}
				def = expr.Sum(terms...)
			}
		case KindStencil2D:
			var terms []expr.Expr
			for di := -1; di <= 1; di++ {
				for dj := -1; dj <= 1; dj++ {
					a := at(p, dsl.Add(vars[0], di), dsl.Add(vars[1], dj))
					if sp.Integer {
						terms = append(terms, a)
					} else {
						terms = append(terms, dsl.Mul(1.0/9, a))
					}
				}
			}
			def = expr.Sum(terms...)
			if sp.Integer {
				def = dsl.IDiv(def, 9)
			}
		case KindDown:
			a0, a1 := varArgs(), varArgs()
			a0[axis] = dsl.Mul(2, vars[axis])
			a1[axis] = dsl.Add(dsl.Mul(2, vars[axis]), 1)
			if sp.Integer {
				def = dsl.IDiv(dsl.Add(at(p, a0...), at(p, a1...)), 2)
			} else {
				def = dsl.Mul(0.5, dsl.Add(at(p, a0...), at(p, a1...)))
			}
		case KindUp:
			args := varArgs()
			args[axis] = dsl.IDiv(vars[axis], 2)
			def = at(p, args...)
		}
		if perturb && st.Perturb {
			if sp.Integer {
				def = dsl.Add(def, 1)
			} else {
				def = dsl.Mul(1.001, def)
			}
		}

		dom := make([]dsl.Interval, rank)
		for d := 0; d < rank; d++ {
			dom[d] = span(ns.s[d], ns.m[d])
		}
		fn := b.Func(fmt.Sprintf("s%d", i), expr.Float, vars, dom)
		if st.BoxCond && boxCondFeasible(rank, ns, ext) {
			lo := make([]any, rank)
			hi := make([]any, rank)
			for d := 0; d < rank; d++ {
				lo[d] = ns.m[d] + 1
				if sp.Parametric {
					hi[d] = dsl.Sub(nParam, 2+ns.m[d])
				} else {
					hi[d] = ext(ns.s[d]) - 2 - ns.m[d]
				}
			}
			inner := dsl.InBox(vars, lo, hi)
			boundary := dsl.Mul(0.5, def)
			if sp.Integer {
				boundary = dsl.IDiv(def, 2)
			}
			fn.Define(
				dsl.Case{Cond: inner, E: def},
				dsl.Case{Cond: dsl.Not(inner), E: boundary},
			)
		} else {
			fn.Define(dsl.Case{E: def})
		}
		ns.f = fn
		states = append(states, ns)
		if pIdx >= 0 {
			consumed[pIdx] = true
		}
		if useQ && qIdx >= 0 {
			consumed[qIdx] = true
		}
	}
	if len(states) == 0 {
		return nil, fmt.Errorf("difftest: empty spec")
	}

	// Live-outs are the sinks: stages no later stage actually consumed
	// (multi-output DAGs arise whenever the generator forks the graph).
	var liveOuts []string
	for i := range states {
		if !consumed[i] {
			liveOuts = append(liveOuts, states[i].f.Name())
		}
	}
	g, err := pipeline.Build(b, liveOuts...)
	if err != nil {
		return nil, fmt.Errorf("difftest: build %s: %w", sp.ShortString(), err)
	}
	box := make(affine.Box, rank)
	for d := 0; d < rank; d++ {
		box[d] = affine.Range{Lo: 0, Hi: N - 1}
	}
	in := engine.NewBufferElem(box, sp.InputElem())
	engine.FillPattern(in, sp.Seed)
	return &built{
		Graph:    g,
		Params:   params,
		Inputs:   map[string]*engine.Buffer{"I": in},
		LiveOuts: liveOuts,
		Degraded: degraded,
	}, nil
}

func boxCondFeasible(rank int, ns stageState, ext func(int) int64) bool {
	for d := 0; d < rank; d++ {
		// Interior box [m+1, ext-2-m] must be non-degenerate and leave a
		// boundary ring inside the domain.
		if ext(ns.s[d])-2-ns.m[d] <= ns.m[d]+1 {
			return false
		}
	}
	return true
}

// clampIdx maps a spec producer index to a valid resolved index: values
// outside [0, i) (including -1) mean the input image.
func clampIdx(idx, i int) int {
	if idx < 0 || idx >= i {
		return -1
	}
	return idx
}

// intStencilWeights returns the integral symmetric tap vector of odd
// length n and its total mass (the floor-division normalizer). The 3-tap
// mass 4 is a power of two (the integer VM's shift path), the 5- and
// 9-tap masses 9 and 25 are not (the general floor-division path).
func intStencilWeights(n int) ([]int64, int64) {
	w := make([]int64, n)
	var total int64
	for i := range w {
		d := i - n/2
		if d < 0 {
			d = -d
		}
		w[i] = int64(n/2 + 1 - d)
		total += w[i]
	}
	return w, total
}

// stencilWeights returns a normalized symmetric tap vector of odd length n.
func stencilWeights(n int) []float64 {
	w := make([]float64, n)
	total := 0.0
	for i := range w {
		d := i - n/2
		if d < 0 {
			d = -d
		}
		w[i] = float64(n/2 + 1 - d)
		total += w[i]
	}
	for i := range w {
		w[i] /= total
	}
	return w
}

// InputElem is the element type of the spec's input image: uint8 for an
// Integer spec, float32 otherwise. FillPattern fills it with integers in
// [0, 256) or with floats in [0, 1).
func (sp PipelineSpec) InputElem() engine.Elem {
	if sp.Integer {
		return engine.ElemU8
	}
	return engine.ElemF32
}

// ShortString renders the spec on one line for log messages.
func (sp PipelineSpec) ShortString() string {
	s := fmt.Sprintf("rank=%d N=%d seed=%d", sp.rank(), sp.extent(), sp.Seed)
	if sp.Parametric {
		s += " parametric"
	}
	if sp.Integer {
		s += " integer"
	}
	return fmt.Sprintf("{%s stages=%d}", s, len(sp.Stages))
}
