package engine

import (
	"repro/internal/affine"
	"repro/internal/expr"
	"repro/internal/pipeline"
)

// Bitwidth inference (Options.NarrowTypes). The pass walks the pipeline in
// topological order propagating integer value intervals and picks the
// narrowest storage type per stage: a stage whose every expression node is
// provably integral and bounded within ±2^24 is stored as uint8/uint16/
// int32 instead of float32. The 2^24 cap is the key soundness bound — every
// such value is exactly representable in float32 AND float64 AND int64, so
// the float64 row paths, the integer row VM, the generated kernels and the
// reference interpreter all compute bit-identical results; the narrowed
// store is then a loss-free truncation (the inferred interval fits the
// chosen type, so the saturating store never actually clamps).
//
// Stages that fall outside the provable subset (transcendentals, float
// division, accumulators, self-references, unbounded growth) keep the
// float32 layout and the float registers; a Cast to an integer type
// re-bounds an otherwise unprovable operand (the saturating cast semantics
// guarantee the result interval) but marks the stage float-fed, which keeps
// it off the integer VM while still allowing narrow storage.

// maxExact bounds every inferred interval: |v| <= 2^24 keeps integer
// arithmetic exact in float32 (and trivially in float64/int64).
const maxExact = int64(1) << 24

// iv is an integer interval. ok means "every value this expression takes is
// an integer in [lo, hi], with |lo|,|hi| <= maxExact"; !ok is the float/
// unknown lattice top.
type iv struct {
	lo, hi int64
	ok     bool
}

func ivBad() iv { return iv{} }

func ivRange(lo, hi int64) iv {
	if lo > hi || lo < -maxExact || hi > maxExact {
		return ivBad()
	}
	return iv{lo: lo, hi: hi, ok: true}
}

func ivConst(v float64) iv {
	if v != float64(int64(v)) {
		return ivBad()
	}
	n := int64(v)
	return ivRange(n, n)
}

func (a iv) union(b iv) iv {
	if !a.ok || !b.ok {
		return ivBad()
	}
	return ivRange(min(a.lo, b.lo), max(a.hi, b.hi))
}

// stageNarrow is the per-stage inference result.
type stageNarrow struct {
	rng      iv   // exported value interval (ok = provably integral+bounded)
	elem     Elem // chosen storage type (ElemF32 when not narrowed)
	intExact bool // every node integral+bounded: eligible for the int VM
}

// narrowing carries per-name results for stages and input images.
type narrowing struct {
	stages map[string]stageNarrow
	params map[string]int64
}

// elemFor picks the narrowest storage type covering r.
func elemFor(r iv) Elem {
	switch {
	case !r.ok:
		return ElemF32
	case r.lo >= 0 && r.hi <= 255:
		return ElemU8
	case r.lo >= 0 && r.hi <= 65535:
		return ElemU16
	default:
		return ElemI32
	}
}

// inferNarrow runs the pass over the whole graph. Input images declared
// UChar are trusted to hold [0, 255] (the narrow layout enforces it by
// storage); every other image type stays float32 with an unknown interval.
func inferNarrow(g *pipeline.Graph, params map[string]int64) *narrowing {
	nw := &narrowing{stages: make(map[string]stageNarrow), params: params}
	for name, im := range g.Images {
		sn := stageNarrow{elem: ElemF32}
		if im.ElemType() == expr.UChar {
			sn.rng = ivRange(0, 255)
			sn.elem = ElemU8
			sn.intExact = true
		}
		nw.stages[name] = sn
	}
	for _, name := range g.Order {
		st := g.Stages[name]
		sn := stageNarrow{elem: ElemF32}
		if !st.IsAccumulator() && !st.SelfRef {
			if box, err := st.Decl.Domain().Eval(params); err == nil {
				sn = nw.inferStage(st, box)
			}
		}
		nw.stages[name] = sn
	}
	return nw
}

// inferStage folds the intervals of every case expression. The stage is
// narrowed when all case roots export ok intervals; it is additionally
// intExact (int-VM eligible) when every interior node — conditions
// included — stays in the provable subset.
func (nw *narrowing) inferStage(st *pipeline.Stage, dom affine.Box) stageNarrow {
	rng := iv{}
	exact := true
	for i, c := range st.Cases {
		if c.Cond != nil && !nw.condExact(c.Cond, dom) {
			exact = false
		}
		r := nw.evalExpr(c.E, dom, &exact)
		if !r.ok {
			return stageNarrow{elem: ElemF32}
		}
		if i == 0 {
			rng = r
		} else {
			rng = rng.union(r)
		}
	}
	if !rng.ok {
		return stageNarrow{elem: ElemF32}
	}
	return stageNarrow{rng: rng, elem: elemFor(rng), intExact: exact}
}

// evalExpr computes the interval of e. exact is cleared when a subtree
// leaves the provable-integer subset even if a saturating Cast later
// re-bounds it (such stages narrow their storage but must keep evaluating
// on the float64 tiers).
func (nw *narrowing) evalExpr(e expr.Expr, dom affine.Box, exact *bool) iv {
	switch n := e.(type) {
	case expr.Const:
		r := ivConst(n.V)
		if !r.ok {
			*exact = false
		}
		return r
	case expr.ParamRef:
		if v, ok := nw.params[n.Name]; ok {
			r := ivRange(v, v)
			if !r.ok {
				*exact = false
			}
			return r
		}
		*exact = false
		return ivBad()
	case expr.VarRef:
		if n.Dim < 0 || n.Dim >= len(dom) {
			*exact = false
			return ivBad()
		}
		r := ivRange(dom[n.Dim].Lo, dom[n.Dim].Hi)
		if !r.ok {
			*exact = false
		}
		return r
	case expr.Access:
		if sn, ok := nw.stages[n.Target]; ok && sn.rng.ok {
			return sn.rng
		}
		*exact = false
		return ivBad()
	case expr.Binary:
		a := nw.evalExpr(n.L, dom, exact)
		b := nw.evalExpr(n.R, dom, exact)
		r := ivBin(n.Op, a, b)
		if !r.ok {
			*exact = false
		}
		return r
	case expr.Unary:
		x := nw.evalExpr(n.X, dom, exact)
		r := ivUn(n.Op, x)
		if !r.ok {
			*exact = false
		}
		return r
	case expr.Select:
		if !nw.condExact(n.Cond, dom) {
			*exact = false
		}
		t := nw.evalExpr(n.Then, dom, exact)
		f := nw.evalExpr(n.Else, dom, exact)
		r := t.union(f)
		if !r.ok {
			*exact = false
		}
		return r
	case expr.Cast:
		x := nw.evalExpr(n.X, dom, exact)
		return ivCast(n.To, x, exact)
	}
	*exact = false
	return ivBad()
}

// condExact reports whether every comparison operand in c is itself in the
// provable subset (so the branch decision is identical across evaluation
// tiers, float32 included).
func (nw *narrowing) condExact(c expr.Cond, dom affine.Box) bool {
	switch n := c.(type) {
	case expr.Cmp:
		ex := true
		l := nw.evalExpr(n.L, dom, &ex)
		r := nw.evalExpr(n.R, dom, &ex)
		return ex && l.ok && r.ok
	case expr.And:
		return nw.condExact(n.A, dom) && nw.condExact(n.B, dom)
	case expr.Or:
		return nw.condExact(n.A, dom) && nw.condExact(n.B, dom)
	case expr.Not:
		return nw.condExact(n.A, dom)
	case expr.BoolConst:
		return true
	}
	return false
}

func ivBin(op expr.BinOp, a, b iv) iv {
	if !a.ok || !b.ok {
		return ivBad()
	}
	switch op {
	case expr.Add:
		return ivRange(a.lo+b.lo, a.hi+b.hi)
	case expr.Sub:
		return ivRange(a.lo-b.hi, a.hi-b.lo)
	case expr.Mul:
		p1, p2, p3, p4 := a.lo*b.lo, a.lo*b.hi, a.hi*b.lo, a.hi*b.hi
		return ivRange(min(min(p1, p2), min(p3, p4)), max(max(p1, p2), max(p3, p4)))
	case expr.Min:
		return ivRange(min(a.lo, b.lo), min(a.hi, b.hi))
	case expr.Max:
		return ivRange(max(a.lo, b.lo), max(a.hi, b.hi))
	case expr.FDiv:
		// Floor division is exact and monotone in each operand when the
		// divisor is a positive integer, so the extrema sit at interval
		// corners.
		if b.lo < 1 {
			return ivBad()
		}
		q1 := affine.FloorDiv(a.lo, b.lo)
		q2 := affine.FloorDiv(a.lo, b.hi)
		q3 := affine.FloorDiv(a.hi, b.lo)
		q4 := affine.FloorDiv(a.hi, b.hi)
		return ivRange(min(min(q1, q2), min(q3, q4)), max(max(q1, q2), max(q3, q4)))
	case expr.Mod:
		// math.Mod on integers matches Go's % (result takes the dividend's
		// sign, |result| < |divisor|); require a divisor interval that
		// excludes zero.
		if b.lo <= 0 && b.hi >= 0 {
			return ivBad()
		}
		m := max(abs64i(b.lo), abs64i(b.hi)) - 1
		lo := max(-m, min(a.lo, 0))
		hi := min(m, max(a.hi, 0))
		return ivRange(lo, hi)
	}
	// Div (true division), Pow: results are not integral in general.
	return ivBad()
}

func ivUn(op expr.UnOp, x iv) iv {
	if !x.ok {
		return ivBad()
	}
	switch op {
	case expr.Neg:
		return ivRange(-x.hi, -x.lo)
	case expr.Abs:
		lo := int64(0)
		if x.lo > 0 {
			lo = x.lo
		} else if x.hi < 0 {
			lo = -x.hi
		}
		return ivRange(lo, max(abs64i(x.lo), abs64i(x.hi)))
	case expr.Floor, expr.Ceil:
		// Identity on an already-integral interval.
		return x
	}
	// Sqrt, Exp, Log, Sin, Cos: not integral.
	return ivBad()
}

// ivCast applies the saturating cast semantics at the interval level. An
// integer cast of an unprovable operand still yields the full type range
// (the runtime saturates), but the stage loses int-VM eligibility — the
// operand must keep evaluating in float64.
func ivCast(to expr.Type, x iv, exact *bool) iv {
	var lo, hi int64
	switch to {
	case expr.Float, expr.Double:
		// Exact on |v| <= 2^24; a float cast of a float operand stays float.
		if !x.ok {
			*exact = false
			return ivBad()
		}
		return x
	case expr.Char:
		lo, hi = -128, 127
	case expr.UChar:
		lo, hi = 0, 255
	case expr.Short:
		lo, hi = -32768, 32767
	case expr.Int:
		// The runtime saturates to int32 bounds, which exceed the ±2^24
		// exactness cap — so the cast only narrows a provable operand (on
		// which the int32 clamp is then a no-op).
		if !x.ok {
			*exact = false
			return ivBad()
		}
		return x
	case expr.UInt:
		if !x.ok {
			*exact = false
			return ivBad()
		}
		return ivRange(clamp64(x.lo, 0, maxExact), clamp64(x.hi, 0, maxExact))
	default:
		*exact = false
		return ivBad()
	}
	if !x.ok {
		*exact = false
		return ivRange(lo, hi)
	}
	return ivRange(clamp64(x.lo, lo, hi), clamp64(x.hi, lo, hi))
}

func abs64i(a int64) int64 {
	if a < 0 {
		return -a
	}
	return a
}

func clamp64(v, lo, hi int64) int64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
