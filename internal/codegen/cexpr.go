package codegen

import (
	"fmt"
	"strings"

	"repro/internal/expr"
	"repro/internal/schedule"
)

// expr renders a scalar expression as C. Accesses to in-group intermediates
// index the scratchpads tile-relatively; everything else indexes the flat
// full arrays.
func (e *emitter) expr(x expr.Expr, grp *schedule.Group, tp *schedule.TilePlan) string {
	switch n := x.(type) {
	case expr.Const:
		s := fmt.Sprintf("%g", n.V)
		if !strings.ContainsAny(s, ".e") {
			s += ".0f"
		} else {
			s += "f"
		}
		return s
	case expr.ParamRef:
		return n.Name
	case expr.VarRef:
		if n.Name != "" {
			return n.Name
		}
		return fmt.Sprintf("x%d", n.Dim)
	case expr.Access:
		idx := make([]string, len(n.Args))
		for i, a := range n.Args {
			idx[i] = e.iexpr(a, grp, tp)
		}
		if grp != nil && tp != nil && !e.isGroupLiveOut(tp, n.Target) && e.isMember(grp, n.Target) {
			return scratchName(n.Target) + e.scratchIndexExprs(n.Target, idx, grp, tp)
		}
		return fmt.Sprintf("%s[%s]", n.Target, e.flatIndex(n.Target, idx))
	case expr.Binary:
		l := e.expr(n.L, grp, tp)
		r := e.expr(n.R, grp, tp)
		switch n.Op {
		case expr.Add:
			return fmt.Sprintf("(%s + %s)", l, r)
		case expr.Sub:
			return fmt.Sprintf("(%s - %s)", l, r)
		case expr.Mul:
			return fmt.Sprintf("(%s * %s)", l, r)
		case expr.Div:
			return fmt.Sprintf("(%s / %s)", l, r)
		case expr.Mod:
			return fmt.Sprintf("fmodf(%s, %s)", l, r)
		case expr.Min:
			return fmt.Sprintf("std::min(%s, %s)", l, r)
		case expr.Max:
			return fmt.Sprintf("std::max(%s, %s)", l, r)
		case expr.Pow:
			return fmt.Sprintf("powf(%s, %s)", l, r)
		case expr.FDiv:
			return fmt.Sprintf("floorf(%s / %s)", l, r)
		}
	case expr.Unary:
		a := e.expr(n.X, grp, tp)
		switch n.Op {
		case expr.Neg:
			return fmt.Sprintf("(-%s)", a)
		case expr.Abs:
			return fmt.Sprintf("fabsf(%s)", a)
		case expr.Sqrt:
			return fmt.Sprintf("sqrtf(%s)", a)
		case expr.Exp:
			return fmt.Sprintf("expf(%s)", a)
		case expr.Log:
			return fmt.Sprintf("logf(%s)", a)
		case expr.Sin:
			return fmt.Sprintf("sinf(%s)", a)
		case expr.Cos:
			return fmt.Sprintf("cosf(%s)", a)
		case expr.Floor:
			return fmt.Sprintf("floorf(%s)", a)
		case expr.Ceil:
			return fmt.Sprintf("ceilf(%s)", a)
		}
	case expr.Select:
		return fmt.Sprintf("(%s ? %s : %s)", e.cond(n.Cond, grp, tp),
			e.expr(n.Then, grp, tp), e.expr(n.Else, grp, tp))
	case expr.Cast:
		return fmt.Sprintf("(%s)(%s)", n.To, e.expr(n.X, grp, tp))
	}
	return "/*?*/0"
}

// iexpr renders an index expression with integer literals and floor
// division (the generated code's loop indices and array subscripts; mirrored
// and boundary accesses reach negative numerators, where C's `/` truncates
// toward zero).
func (e *emitter) iexpr(x expr.Expr, grp *schedule.Group, tp *schedule.TilePlan) string {
	switch n := x.(type) {
	case expr.Const:
		if n.V == float64(int64(n.V)) {
			return fmt.Sprintf("%d", int64(n.V))
		}
	case expr.Binary:
		l := e.iexpr(n.L, grp, tp)
		r := e.iexpr(n.R, grp, tp)
		switch n.Op {
		case expr.Add:
			if rc, ok := n.R.(expr.Const); ok && rc.V < 0 && rc.V == float64(int64(rc.V)) {
				return fmt.Sprintf("(%s - %d)", l, -int64(rc.V))
			}
			return fmt.Sprintf("(%s + %s)", l, r)
		case expr.Sub:
			return fmt.Sprintf("(%s - %s)", l, r)
		case expr.Mul:
			return fmt.Sprintf("(%s * %s)", l, r)
		case expr.FDiv:
			e.floorDiv = true
			return fmt.Sprintf("floord(%s, %s)", l, r)
		case expr.Min:
			return fmt.Sprintf("std::min(%s, %s)", l, r)
		case expr.Max:
			return fmt.Sprintf("std::max(%s, %s)", l, r)
		}
	case expr.Cast:
		if n.To == expr.Int {
			return fmt.Sprintf("(int)(%s)", e.expr(n.X, grp, tp))
		}
	}
	return e.expr(x, grp, tp)
}

func (e *emitter) cond(c expr.Cond, grp *schedule.Group, tp *schedule.TilePlan) string {
	switch n := c.(type) {
	case expr.BoolConst:
		if n.V {
			return "true"
		}
		return "false"
	case expr.Cmp:
		ops := map[expr.CmpOp]string{
			expr.LT: "<", expr.LE: "<=", expr.GT: ">",
			expr.GE: ">=", expr.EQ: "==", expr.NE: "!=",
		}
		return fmt.Sprintf("(%s %s %s)", e.expr(n.L, grp, tp), ops[n.Op], e.expr(n.R, grp, tp))
	case expr.And:
		return fmt.Sprintf("(%s && %s)", e.cond(n.A, grp, tp), e.cond(n.B, grp, tp))
	case expr.Or:
		return fmt.Sprintf("(%s || %s)", e.cond(n.A, grp, tp), e.cond(n.B, grp, tp))
	case expr.Not:
		return fmt.Sprintf("(!%s)", e.cond(n.A, grp, tp))
	}
	return "true"
}

func (e *emitter) isMember(grp *schedule.Group, name string) bool {
	for _, m := range grp.Members {
		if m == name {
			return true
		}
	}
	return false
}

func (e *emitter) isGroupLiveOut(tp *schedule.TilePlan, name string) bool {
	for _, lo := range tp.LiveOuts {
		if lo == name {
			return true
		}
	}
	return false
}

// scratchIndexExprs is scratchIndex for arbitrary index expressions.
func (e *emitter) scratchIndexExprs(m string, idx []string, grp *schedule.Group, tp *schedule.TilePlan) string {
	scales := grp.Scales[m]
	var b strings.Builder
	for d, ix := range idx {
		ds := scales[d]
		if ds.AnchorDim < 0 || tp.TileSizes[ds.AnchorDim] == 0 {
			fmt.Fprintf(&b, "[%s]", ix)
			continue
		}
		base := scaleTerm(ds.Scale, fmt.Sprintf("T%d * %d", ds.AnchorDim, tp.TileSizes[ds.AnchorDim]), -int64(tp.TileSizes[ds.AnchorDim]))
		fmt.Fprintf(&b, "[%s - (%s)]", ix, base)
	}
	return b.String()
}
