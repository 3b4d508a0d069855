package expr

// Simplify performs constant folding and algebraic identity cleanup on an
// expression tree. It is applied after inlining (which can produce trees
// like 0·x + e) and before kernel compilation.
func Simplify(e Expr) Expr {
	return Transform(e, simplifyNode)
}

// SimplifyCond simplifies the expressions inside a condition and folds
// constant comparisons and trivial conjunctions/disjunctions.
func SimplifyCond(c Cond) Cond {
	switch n := c.(type) {
	case Cmp:
		l := Simplify(n.L)
		r := Simplify(n.R)
		if lc, ok := l.(Const); ok {
			if rc, ok2 := r.(Const); ok2 {
				return BoolConst{V: evalCmpConst(n.Op, lc.V, rc.V)}
			}
		}
		return Cmp{Op: n.Op, L: l, R: r}
	case And:
		a := SimplifyCond(n.A)
		b := SimplifyCond(n.B)
		if bc, ok := a.(BoolConst); ok {
			if !bc.V {
				return BoolConst{V: false}
			}
			return b
		}
		if bc, ok := b.(BoolConst); ok {
			if !bc.V {
				return BoolConst{V: false}
			}
			return a
		}
		return And{A: a, B: b}
	case Or:
		a := SimplifyCond(n.A)
		b := SimplifyCond(n.B)
		if bc, ok := a.(BoolConst); ok {
			if bc.V {
				return BoolConst{V: true}
			}
			return b
		}
		if bc, ok := b.(BoolConst); ok {
			if bc.V {
				return BoolConst{V: true}
			}
			return a
		}
		return Or{A: a, B: b}
	case Not:
		a := SimplifyCond(n.A)
		if bc, ok := a.(BoolConst); ok {
			return BoolConst{V: !bc.V}
		}
		return Not{A: a}
	}
	return c
}

func evalCmpConst(op CmpOp, l, r float64) bool {
	switch op {
	case LT:
		return l < r
	case LE:
		return l <= r
	case GT:
		return l > r
	case GE:
		return l >= r
	case EQ:
		return l == r
	case NE:
		return l != r
	}
	return false
}

func simplifyNode(e Expr) Expr {
	switch n := e.(type) {
	case Binary:
		lc, lok := n.L.(Const)
		rc, rok := n.R.(Const)
		if lok && rok {
			return Const{V: evalBin(n.Op, lc.V, rc.V)}
		}
		switch n.Op {
		case Add:
			if lok && lc.V == 0 {
				return n.R
			}
			if rok && rc.V == 0 {
				return n.L
			}
		case Sub:
			if rok && rc.V == 0 {
				return n.L
			}
		case Mul:
			if lok && lc.V == 1 {
				return n.R
			}
			if rok && rc.V == 1 {
				return n.L
			}
			if (lok && lc.V == 0) || (rok && rc.V == 0) {
				return Const{V: 0}
			}
		case Div:
			if rok && rc.V == 1 {
				return n.L
			}
		case FDiv:
			if rok && rc.V == 1 {
				return n.L
			}
		}
		return n
	case Unary:
		if c, ok := n.X.(Const); ok {
			return Const{V: evalUn(n.Op, c.V)}
		}
		// --x == x
		if n.Op == Neg {
			if inner, ok := n.X.(Unary); ok && inner.Op == Neg {
				return inner.X
			}
		}
		return n
	case Select:
		cond := SimplifyCond(n.Cond)
		if bc, ok := cond.(BoolConst); ok {
			if bc.V {
				return n.Then
			}
			return n.Else
		}
		return Select{Cond: cond, Then: n.Then, Else: n.Else}
	case Cast:
		if c, ok := n.X.(Const); ok {
			return Const{V: ApplyCast(n.To, c.V)}
		}
		return n
	}
	return e
}

// FoldParams substitutes the bound parameters and folds constant subtrees
// in float64 arithmetic — the arithmetic the evaluators apply at run time —
// without Simplify's algebraic identities, which would change the operation
// sequence a kernel mirroring the evaluators must reproduce. Access index
// arguments are left untouched: the affine ones are integer forms, not
// float values, and the caller decides which are which.
func FoldParams(e Expr, params map[string]int64) Expr {
	switch n := e.(type) {
	case ParamRef:
		if v, ok := params[n.Name]; ok {
			return Const{V: float64(v)}
		}
	case Binary:
		l, r := FoldParams(n.L, params), FoldParams(n.R, params)
		lc, lok := l.(Const)
		rc, rok := r.(Const)
		if lok && rok {
			return Const{V: evalBin(n.Op, lc.V, rc.V)}
		}
		return Binary{Op: n.Op, L: l, R: r}
	case Unary:
		x := FoldParams(n.X, params)
		if c, ok := x.(Const); ok {
			return Const{V: evalUn(n.Op, c.V)}
		}
		return Unary{Op: n.Op, X: x}
	case Select:
		return Select{
			Cond: foldParamsCond(n.Cond, params),
			Then: FoldParams(n.Then, params),
			Else: FoldParams(n.Else, params),
		}
	case Cast:
		x := FoldParams(n.X, params)
		if c, ok := x.(Const); ok {
			return Const{V: ApplyCast(n.To, c.V)}
		}
		return Cast{To: n.To, X: x}
	}
	return e
}

func foldParamsCond(c Cond, params map[string]int64) Cond {
	switch n := c.(type) {
	case Cmp:
		return Cmp{Op: n.Op, L: FoldParams(n.L, params), R: FoldParams(n.R, params)}
	case And:
		return And{A: foldParamsCond(n.A, params), B: foldParamsCond(n.B, params)}
	case Or:
		return Or{A: foldParamsCond(n.A, params), B: foldParamsCond(n.B, params)}
	case Not:
		return Not{A: foldParamsCond(n.A, params)}
	}
	return c
}
