package expr

// Walk calls fn for every expression node in e (pre-order), descending into
// condition operands of Select nodes as well. If fn returns false the walk
// stops descending below that node.
func Walk(e Expr, fn func(Expr) bool) {
	if e == nil || !fn(e) {
		return
	}
	switch n := e.(type) {
	case Access:
		for _, a := range n.Args {
			Walk(a, fn)
		}
	case Binary:
		Walk(n.L, fn)
		Walk(n.R, fn)
	case Unary:
		Walk(n.X, fn)
	case Select:
		WalkCond(n.Cond, fn)
		Walk(n.Then, fn)
		Walk(n.Else, fn)
	case Cast:
		Walk(n.X, fn)
	}
}

// WalkCond walks every expression inside a condition tree.
func WalkCond(c Cond, fn func(Expr) bool) {
	switch n := c.(type) {
	case Cmp:
		Walk(n.L, fn)
		Walk(n.R, fn)
	case And:
		WalkCond(n.A, fn)
		WalkCond(n.B, fn)
	case Or:
		WalkCond(n.A, fn)
		WalkCond(n.B, fn)
	case Not:
		WalkCond(n.A, fn)
	}
}

// Size returns the number of nodes in the expression tree (conditions
// included). Used to cap inlining-driven expression growth.
func Size(e Expr) int {
	n := 0
	Walk(e, func(Expr) bool { n++; return true })
	return n
}

// Transform rewrites an expression bottom-up: children are transformed
// first, then fn is applied to the rebuilt node. fn returning nil keeps the
// rebuilt node.
func Transform(e Expr, fn func(Expr) Expr) Expr {
	var rebuilt Expr
	switch n := e.(type) {
	case Access:
		args := make([]Expr, len(n.Args))
		for i, a := range n.Args {
			args[i] = Transform(a, fn)
		}
		rebuilt = Access{Target: n.Target, Args: args}
	case Binary:
		rebuilt = Binary{Op: n.Op, L: Transform(n.L, fn), R: Transform(n.R, fn)}
	case Unary:
		rebuilt = Unary{Op: n.Op, X: Transform(n.X, fn)}
	case Select:
		rebuilt = Select{
			Cond: TransformCond(n.Cond, fn),
			Then: Transform(n.Then, fn),
			Else: Transform(n.Else, fn),
		}
	case Cast:
		rebuilt = Cast{To: n.To, X: Transform(n.X, fn)}
	default:
		rebuilt = e
	}
	if r := fn(rebuilt); r != nil {
		return r
	}
	return rebuilt
}

// TransformCond rewrites the expressions inside a condition tree.
func TransformCond(c Cond, fn func(Expr) Expr) Cond {
	switch n := c.(type) {
	case Cmp:
		return Cmp{Op: n.Op, L: Transform(n.L, fn), R: Transform(n.R, fn)}
	case And:
		return And{A: TransformCond(n.A, fn), B: TransformCond(n.B, fn)}
	case Or:
		return Or{A: TransformCond(n.A, fn), B: TransformCond(n.B, fn)}
	case Not:
		return Not{A: TransformCond(n.A, fn)}
	}
	return c
}

// SubstVars replaces each VarRef with the corresponding expression from
// subs (indexed by VarRef.Dim). Dims beyond len(subs) are left untouched.
// Used by the inliner to substitute a producer's definition into a consumer.
func SubstVars(e Expr, subs []Expr) Expr {
	return Transform(e, func(x Expr) Expr {
		if v, ok := x.(VarRef); ok && v.Dim >= 0 && v.Dim < len(subs) && subs[v.Dim] != nil {
			return subs[v.Dim]
		}
		return nil
	})
}
