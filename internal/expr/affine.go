package expr

import (
	"math"

	"repro/internal/affine"
)

// maxTerms is the most variables a linear form holds at once. An index
// ranges over the variables of one stage's domain, so every index of a stage
// of rank up to maxTerms is analysed exactly; a form that would need more
// terms is reported as not quasi-affine.
const maxTerms = 8

// term is coeff·x_dim.
type term struct {
	dim   int
	coeff int64
}

// linForm is an intermediate linear form (Σ coeff_v·x_v + off) / div with
// integer variable coefficients and an affine-in-parameters offset. Its
// terms are the first n of the array, with distinct dimensions and non-zero
// coefficients, so building one allocates nothing.
type linForm struct {
	terms [maxTerms]term
	n     int
	off   affine.Expr
	div   int64
}

func constForm(c int64) linForm { return linForm{off: affine.Const(c), div: 1} }

// ToAffineAccess analyzes an index expression and, when it has the
// quasi-affine single-variable form (a·x + b)/d with b affine in the
// parameters, returns the corresponding affine.Access. The boolean result is
// false for data-dependent or multi-variable indices (e.g. the histogram
// pattern hist(I(x,y))), which the optimizer treats as non-affine.
func ToAffineAccess(e Expr) (affine.Access, bool) {
	lf, ok := toLinForm(e)
	if !ok {
		return affine.Access{}, false
	}
	switch lf.n {
	case 0:
		return affine.Access{Var: -1, Coeff: 0, Off: lf.off, Div: lf.div}, true
	case 1:
		return affine.Access{Var: lf.terms[0].dim, Coeff: lf.terms[0].coeff, Off: lf.off, Div: lf.div}, true
	}
	return affine.Access{}, false
}

func toLinForm(e Expr) (linForm, bool) {
	switch n := e.(type) {
	case Const:
		if n.V != math.Trunc(n.V) {
			return linForm{}, false
		}
		return constForm(int64(n.V)), true
	case ParamRef:
		return linForm{off: affine.Param(n.Name), div: 1}, true
	case VarRef:
		lf := linForm{n: 1, div: 1}
		lf.terms[0] = term{n.Dim, 1}
		return lf, true
	case Unary:
		if n.Op != Neg {
			return linForm{}, false
		}
		lf, ok := toLinForm(n.X)
		if !ok {
			return linForm{}, false
		}
		return lf.scale(-1)
	case Cast:
		// Integer casts of an already-integral linear form are identities.
		return toLinForm(n.X)
	case Binary:
		switch n.Op {
		case Add, Sub:
			l, ok := toLinForm(n.L)
			if !ok {
				return linForm{}, false
			}
			r, ok := toLinForm(n.R)
			if !ok {
				return linForm{}, false
			}
			if n.Op == Sub {
				r, ok = r.scale(-1)
				if !ok {
					return linForm{}, false
				}
			}
			return l.add(r)
		case Mul:
			l, lok := toLinForm(n.L)
			r, rok := toLinForm(n.R)
			if !lok || !rok {
				return linForm{}, false
			}
			if c, ok := l.constVal(); ok {
				return r.scale(c)
			}
			if c, ok := r.constVal(); ok {
				return l.scale(c)
			}
			return linForm{}, false
		case Div, FDiv:
			l, ok := toLinForm(n.L)
			if !ok {
				return linForm{}, false
			}
			r, rok := toLinForm(n.R)
			if !rok {
				return linForm{}, false
			}
			c, ok := r.constVal()
			if !ok || c <= 0 {
				return linForm{}, false
			}
			// Nested floor divisions by positive constants compose:
			// floor(floor(v/a)/b) == floor(v/(a*b)).
			l.div *= c
			return l, true
		}
	}
	return linForm{}, false
}

func (l linForm) constVal() (int64, bool) {
	if l.n != 0 {
		return 0, false
	}
	c, ok := l.off.ConstVal()
	if !ok {
		return 0, false
	}
	if l.div != 1 {
		return affine.FloorDiv(c, l.div), true
	}
	return c, true
}

func (l linForm) scale(k int64) (linForm, bool) {
	if l.div != 1 && k != 1 {
		// k·floor(v/d) is not representable as floor(k·v/d) in general.
		if k == 0 {
			return constForm(0), true
		}
		return linForm{}, false
	}
	r := linForm{off: l.off.Scale(k), div: l.div}
	for _, t := range l.terms[:l.n] {
		r.addTerm(t.dim, t.coeff*k) // l's dimensions are distinct: they fit
	}
	return r, true
}

func (l linForm) add(o linForm) (linForm, bool) {
	// Adding an integer (affine) term k to floor(v/d) is exact when done as
	// floor((v + k·d)/d). Adding two genuinely divided forms is not.
	if l.div != 1 && o.div != 1 {
		return linForm{}, false
	}
	if o.div != 1 {
		l, o = o, l
	}
	// Now o.div == 1; fold o into l's numerator.
	if l.div != 1 && o.n > 0 {
		// (v/d) + x is not a single quasi-affine form.
		return linForm{}, false
	}
	r := l
	r.off = l.off.Add(o.off.Scale(l.div))
	for _, t := range o.terms[:o.n] {
		if !r.addTerm(t.dim, t.coeff*l.div) {
			return linForm{}, false
		}
	}
	return r, true
}

// addTerm adds c·x_dim to the form, dropping the term when it cancels. It
// reports false when the form has no room for another variable.
func (l *linForm) addTerm(dim int, c int64) bool {
	for i := range l.terms[:l.n] {
		if l.terms[i].dim == dim {
			if l.terms[i].coeff += c; l.terms[i].coeff == 0 {
				l.n--
				l.terms[i] = l.terms[l.n]
			}
			return true
		}
	}
	switch {
	case c == 0:
		return true
	case l.n == maxTerms:
		return false
	}
	l.terms[l.n] = term{dim, c}
	l.n++
	return true
}

// CondToBox attempts to turn a condition into per-dimension bounds over the
// given number of dimensions: a conjunction of affine comparisons each
// involving at most one variable. On success it returns, for each dimension,
// optional tightened lower/upper bounds (nil when unconstrained). This
// implements the branch-elimination domain splitting of Section 3.7: cases
// with box conditions are lowered to sub-box loops with no inner-loop
// branches. Conditions outside this fragment (disjunctions, multi-variable
// or data-dependent comparisons) return ok == false and are evaluated
// per-point instead.
func CondToBox(c Cond, ndims int) (lower, upper []*affine.Expr, ok bool) {
	lower = make([]*affine.Expr, ndims)
	upper = make([]*affine.Expr, ndims)
	if !condToBoxRec(c, lower, upper) {
		return nil, nil, false
	}
	return lower, upper, true
}

// CondToBoxPartial extracts per-dimension bounds from the box-convertible
// top-level conjuncts of a condition, ignoring conjuncts outside the box
// fragment (disjunctions, negations, data-dependent comparisons). The
// result is a sound over-approximation of the condition's region: every
// point satisfying the condition satisfies the returned bounds. Used by the
// bounds checker to tighten case domains even for partially-box conditions
// such as t > 0 && !interior.
func CondToBoxPartial(c Cond, ndims int) (lower, upper []*affine.Expr) {
	lower = make([]*affine.Expr, ndims)
	upper = make([]*affine.Expr, ndims)
	var walk func(Cond)
	walk = func(c Cond) {
		switch n := c.(type) {
		case And:
			walk(n.A)
			walk(n.B)
		case Cmp:
			// Best effort; failures leave the dimension unconstrained.
			cmpToBound(n, lower, upper)
		}
	}
	walk(c)
	return lower, upper
}

func condToBoxRec(c Cond, lower, upper []*affine.Expr) bool {
	switch n := c.(type) {
	case BoolConst:
		return n.V // "false" conditions are not representable as a box
	case And:
		return condToBoxRec(n.A, lower, upper) && condToBoxRec(n.B, lower, upper)
	case Cmp:
		return cmpToBound(n, lower, upper)
	}
	return false
}

func cmpToBound(c Cmp, lower, upper []*affine.Expr) bool {
	l, lok := toLinForm(c.L)
	r, rok := toLinForm(c.R)
	if !lok || !rok || l.div != 1 || r.div != 1 {
		return false
	}
	// Move everything to the left: lhs  op  0 with lhs = l - r.
	neg, _ := r.scale(-1)
	lhs, ok := l.add(neg)
	if !ok {
		return false
	}
	if lhs.n > 1 {
		return false
	}
	if lhs.n == 0 {
		return false // parameter-only comparisons are not box constraints
	}
	v, a := lhs.terms[0].dim, lhs.terms[0].coeff
	if v >= len(lower) {
		return false
	}
	b := lhs.off // a·x + b  op  0
	switch c.Op {
	case GE: // a·x + b >= 0
	case LE: // a·x + b <= 0  ⇒  -a·x - b >= 0
		a, b = -a, b.Neg()
	case GT: // a·x + b > 0  ⇒  a·x + b - 1 >= 0
		b = b.AddConst(-1)
	case LT:
		a, b = -a, b.Neg()
		b = b.AddConst(-1)
	case EQ:
		// x == e sets both bounds.
		if a != 1 && a != -1 {
			return false
		}
		bound := b.Neg()
		if a == -1 {
			bound = b
		}
		return setBound(&lower[v], bound, true) && setBound(&upper[v], bound, false)
	default:
		return false
	}
	// Now a·x + b >= 0.
	switch {
	case a == 1: // x >= -b
		return setBound(&lower[v], b.Neg(), true)
	case a == -1: // x <= b
		return setBound(&upper[v], b, false)
	default:
		return false // non-unit coefficients (e.g. 2x >= R) are rare; punt
	}
}

// setBound tightens an optional bound, returning false when two bounds on
// the same side cannot be compared symbolically (so the caller falls back to
// per-point predicate evaluation rather than risk an unsound box).
func setBound(slot **affine.Expr, e affine.Expr, isLower bool) bool {
	if *slot == nil {
		c := e
		*slot = &c
		return true
	}
	old := **slot
	if old.Equal(e) {
		return true
	}
	// diff = e - old; provably-signed differences pick the tighter bound.
	diff := e.Sub(old)
	if c, ok := diff.ConstVal(); ok {
		if (isLower && c > 0) || (!isLower && c < 0) {
			cp := e
			*slot = &cp
		}
		return true
	}
	return false
}
