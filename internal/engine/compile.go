package engine

import (
	"fmt"
	"math"

	"repro/internal/affine"
	"repro/internal/expr"
	"repro/internal/numeric"
)

// Ctx is the per-worker evaluation context: the current point and the
// buffer bound to each target slot (full buffers for live-outs and inputs,
// the worker's scratchpads for in-tile intermediates).
type Ctx struct {
	pt   []int64
	bufs []*Buffer
}

// growI64 returns s resized to n elements, reallocating only on growth.
func growI64(s []int64, n int) []int64 {
	if cap(s) < n {
		return make([]int64, n)
	}
	return s[:n]
}

type evalFn func(c *Ctx) float64
type idxFn func(c *Ctx) int64
type condFn func(c *Ctx) bool

// compiler compiles expressions against a slot table mapping target names
// to buffer slots. Parameters are bound at compile time.
type compiler struct {
	slots  map[string]int
	params map[string]int64
	debug  bool
	// elems is the storage element type per slot (nil or all-ElemF32 unless
	// the program narrowed some slots); access compilation specializes the
	// load path on it.
	elems []Elem
}

// elemOf returns the storage element type of a slot.
func (cp *compiler) elemOf(slot int) Elem {
	if cp.elems == nil || slot < 0 || slot >= len(cp.elems) {
		return ElemF32
	}
	return cp.elems[slot]
}

// readsNarrow reports whether any access in e targets a narrow-typed slot.
func (cp *compiler) readsNarrow(e expr.Expr) bool {
	found := false
	expr.Walk(e, func(x expr.Expr) bool {
		if a, ok := x.(expr.Access); ok {
			if slot, ok := cp.slots[a.Target]; ok && cp.elemOf(slot) != ElemF32 {
				found = true
			}
		}
		return !found
	})
	return found
}

func (cp *compiler) compile(e expr.Expr) (evalFn, error) {
	switch n := e.(type) {
	case expr.Const:
		v := n.V
		return func(*Ctx) float64 { return v }, nil
	case expr.ParamRef:
		pv, ok := cp.params[n.Name]
		if !ok {
			return nil, fmt.Errorf("engine: %w %q", affine.ErrUnboundParam, n.Name)
		}
		v := float64(pv)
		return func(*Ctx) float64 { return v }, nil
	case expr.VarRef:
		d := n.Dim
		if d < 0 {
			return nil, fmt.Errorf("engine: unresolved variable %q", n.Name)
		}
		return func(c *Ctx) float64 { return float64(c.pt[d]) }, nil
	case expr.Access:
		return cp.compileAccess(n)
	case expr.Binary:
		l, err := cp.compile(n.L)
		if err != nil {
			return nil, err
		}
		r, err := cp.compile(n.R)
		if err != nil {
			return nil, err
		}
		switch n.Op {
		case expr.Add:
			return func(c *Ctx) float64 { return l(c) + r(c) }, nil
		case expr.Sub:
			return func(c *Ctx) float64 { return l(c) - r(c) }, nil
		case expr.Mul:
			return func(c *Ctx) float64 { return l(c) * r(c) }, nil
		case expr.Div:
			return func(c *Ctx) float64 { return l(c) / r(c) }, nil
		case expr.Mod:
			return func(c *Ctx) float64 { return math.Mod(l(c), r(c)) }, nil
		case expr.Min:
			return func(c *Ctx) float64 { return math.Min(l(c), r(c)) }, nil
		case expr.Max:
			return func(c *Ctx) float64 { return math.Max(l(c), r(c)) }, nil
		case expr.Pow:
			return func(c *Ctx) float64 { return math.Pow(l(c), r(c)) }, nil
		case expr.FDiv:
			return func(c *Ctx) float64 { return math.Floor(l(c) / r(c)) }, nil
		}
		return nil, fmt.Errorf("engine: unknown binary op %d", n.Op)
	case expr.Unary:
		x, err := cp.compile(n.X)
		if err != nil {
			return nil, err
		}
		switch n.Op {
		case expr.Neg:
			return func(c *Ctx) float64 { return -x(c) }, nil
		case expr.Abs:
			return func(c *Ctx) float64 { return math.Abs(x(c)) }, nil
		case expr.Sqrt:
			return func(c *Ctx) float64 { return math.Sqrt(x(c)) }, nil
		case expr.Exp:
			return func(c *Ctx) float64 { return numeric.Exp(x(c)) }, nil
		case expr.Log:
			return func(c *Ctx) float64 { return math.Log(x(c)) }, nil
		case expr.Sin:
			return func(c *Ctx) float64 { return math.Sin(x(c)) }, nil
		case expr.Cos:
			return func(c *Ctx) float64 { return math.Cos(x(c)) }, nil
		case expr.Floor:
			return func(c *Ctx) float64 { return math.Floor(x(c)) }, nil
		case expr.Ceil:
			return func(c *Ctx) float64 { return math.Ceil(x(c)) }, nil
		}
		return nil, fmt.Errorf("engine: unknown unary op %d", n.Op)
	case expr.Select:
		cond, err := cp.compileCond(n.Cond)
		if err != nil {
			return nil, err
		}
		th, err := cp.compile(n.Then)
		if err != nil {
			return nil, err
		}
		el, err := cp.compile(n.Else)
		if err != nil {
			return nil, err
		}
		return func(c *Ctx) float64 {
			if cond(c) {
				return th(c)
			}
			return el(c)
		}, nil
	case expr.Cast:
		x, err := cp.compile(n.X)
		if err != nil {
			return nil, err
		}
		to := n.To
		return func(c *Ctx) float64 { return expr.ApplyCast(to, x(c)) }, nil
	}
	return nil, fmt.Errorf("engine: unknown expression %T", e)
}

// compileIdx compiles an index expression; quasi-affine forms get direct
// integer closures, everything else evaluates as float and truncates
// (matching the reference evaluator's int64 conversion).
func (cp *compiler) compileIdx(e expr.Expr) (idxFn, error) {
	if aff, ok := expr.ToAffineAccess(e); ok {
		off, err := aff.Off.Eval(cp.params)
		if err != nil {
			return nil, err
		}
		v, coeff, div := aff.Var, aff.Coeff, aff.Div
		switch {
		case v < 0:
			k := affine.FloorDiv(off, div)
			return func(*Ctx) int64 { return k }, nil
		case coeff == 1 && div == 1:
			return func(c *Ctx) int64 { return c.pt[v] + off }, nil
		case div == 1:
			return func(c *Ctx) int64 { return coeff*c.pt[v] + off }, nil
		default:
			return func(c *Ctx) int64 { return affine.FloorDiv(coeff*c.pt[v]+off, div) }, nil
		}
	}
	f, err := cp.compile(e)
	if err != nil {
		return nil, err
	}
	return func(c *Ctx) int64 { return int64(f(c)) }, nil
}

func (cp *compiler) compileAccess(a expr.Access) (evalFn, error) {
	slot, ok := cp.slots[a.Target]
	if !ok {
		return nil, fmt.Errorf("engine: no buffer slot for target %q", a.Target)
	}
	idx := make([]idxFn, len(a.Args))
	for i, arg := range a.Args {
		f, err := cp.compileIdx(arg)
		if err != nil {
			return nil, err
		}
		idx[i] = f
	}
	if cp.debug {
		target := a.Target
		return func(c *Ctx) float64 {
			b := c.bufs[slot]
			var off int64
			for d, f := range idx {
				x := f(c)
				if x < b.Box[d].Lo || x > b.Box[d].Hi {
					panicOutOfRegion(target, d, x, b, c.pt)
				}
				off += (x - b.Box[d].Lo) * b.Stride[d]
			}
			return b.LoadF64(off)
		}, nil
	}
	if cp.elemOf(slot) != ElemF32 {
		// Narrow slot: widen through the element-typed load (exact for
		// every integer element type).
		return func(c *Ctx) float64 {
			b := c.bufs[slot]
			var off int64
			for d, f := range idx {
				off += (f(c) - b.Box[d].Lo) * b.Stride[d]
			}
			return b.LoadF64(off)
		}, nil
	}
	switch len(idx) {
	case 1:
		i0 := idx[0]
		return func(c *Ctx) float64 {
			b := c.bufs[slot]
			return float64(b.Data[(i0(c)-b.Box[0].Lo)*b.Stride[0]])
		}, nil
	case 2:
		i0, i1 := idx[0], idx[1]
		return func(c *Ctx) float64 {
			b := c.bufs[slot]
			return float64(b.Data[(i0(c)-b.Box[0].Lo)*b.Stride[0]+(i1(c)-b.Box[1].Lo)])
		}, nil
	case 3:
		i0, i1, i2 := idx[0], idx[1], idx[2]
		return func(c *Ctx) float64 {
			b := c.bufs[slot]
			return float64(b.Data[(i0(c)-b.Box[0].Lo)*b.Stride[0]+
				(i1(c)-b.Box[1].Lo)*b.Stride[1]+(i2(c)-b.Box[2].Lo)])
		}, nil
	default:
		return func(c *Ctx) float64 {
			b := c.bufs[slot]
			var off int64
			for d, f := range idx {
				off += (f(c) - b.Box[d].Lo) * b.Stride[d]
			}
			return float64(b.Data[off])
		}, nil
	}
}

// panicOutOfRegion is Debug's per-dimension access check failing: index x
// of dimension d lies outside the buffer bound to target.
func panicOutOfRegion(target string, d int, x int64, b *Buffer, pt []int64) {
	panic(fmt.Sprintf("engine: out-of-region read of %s dim %d at %d (region %v, point %v)",
		target, d, x, b.Box, pt))
}

func (cp *compiler) compileCond(c expr.Cond) (condFn, error) {
	switch n := c.(type) {
	case expr.BoolConst:
		v := n.V
		return func(*Ctx) bool { return v }, nil
	case expr.Cmp:
		l, err := cp.compile(n.L)
		if err != nil {
			return nil, err
		}
		r, err := cp.compile(n.R)
		if err != nil {
			return nil, err
		}
		switch n.Op {
		case expr.LT:
			return func(c *Ctx) bool { return l(c) < r(c) }, nil
		case expr.LE:
			return func(c *Ctx) bool { return l(c) <= r(c) }, nil
		case expr.GT:
			return func(c *Ctx) bool { return l(c) > r(c) }, nil
		case expr.GE:
			return func(c *Ctx) bool { return l(c) >= r(c) }, nil
		case expr.EQ:
			return func(c *Ctx) bool { return l(c) == r(c) }, nil
		case expr.NE:
			return func(c *Ctx) bool { return l(c) != r(c) }, nil
		}
		return nil, fmt.Errorf("engine: unknown comparison %d", n.Op)
	case expr.And:
		a, err := cp.compileCond(n.A)
		if err != nil {
			return nil, err
		}
		b, err := cp.compileCond(n.B)
		if err != nil {
			return nil, err
		}
		return func(c *Ctx) bool { return a(c) && b(c) }, nil
	case expr.Or:
		a, err := cp.compileCond(n.A)
		if err != nil {
			return nil, err
		}
		b, err := cp.compileCond(n.B)
		if err != nil {
			return nil, err
		}
		return func(c *Ctx) bool { return a(c) || b(c) }, nil
	case expr.Not:
		a, err := cp.compileCond(n.A)
		if err != nil {
			return nil, err
		}
		return func(c *Ctx) bool { return !a(c) }, nil
	}
	return nil, fmt.Errorf("engine: unknown condition %T", c)
}
