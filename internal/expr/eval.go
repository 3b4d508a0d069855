package expr

import (
	"fmt"
	"math"

	"repro/internal/numeric"
)

// Env supplies bindings for evaluating an expression at one point of a
// function's domain. Lookup resolves accesses to other stages or input
// images; it is invoked with the target name and concrete index values.
type Env struct {
	Point  []int64
	Params map[string]int64
	Lookup func(target string, idx []int64) float64
}

// Eval evaluates the expression tree under env. This reference evaluator is
// used by tests, the naive executor and the bounds checker; the execution
// engine compiles expressions to closures instead (internal/engine).
func Eval(e Expr, env *Env) float64 {
	switch n := e.(type) {
	case Const:
		return n.V
	case ParamRef:
		v, ok := env.Params[n.Name]
		if !ok {
			// Internal invariant, not a user-reachable failure: every entry
			// point that evaluates expressions (engine.Compile,
			// engine.Reference) validates the full parameter set up front and
			// returns ErrUnboundParam, so an unbound parameter here means a
			// caller skipped that validation.
			panic(fmt.Sprintf("expr: unbound parameter %q", n.Name))
		}
		return float64(v)
	case VarRef:
		return float64(env.Point[n.Dim])
	case Access:
		idx := make([]int64, len(n.Args))
		for i, a := range n.Args {
			idx[i] = int64(Eval(a, env))
		}
		return env.Lookup(n.Target, idx)
	case Binary:
		l := Eval(n.L, env)
		r := Eval(n.R, env)
		return evalBin(n.Op, l, r)
	case Unary:
		return evalUn(n.Op, Eval(n.X, env))
	case Select:
		if EvalCond(n.Cond, env) {
			return Eval(n.Then, env)
		}
		return Eval(n.Else, env)
	case Cast:
		return ApplyCast(n.To, Eval(n.X, env))
	}
	panic(fmt.Sprintf("expr: unknown node %T", e))
}

func evalBin(op BinOp, l, r float64) float64 {
	switch op {
	case Add:
		return l + r
	case Sub:
		return l - r
	case Mul:
		return l * r
	case Div:
		return l / r
	case Mod:
		return math.Mod(l, r)
	case Min:
		return math.Min(l, r)
	case Max:
		return math.Max(l, r)
	case Pow:
		return math.Pow(l, r)
	case FDiv:
		return math.Floor(l / r)
	}
	panic("expr: unknown binary op")
}

func evalUn(op UnOp, x float64) float64 {
	switch op {
	case Neg:
		return -x
	case Abs:
		return math.Abs(x)
	case Sqrt:
		return math.Sqrt(x)
	case Exp:
		return numeric.Exp(x)
	case Log:
		return math.Log(x)
	case Sin:
		return math.Sin(x)
	case Cos:
		return math.Cos(x)
	case Floor:
		return math.Floor(x)
	case Ceil:
		return math.Ceil(x)
	}
	panic("expr: unknown unary op")
}

// ApplyCast applies the value semantics of a cast to type t. Integer casts
// saturate (NaN→0, out-of-range clamps to the type's bounds, in-range
// truncates toward zero) via internal/numeric, so every evaluator tier —
// this reference evaluator, the engine's closures and row VM, and the
// generated kernels — agrees bit-for-bit on edge inputs that Go's native
// conversions leave implementation-defined.
func ApplyCast(t Type, v float64) float64 {
	switch t {
	case Float:
		return float64(float32(v))
	case Double:
		return v
	case Int:
		return float64(numeric.SatI32(v))
	case UInt:
		return float64(numeric.SatU32(v))
	case Char:
		return float64(numeric.SatI8(v))
	case UChar:
		return float64(numeric.SatU8(v))
	case Short:
		return float64(numeric.SatI16(v))
	}
	return v
}

// EvalCond evaluates a boolean condition under env.
func EvalCond(c Cond, env *Env) bool {
	switch n := c.(type) {
	case BoolConst:
		return n.V
	case Cmp:
		l := Eval(n.L, env)
		r := Eval(n.R, env)
		switch n.Op {
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
	case And:
		return EvalCond(n.A, env) && EvalCond(n.B, env)
	case Or:
		return EvalCond(n.A, env) || EvalCond(n.B, env)
	case Not:
		return !EvalCond(n.A, env)
	}
	panic(fmt.Sprintf("expr: unknown condition %T", c))
}
