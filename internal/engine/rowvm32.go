package engine

import (
	"math"

	"repro/internal/expr"
)

// The float32 instruction set and the engine's one accumulation-width
// policy: a program qualifies for single-precision execution only when
// every instruction is in the numerically tame subset (loads, +, -, *,
// /constant, min/max/clamp, neg/abs/sqrt, the fused forms) AND a
// conservative magnitude ("mass") analysis bounds the result by 4. A
// float32 sum of n terms carries a relative error of about n·2⁻²⁴ scaled by
// that mass, so normalized blurs, differences and interpolations run in
// float32 well inside the engine's 1e-5 verification tolerance, while
// unnormalized sums keep float64 accumulation. Generated kernels print
// the same program, so they inherit the split. Anything
// data-dependent in control flow (select/compare), transcendental (other
// than sqrt), integer-semantics (mod, fdiv, int casts) or of unbounded
// magnitude (iota, reg-reg division) disqualifies the program; those run
// over float64 registers and only the final store narrows.

// vmFloat32OK decides whether a linearized program may execute over float32
// registers.
func vmFloat32OK(vals []vmValue, res int) bool {
	mass := make([]float64, len(vals))
	for i, v := range vals {
		ma, mb, mm := 0.0, 0.0, 0.0
		if v.a >= 0 {
			ma = mass[v.a]
		}
		if v.b >= 0 {
			mb = mass[v.b]
		}
		if v.m >= 0 {
			mm = mass[v.m]
		}
		switch v.op {
		case rConst:
			mass[i] = math.Abs(v.imm)
		case rLoadU, rLoadS, rLoadDiv, rLoadB:
			mass[i] = 1
		case rLoadMulI:
			mass[i] = math.Abs(v.imm)
		case rMadLoad:
			mass[i] = ma + math.Abs(v.imm)
		case rAdd, rSub:
			mass[i] = ma + mb
		case rMul:
			mass[i] = ma * mb
		case rAddI, rISub:
			mass[i] = ma + math.Abs(v.imm)
		case rMulI:
			mass[i] = ma * math.Abs(v.imm)
		case rDivI:
			// Division by a constant of magnitude >= 1 cannot grow the
			// value; dividing by a tiny constant can overflow float32.
			if math.Abs(v.imm) < 1 {
				return false
			}
			mass[i] = ma
		case rMin, rMax:
			mass[i] = math.Max(ma, mb)
		case rMinI, rMaxI:
			mass[i] = math.Max(ma, math.Abs(v.imm))
		case rClampI:
			mass[i] = math.Max(ma, math.Max(math.Abs(v.imm), math.Abs(v.imm2)))
		case rNeg, rAbs:
			mass[i] = ma
		case rSqrt:
			mass[i] = math.Max(ma, 1)
		case rMulAdd:
			mass[i] = float64(ma*mb) + mm
		case rAxpy:
			mass[i] = float64(math.Abs(v.imm)*ma) + mb
		case rCast:
			// Cast to Float is the identity in float32 registers; every
			// other cast has integer semantics.
			if expr.Type(v.aux) != expr.Float {
				return false
			}
			mass[i] = ma
		default:
			return false
		}
		if math.IsNaN(mass[i]) || math.IsInf(mass[i], 0) {
			return false
		}
	}
	return mass[res] <= 4
}

// op32 evaluates the float32 forms of the typed opcodes the float32 set
// admits. min and max are the builtins, as the generated float32 bodies
// print them: math.Min/math.Max whenever no operand is NaN (signed zeros
// ordered), and a NaN carrying an operand's bits whenever one is.
func op32(in *rinstr, regs [][]float32, n int) {
	v, v2 := float32(in.imm), float32(in.imm2)
	t, a, b := regs[in.dst][:n], regs[in.a][:n], regs[in.b][:n]
	switch in.op {
	case rMin:
		for i := range t {
			t[i] = min(a[i], b[i])
		}
	case rMax:
		for i := range t {
			t[i] = max(a[i], b[i])
		}
	case rMinI:
		for i := range t {
			t[i] = min(a[i], v)
		}
	case rMaxI:
		for i := range t {
			t[i] = max(a[i], v)
		}
	case rClampI:
		for i := range t {
			t[i] = min(max(a[i], v), v2)
		}
	case rAbs:
		for i := range t {
			t[i] = float32(math.Abs(float64(a[i])))
		}
	case rCast:
		// Only Float casts pass vmFloat32OK; in float32 registers the
		// round trip is the identity.
		copy(t, a)
	default:
		panic("engine: opcode outside the float32 instruction set")
	}
}
