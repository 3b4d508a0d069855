package engine

import (
	"math/bits"

	"repro/internal/affine"
	"repro/internal/expr"
)

// The integer instruction set. Stages that bitwidth inference proves
// integral within ±2^24 (loweredStage.intExact) may execute their row
// programs over int64 registers instead of float64 ones: on that value
// range every float64 operation the program contains is exact, so the two
// instantiations of the dispatch loop produce identical integers and the
// narrowed store writes identical bytes. The win is pure bandwidth and ALU:
// narrow loads widen straight to int64 without the float round-trip, and
// integer adds/muls replace float ops on machines where that matters.
//
// Eligibility is decided in two parts: vmIntOK is the structural check over
// the value list (only opcodes with exact integer semantics, only integral
// immediates, division shapes that cannot fault), and lowering asks for the
// integer set only for stages with the interval proof — a structurally clean
// program over unbounded float data must still run over float64 registers.

// integralImm reports whether a compile-time immediate is an integer
// representable within the provable range.
func integralImm(v float64) bool {
	return v == float64(int64(v)) && v >= -float64(maxExact) && v <= float64(maxExact)
}

// vmIntOK is the structural half of integer-set eligibility.
func vmIntOK(vals []vmValue) bool {
	if len(vals) == 0 {
		return false
	}
	for _, v := range vals {
		switch v.op {
		case rConst, rAddI, rISub, rMulI, rMinI, rMaxI, rAxpy, rLoadMulI, rMadLoad, bCmpI:
			if !integralImm(v.imm) {
				return false
			}
		case rClampI:
			if !integralImm(v.imm) || !integralImm(v.imm2) {
				return false
			}
		case rFDivI:
			// Positive divisor: matches the interval proof's FDiv rule and
			// keeps the int64 division fault-free.
			if !integralImm(v.imm) || v.imm < 1 {
				return false
			}
		case rModI:
			if !integralImm(v.imm) || v.imm == 0 {
				return false
			}
		case rIota, rVarB, rLoadU, rLoadS, rLoadDiv, rLoadB,
			rAdd, rSub, rMul, rMin, rMax, rFDiv, rMod,
			rNeg, rAbs, rFloor, rCeil, rMulAdd, rSelect, rCast,
			bConst, bCmp, bAnd, bOr, bNot:
			// Exact integer semantics, no immediate constraints. rCast is
			// safe for every target type: integer casts clamp (identical to
			// the saturating float semantics on integral values) and float
			// casts are the identity on |v| <= 2^24. rFloor/rCeil are the
			// identity on integers.
		default:
			// rDiv/rDivI/rIDiv (true division), rPow/rPowI and the
			// transcendentals have no integer form.
			return false
		}
	}
	return true
}

// castI64 applies the saturating cast semantics to an already-integral
// value: identical to expr.ApplyCast composed with the float64 widening on
// the integer VM's value range.
func castI64(to expr.Type, v int64) int64 {
	switch to {
	case expr.Char:
		return clamp64(v, -128, 127)
	case expr.UChar:
		return clamp64(v, 0, 255)
	case expr.Short:
		return clamp64(v, -32768, 32767)
	case expr.Int:
		return clamp64(v, -1<<31, 1<<31-1)
	case expr.UInt:
		return clamp64(v, 0, 1<<32-1)
	}
	// Float/Double: exact identity on |v| <= 2^24.
	return v
}

// opInt evaluates the int64 forms of the typed opcodes the integer set
// admits.
func opInt(in *rinstr, regs [][]int64, n int) {
	v := int64(in.imm)
	t, a, b := regs[in.dst][:n], regs[in.a][:n], regs[in.b][:n]
	switch in.op {
	case rMod:
		for i := range t {
			t[i] = a[i] % b[i]
		}
	case rModI:
		for i := range t {
			t[i] = a[i] % v
		}
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
		hi := int64(in.imm2)
		for i := range t {
			t[i] = min(max(a[i], v), hi)
		}
	case rFDiv:
		for i := range t {
			t[i] = affine.FloorDiv(a[i], b[i])
		}
	case rFDivI:
		if v&(v-1) == 0 {
			// Power-of-two floor division is an arithmetic shift.
			sh := uint(bits.TrailingZeros64(uint64(v)))
			for i := range t {
				t[i] = a[i] >> sh
			}
			return
		}
		for i := range t {
			t[i] = affine.FloorDiv(a[i], v)
		}
	case rAbs:
		for i := range t {
			t[i] = abs64i(a[i])
		}
	case rFloor, rCeil:
		copy(t, a)
	case rCast:
		to := expr.Type(in.aux)
		for i := range t {
			t[i] = castI64(to, a[i])
		}
	default:
		panic("engine: opcode outside the integer instruction set")
	}
}
