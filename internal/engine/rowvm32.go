package engine

import (
	"math"

	"repro/internal/affine"
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
// unnormalized sums keep float64 accumulation. Generated kernels inherit
// the split through GenUnit.F32. Anything
// data-dependent in control flow (select/compare), transcendental (other
// than sqrt), integer-semantics (mod, fdiv, int casts) or of unbounded
// magnitude (iota, reg-reg division) disqualifies the program; those run
// on the float64 loop and only the final store narrows.

// vmFloat32OK decides whether a linearized program may execute on the
// float32 dispatch loop.
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
			mass[i] = ma*mb + mm
		case rAxpy:
			mass[i] = math.Abs(v.imm)*ma + mb
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

// min32/max32 follow math.Min/math.Max semantics (NaN propagates, signed
// zeros ordered) so the float32 loop stays within the differential-test
// ULP budget of the reference on edge inputs.
func min32(x, y float32) float32 {
	switch {
	case x != x || y != y:
		return float32(math.NaN())
	case x < y:
		return x
	case y < x:
		return y
	case x == 0 && y == 0 && math.Signbit(float64(x)):
		return x
	}
	return y
}

func max32(x, y float32) float32 {
	switch {
	case x != x || y != y:
		return float32(math.NaN())
	case x > y:
		return x
	case y > x:
		return y
	case x == 0 && y == 0 && !math.Signbit(float64(x)):
		return x
	}
	return y
}

// run32 is the float32 dispatch loop. Only the vmFloat32OK subset is
// implemented; compile-time selection guarantees nothing else reaches it.
func (vm *rowVM) run32(c *RowCtx, dst []float32) {
	n := c.n
	for len(c.vm.f32) < vm.nRegs {
		c.vm.f32 = append(c.vm.f32, nil)
	}
	for i := 0; i < vm.nRegs; i++ {
		if len(c.vm.f32[i]) < n {
			if c.vm.gauge != nil {
				c.vm.gauge.Add(int64(n-len(c.vm.f32[i])) * 4)
			}
			c.vm.f32[i] = make([]float32, n)
		}
	}
	regs := c.vm.f32
	for ii := range vm.instrs {
		in := &vm.instrs[ii]
		switch in.op {
		case rConst:
			t := regs[in.dst][:n]
			v := in.imm32
			for i := range t {
				t[i] = v
			}
		case rLoadU:
			t := regs[in.dst][:n]
			b, p, stride := vm.loads[in.aux].loadRow(c)
			if stride == 1 {
				copy(t, b.Data[p:p+int64(n)])
			} else {
				for i := range t {
					t[i] = b.Data[p]
					p += stride
				}
			}
		case rLoadS:
			l := &vm.loads[in.aux]
			b, base := l.rowBase(c)
			aff := l.affs[l.varDim]
			stride := b.Stride[l.varDim]
			p := base + (aff.Coeff*c.jLo+l.offs[l.varDim]-b.Box[l.varDim].Lo)*stride
			step := aff.Coeff * stride
			t := regs[in.dst][:n]
			for i := range t {
				t[i] = b.Data[p]
				p += step
			}
		case rLoadDiv:
			l := &vm.loads[in.aux]
			b, base := l.rowBase(c)
			aff := l.affs[l.varDim]
			stride := b.Stride[l.varDim]
			lo := b.Box[l.varDim].Lo
			off := l.offs[l.varDim]
			t := regs[in.dst][:n]
			for i := range t {
				x := affine.FloorDiv(aff.Coeff*(c.jLo+int64(i))+off, aff.Div)
				t[i] = b.Data[base+(x-lo)*stride]
			}
		case rLoadB:
			l := &vm.loads[in.aux]
			b, base := l.rowBase(c)
			v := b.Data[base]
			t := regs[in.dst][:n]
			for i := range t {
				t[i] = v
			}
		case rLoadMulI:
			t := regs[in.dst][:n]
			w := in.imm32
			b, p, stride := vm.loads[in.aux].loadRow(c)
			if stride == 1 {
				src := b.Data[p : p+int64(n)]
				for i := range t {
					t[i] = w * src[i]
				}
			} else {
				for i := range t {
					t[i] = w * b.Data[p]
					p += stride
				}
			}
		case rMadLoad:
			t := regs[in.dst][:n]
			a := regs[in.a][:n]
			w := in.imm32
			b, p, stride := vm.loads[in.aux].loadRow(c)
			if stride == 1 {
				src := b.Data[p : p+int64(n)]
				for i := range t {
					t[i] = a[i] + w*src[i]
				}
			} else {
				for i := range t {
					t[i] = a[i] + w*b.Data[p]
					p += stride
				}
			}
		case rAdd:
			t, a, b := regs[in.dst][:n], regs[in.a][:n], regs[in.b][:n]
			for i := range t {
				t[i] = a[i] + b[i]
			}
		case rSub:
			t, a, b := regs[in.dst][:n], regs[in.a][:n], regs[in.b][:n]
			for i := range t {
				t[i] = a[i] - b[i]
			}
		case rMul:
			t, a, b := regs[in.dst][:n], regs[in.a][:n], regs[in.b][:n]
			for i := range t {
				t[i] = a[i] * b[i]
			}
		case rAddI:
			t, a, v := regs[in.dst][:n], regs[in.a][:n], in.imm32
			for i := range t {
				t[i] = a[i] + v
			}
		case rISub:
			t, a, v := regs[in.dst][:n], regs[in.a][:n], in.imm32
			for i := range t {
				t[i] = v - a[i]
			}
		case rMulI:
			t, a, v := regs[in.dst][:n], regs[in.a][:n], in.imm32
			for i := range t {
				t[i] = a[i] * v
			}
		case rDivI:
			t, a, v := regs[in.dst][:n], regs[in.a][:n], in.imm32
			for i := range t {
				t[i] = a[i] / v
			}
		case rMin:
			t, a, b := regs[in.dst][:n], regs[in.a][:n], regs[in.b][:n]
			for i := range t {
				t[i] = min32(a[i], b[i])
			}
		case rMax:
			t, a, b := regs[in.dst][:n], regs[in.a][:n], regs[in.b][:n]
			for i := range t {
				t[i] = max32(a[i], b[i])
			}
		case rMinI:
			t, a, v := regs[in.dst][:n], regs[in.a][:n], in.imm32
			for i := range t {
				t[i] = min32(a[i], v)
			}
		case rMaxI:
			t, a, v := regs[in.dst][:n], regs[in.a][:n], in.imm32
			for i := range t {
				t[i] = max32(a[i], v)
			}
		case rClampI:
			t, a, lo, hi := regs[in.dst][:n], regs[in.a][:n], in.imm32, in.imm232
			for i := range t {
				t[i] = min32(max32(a[i], lo), hi)
			}
		case rNeg:
			t, a := regs[in.dst][:n], regs[in.a][:n]
			for i := range t {
				t[i] = -a[i]
			}
		case rAbs:
			t, a := regs[in.dst][:n], regs[in.a][:n]
			for i := range t {
				t[i] = float32(math.Abs(float64(a[i])))
			}
		case rSqrt:
			t, a := regs[in.dst][:n], regs[in.a][:n]
			for i := range t {
				t[i] = float32(math.Sqrt(float64(a[i])))
			}
		case rMulAdd:
			t, a, b, cc := regs[in.dst][:n], regs[in.a][:n], regs[in.b][:n], regs[in.m][:n]
			for i := range t {
				t[i] = a[i]*b[i] + cc[i]
			}
		case rAxpy:
			t, a, b, v := regs[in.dst][:n], regs[in.a][:n], regs[in.b][:n], in.imm32
			for i := range t {
				t[i] = v*a[i] + b[i]
			}
		case rCast:
			// Only Float casts pass vmFloat32OK; in float32 registers the
			// round trip is the identity.
			t, a := regs[in.dst][:n], regs[in.a][:n]
			copy(t, a)
		default:
			panic("engine: opcode outside the float32 instruction set")
		}
	}
	copy(dst, regs[vm.res][:n])
}
