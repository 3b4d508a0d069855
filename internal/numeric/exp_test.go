package numeric

import (
	"math"
	"math/big"
	"math/rand"
	"testing"
)

const bigPrec = 128

func bigF(v float64) *big.Float { return new(big.Float).SetPrec(bigPrec).SetFloat64(v) }

// bigLn2 is ln 2 = 2·atanh(1/3) = 2·Σ 3^−(2k+1)/(2k+1), to bigPrec bits.
var bigLn2 = func() *big.Float {
	third := new(big.Float).SetPrec(bigPrec).Quo(bigF(1), bigF(3))
	ninth := new(big.Float).SetPrec(bigPrec).Mul(third, third)
	sum, term := bigF(0), new(big.Float).SetPrec(bigPrec).Set(third)
	for k := int64(0); k < 90; k++ {
		sum.Add(sum, new(big.Float).SetPrec(bigPrec).Quo(term, bigF(float64(2*k+1))))
		term.Mul(term, ninth)
	}
	return sum.Mul(sum, bigF(2))
}()

// bigExp is e**x rounded once to float64 (subnormals and overflow
// included): x = n·ln2 + r with |r| ≤ ln2/2, e**r by its Taylor series.
func bigExp(x float64) float64 {
	n := math.Round(x / math.Ln2)
	r := bigF(x)
	r.Sub(r, new(big.Float).SetPrec(bigPrec).Mul(bigF(n), bigLn2))
	sum, term := bigF(1), bigF(1)
	for k := 1; k < 60; k++ {
		term.Mul(term, r)
		term.Quo(term, bigF(float64(k)))
		sum.Add(sum, term)
		if term.Sign() == 0 || term.MantExp(nil)-sum.MantExp(nil) < -bigPrec {
			break
		}
	}
	f, _ := sum.SetMantExp(sum, int(n)).Float64()
	return f
}

// bigPow2 is 2**(j/128) to bigPrec bits: the product, over the set bits b
// of j, of 2**(2^b/128), each by 7−b square roots of 2.
func bigPow2(j int) *big.Float {
	p := bigF(1)
	for b := range 7 {
		if j&(1<<b) != 0 {
			f := bigF(2)
			for range 7 - b {
				f.Sqrt(f)
			}
			p.Mul(p, f)
		}
	}
	return p
}

// ulps is the distance between two finite float64 values of one sign in
// units in the last place.
func ulps(a, b float64) uint64 {
	ia, ib := math.Float64bits(a), math.Float64bits(b)
	return max(ia, ib) - min(ia, ib)
}

// TestExpTable recomputes every table entry and the reduction's constants
// with math/big.
func TestExpTable(t *testing.T) {
	for j := range 128 {
		e := bigPow2(j)
		want, _ := e.Float64()
		if got := math.Float64frombits(ExpTable[j]); got != want {
			t.Errorf("ExpTable[%d] = %x, want %x", j, got, want)
		}
		tail, _ := e.Sub(e, bigF(want)).Quo(e, bigF(want)).Float64()
		if ExpTail[j] != tail {
			t.Errorf("ExpTail[%d] = %x, want %x", j, ExpTail[j], tail)
		}
	}
	n := new(big.Float).SetPrec(bigPrec).Quo(bigLn2, bigF(128))
	if inv, _ := new(big.Float).SetPrec(bigPrec).Quo(bigF(128), bigLn2).Float64(); ExpInvLn2 != inv {
		t.Errorf("ExpInvLn2 = %x, want %x", ExpInvLn2, inv)
	}
	if b := math.Float64bits(ExpLn2Hi); b&(1<<18-1) != 0 {
		t.Errorf("ExpLn2Hi = %x has bits in its low 18", float64(ExpLn2Hi))
	}
	lo, _ := n.Sub(n, bigF(ExpLn2Hi)).Float64()
	if ExpLn2Lo != lo {
		t.Errorf("ExpLn2Lo = %x, want %x", ExpLn2Lo, lo)
	}
}

// TestExp holds Exp within 1 ULP of a math/big reference on seeded
// arguments over local Laplacian's remap range [−12.5, 0] and over the
// whole finite range, on a table of edge arguments, and to monotonicity.
func TestExp(t *testing.T) {
	n := 100000
	if testing.Short() {
		n = 10000
	}
	rng := rand.New(rand.NewSource(1))
	for _, rg := range [][2]float64{{-12.5, 0}, {-745.13, 709.78}} {
		worst := uint64(0)
		for range n {
			x := rg[0] + rng.Float64()*(rg[1]-rg[0])
			got, want := Exp(x), bigExp(x)
			d := ulps(got, want)
			if d > 1 {
				t.Errorf("Exp(%v) = %v, want %v (%d ULP)", x, got, want, d)
			}
			worst = max(worst, d)
		}
		t.Logf("[%v, %v]: %d arguments, worst %d ULP", rg[0], rg[1], n, worst)
	}

	for _, tc := range []struct {
		x, want float64
		ulp     uint64 // 0: exact
	}{
		{math.NaN(), math.NaN(), 0},
		{math.Inf(1), math.Inf(1), 0},
		{math.Inf(-1), 0, 0},
		{0, 1, 0},
		{math.Copysign(0, -1), 1, 0},
		{1e-300, 1, 0},
		{-1e-300, 1, 0},
		{1, math.E, 1},
		{709.5, bigExp(709.5), 1}, // finite; amd64 math.Exp returns +Inf
		{709.78, bigExp(709.78), 1},
		{709.79, math.Inf(1), 0},
		{-708.2, bigExp(-708.2), 1},
		{-740, bigExp(-740), 1}, // subnormal
		{-745, bigExp(-745), 1},
		{-746, 0, 0},
	} {
		got := Exp(tc.x)
		switch {
		case math.IsNaN(tc.want):
			if !math.IsNaN(got) {
				t.Errorf("Exp(%v) = %v, want NaN", tc.x, got)
			}
		case math.IsInf(got, 0) != math.IsInf(tc.want, 0) || ulps(got, tc.want) > tc.ulp:
			t.Errorf("Exp(%v) = %v, want %v within %d ULP", tc.x, got, tc.want, tc.ulp)
		}
	}
	if got := Exp(-740); got == 0 || got >= 0x1p-1022 {
		t.Errorf("Exp(-740) = %v, want a subnormal", got)
	}

	// Monotone: over the whole range in steps of about 2e-4, and over
	// consecutive floats where the table index changes near 1, 100 and −600.
	prev := 0.0
	for x := -746.0; x <= 710; x += 1.0 / 4096 {
		y := Exp(x)
		if y < prev {
			t.Fatalf("Exp(%v) = %v < Exp(%v) = %v", x, y, x-1.0/4096, prev)
		}
		prev = y
	}
	for _, c := range []float64{1, 100, -600} {
		m := math.Round(c * ExpInvLn2)
		x := (m + 0.5) * math.Ln2 / 128
		for range 2000 {
			x = math.Nextafter(x, math.Inf(-1))
		}
		prev := Exp(x)
		for range 4000 {
			x = math.Nextafter(x, math.Inf(1))
			y := Exp(x)
			if y < prev {
				t.Fatalf("Exp(%v) = %v < Exp of the float below, %v", x, y, prev)
			}
			prev = y
		}
	}
}
