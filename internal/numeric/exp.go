package numeric

import "math"

// Exp returns e**x, the same bits on every GOARCH: Go's math.Exp is
// assembly on amd64 (taking an FMA path where the CPU has one), arm64 and
// s390x, and math/exp.go elsewhere, so its bits depend on the host. This is
// Tang's table-driven method ("Table-driven implementation of the
// exponential function in IEEE floating-point arithmetic", ACM TOMS 1989):
//
//	x = (128·k + j)·ln2/128 + r,   j ∈ [0, 128),   |r| ≤ ln2/256
//	e**x = 2**k · 2**(j/128) · e**r
//
// m = 128·k + j is x·128/ln2 rounded by adding ExpShift; r is x − m·ln2/128
// with ln2/128 split so that m·ExpLn2Hi is exact; 2**(j/128) is
// ExpTable[j] times 1 + ExpTail[j]; e**r − 1 is a degree-5 Taylor
// polynomial (its truncation error is below 2⁻⁵⁹); and 2**k is added to
// the table entry's exponent bits. Results are within 1 ULP of e**x, and
// almost always the correctly rounded one. Every product is rounded by a
// conversion, so no compiler fuses one into an add.
//
// The common path, |x| ≤ ExpFastMax, has no division, no call and only the
// branch that selects it; EmitGo prints it inline in generated kernels, in
// the same operations and order. Everything else takes ExpSlow.
func Exp(x float64) float64 {
	if !(math.Abs(x) <= ExpFastMax) {
		return ExpSlow(x)
	}
	ki, p := expReduce(x)
	s := math.Float64frombits(ExpTable[ki&127] + ki>>7<<52)
	return float64(s*p) + s
}

// The common path's constants, printed by name in generated kernels.
const (
	// ExpFastMax bounds the common path: for |x| ≤ 708 the result and
	// 2**k·2**(j/128) are normal.
	ExpFastMax = 708
	// ExpInvLn2 is 128/ln2, and ExpShift is 1.5·2⁵²: x·ExpInvLn2 + ExpShift
	// rounds x·128/ln2 to an integer m held in the sum's low bits.
	ExpInvLn2 = 0x1.71547652b82fep+07
	ExpShift  = 0x1.8p52
	// ExpLn2Hi + ExpLn2Lo is ln2/128. ExpLn2Hi keeps 35 bits of it, so its
	// product with any integer |m| < 2¹⁸ (|x| < 1419) is exact.
	ExpLn2Hi = 0x1.62e42fef8p-08
	ExpLn2Lo = 0x1.1cf79abc9e3b4p-43
	// The Taylor coefficients 1/2, 1/6, 1/24 and 1/120.
	ExpC2 = 1.0 / 2
	ExpC3 = 1.0 / 6
	ExpC4 = 1.0 / 24
	ExpC5 = 1.0 / 120
)

// expReduce returns, for |x| ≤ 746, the bits of x·ExpInvLn2 + ExpShift
// (ki&127 is j, ki>>7<<52 adds k to an exponent) and p with
// e**x = 2**k·ExpTable[j]·(1 + p), before rounding.
func expReduce(x float64) (ki uint64, p float64) {
	kd := float64(x*ExpInvLn2) + ExpShift
	ki = math.Float64bits(kd)
	kd -= ExpShift
	r := x - float64(kd*ExpLn2Hi) - float64(kd*ExpLn2Lo)
	r2 := float64(r * r)
	p = ExpTail[ki&127] + r + float64(r2*(ExpC2+float64(r*ExpC3))) + float64(float64(r2*r2)*(ExpC4+float64(r*ExpC5)))
	return ki, p
}

// ExpSlow is Exp off its common path: NaN (returned as is), +Inf and
// x > 709.79 (+Inf), −Inf and x < −746 (0), and the rest of |x| > 708,
// whose results lie near overflow or underflow, computed as the common path
// does with 2**k split into 2**(k−1009)·2¹⁰⁰⁹ or 2**(k+1022)·2⁻¹⁰²² so
// that every intermediate stays normal and finite. A subnormal result is
// rounded twice, and stays within 1 ULP.
//
//go:noinline
func ExpSlow(x float64) float64 {
	switch {
	case x != x:
		return x
	case x > 709.79:
		return math.Inf(1)
	case x < -746:
		return 0
	}
	ki, p := expReduce(x)
	if x > 0 {
		s := math.Float64frombits(ExpTable[ki&127] + (ki>>7-1009)<<52)
		return (float64(s*p) + s) * 0x1p1009
	}
	s := math.Float64frombits(ExpTable[ki&127] + (ki>>7+1022)<<52)
	return (float64(s*p) + s) * 0x1p-1022
}

// ExpTable holds the bits of 2**(j/128) rounded to float64, for j in
// [0, 128); TestExpTable recomputes each with math/big.
var ExpTable = [128]uint64{
	0x3ff0000000000000, 0x3ff0163da9fb3335, 0x3ff02c9a3e778061, 0x3ff04315e86e7f85,
	0x3ff059b0d3158574, 0x3ff0706b29ddf6de, 0x3ff0874518759bc8, 0x3ff09e3ecac6f383,
	0x3ff0b5586cf9890f, 0x3ff0cc922b7247f7, 0x3ff0e3ec32d3d1a2, 0x3ff0fb66affed31b,
	0x3ff11301d0125b51, 0x3ff12abdc06c31cc, 0x3ff1429aaea92de0, 0x3ff15a98c8a58e51,
	0x3ff172b83c7d517b, 0x3ff18af9388c8dea, 0x3ff1a35beb6fcb75, 0x3ff1bbe084045cd4,
	0x3ff1d4873168b9aa, 0x3ff1ed5022fcd91d, 0x3ff2063b88628cd6, 0x3ff21f49917ddc96,
	0x3ff2387a6e756238, 0x3ff251ce4fb2a63f, 0x3ff26b4565e27cdd, 0x3ff284dfe1f56381,
	0x3ff29e9df51fdee1, 0x3ff2b87fd0dad990, 0x3ff2d285a6e4030b, 0x3ff2ecafa93e2f56,
	0x3ff306fe0a31b715, 0x3ff32170fc4cd831, 0x3ff33c08b26416ff, 0x3ff356c55f929ff1,
	0x3ff371a7373aa9cb, 0x3ff38cae6d05d866, 0x3ff3a7db34e59ff7, 0x3ff3c32dc313a8e5,
	0x3ff3dea64c123422, 0x3ff3fa4504ac801c, 0x3ff4160a21f72e2a, 0x3ff431f5d950a897,
	0x3ff44e086061892d, 0x3ff46a41ed1d0057, 0x3ff486a2b5c13cd0, 0x3ff4a32af0d7d3de,
	0x3ff4bfdad5362a27, 0x3ff4dcb299fddd0d, 0x3ff4f9b2769d2ca7, 0x3ff516daa2cf6642,
	0x3ff5342b569d4f82, 0x3ff551a4ca5d920f, 0x3ff56f4736b527da, 0x3ff58d12d497c7fd,
	0x3ff5ab07dd485429, 0x3ff5c9268a5946b7, 0x3ff5e76f15ad2148, 0x3ff605e1b976dc09,
	0x3ff6247eb03a5585, 0x3ff6434634ccc320, 0x3ff6623882552225, 0x3ff68155d44ca973,
	0x3ff6a09e667f3bcd, 0x3ff6c012750bdabf, 0x3ff6dfb23c651a2f, 0x3ff6ff7df9519484,
	0x3ff71f75e8ec5f74, 0x3ff73f9a48a58174, 0x3ff75feb564267c9, 0x3ff780694fde5d3f,
	0x3ff7a11473eb0187, 0x3ff7c1ed0130c132, 0x3ff7e2f336cf4e62, 0x3ff80427543e1a12,
	0x3ff82589994cce13, 0x3ff8471a4623c7ad, 0x3ff868d99b4492ed, 0x3ff88ac7d98a6699,
	0x3ff8ace5422aa0db, 0x3ff8cf3216b5448c, 0x3ff8f1ae99157736, 0x3ff9145b0b91ffc6,
	0x3ff93737b0cdc5e5, 0x3ff95a44cbc8520f, 0x3ff97d829fde4e50, 0x3ff9a0f170ca07ba,
	0x3ff9c49182a3f090, 0x3ff9e86319e32323, 0x3ffa0c667b5de565, 0x3ffa309bec4a2d33,
	0x3ffa5503b23e255d, 0x3ffa799e1330b358, 0x3ffa9e6b5579fdbf, 0x3ffac36bbfd3f37a,
	0x3ffae89f995ad3ad, 0x3ffb0e07298db666, 0x3ffb33a2b84f15fb, 0x3ffb59728de5593a,
	0x3ffb7f76f2fb5e47, 0x3ffba5b030a1064a, 0x3ffbcc1e904bc1d2, 0x3ffbf2c25bd71e09,
	0x3ffc199bdd85529c, 0x3ffc40ab5fffd07a, 0x3ffc67f12e57d14b, 0x3ffc8f6d9406e7b5,
	0x3ffcb720dcef9069, 0x3ffcdf0b555dc3fa, 0x3ffd072d4a07897c, 0x3ffd2f87080d89f2,
	0x3ffd5818dcfba487, 0x3ffd80e316c98398, 0x3ffda9e603db3285, 0x3ffdd321f301b460,
	0x3ffdfc97337b9b5f, 0x3ffe264614f5a129, 0x3ffe502ee78b3ff6, 0x3ffe7a51fbc74c83,
	0x3ffea4afa2a490da, 0x3ffecf482d8e67f1, 0x3ffefa1bee615a27, 0x3fff252b376bba97,
	0x3fff50765b6e4540, 0x3fff7bfdad9cbe14, 0x3fffa7c1819e90d8, 0x3fffd3c22b8f71f1,
}

// ExpTail holds (2**(j/128) − ExpTable[j]) / ExpTable[j] rounded to
// float64: the part of 2**(j/128) the table entry misses.
var ExpTail = [128]float64{
	0x0p+00, 0x1.b3b4f1a88bf6ep-54, -0x1.160139cd8dc5dp-56,
	-0x1.05e7a108766d1p-54, 0x1.cd2523567f613p-55, -0x1.bce8023f98efap-55,
	0x1.0f74e61e6c861p-57, 0x1.0a3e45b33d399p-54, 0x1.79aa65d837b6dp-54,
	0x1.eb51a92fdeffcp-55, 0x1.ebe3d702f9cd1p-60, -0x1.a033489906e0bp-57,
	-0x1.556522a2fbd0ep-54, -0x1.080ef8c4eea55p-58, -0x1.1c923b9d5f416p-54,
	0x1.0d3e3e95c55afp-55, -0x1.01b15eaa59348p-55, -0x1.f1ff055de323dp-55,
	0x1.b898c3f1353bfp-55, -0x1.6d99c7611eb26p-54, 0x1.aecf73e3a2f6p-54,
	-0x1.fe782cb86389dp-55, 0x1.a6f4144a6c38dp-55, 0x1.07a05b0e4047dp-55,
	0x1.68efde3a8a894p-54, 0x1.75e18f274487dp-55, 0x1.0472b981fe7f2p-55,
	-0x1.6b87b3f71085ep-54, 0x1.2f7e16d09ab31p-55, -0x1.d219b1a6fbffap-60,
	0x1.b3782720c0ab4p-55, 0x1.e149289cecb8fp-57, 0x1.34d754db0abb6p-55,
	0x1.64201e2ac744cp-55, 0x1.fdd395dd3f84ap-55, -0x1.6a3803b8e5b04p-55,
	-0x1.24aedcc4b5068p-54, -0x1.907f81b512d8ep-54, -0x1.1d1e83e9436d2p-56,
	-0x1.91919b3ce1b15p-54, 0x1.59f48a72a4c6dp-55, -0x1.312607a28698ap-54,
	-0x1.8a78f4817895bp-58, -0x1.c2c9b67499a1bp-56, 0x1.363ed60c2ac11p-59,
	0x1.666093b0664efp-54, 0x1.ecce1daa10379p-57, 0x1.3ff8e3f0f123p-54,
	0x1.690cebb7aafbp-56, 0x1.31dbdeb54e077p-54, -0x1.f94340071a38ep-55,
	-0x1.7deccdc93a349p-55, -0x1.8dec6bd0f385fp-56, -0x1.61246ec7b5cf6p-55,
	0x1.3350518fdd78ep-54, 0x1.b98b72f8a9b05p-56, 0x1.063e1e21c5409p-54,
	0x1.4c7855019c6eap-60, 0x1.432e62b64c035p-54, -0x1.ce44a6199769fp-55,
	-0x1.c33c53bef4da8p-55, -0x1.45378892be9aep-55, -0x1.3cedd78565858p-54,
	0x1.710aa807e1964p-58, -0x1.3b3efbf5e2228p-54, -0x1.a12ad8734b982p-57,
	-0x1.367efb86da9eep-57, -0x1.0dc3d54e08851p-55, -0x1.81f647e5a3ecfp-56,
	-0x1.6ee4ac08b7dbp-55, -0x1.619321e55e68ap-55, 0x1.09ccb5e09d4d3p-54,
	-0x1.b32dcb94da51dp-56, 0x1.4ecfd5467c06bp-54, 0x1.5ebe1abd66c55p-57,
	-0x1.8a1c52fb3cf42p-55, -0x1.369b6f13b3734p-54, -0x1.05e843a19ff1ep-55,
	-0x1.4d450d872576ep-54, 0x1.0ad675b0e8ap-54, 0x1.db72fc1f0eab4p-55,
	-0x1.5b6609cc5e7ffp-57, 0x1.bf68359f35f44p-56, -0x1.3091fa71e3d83p-54,
	-0x1.da9b88b6c1e29p-58, -0x1.c23f97c90b959p-57, -0x1.2434322f4f9aap-54,
	-0x1.5ca6cd7668e4bp-55, 0x1.1affc2b91ce27p-56, 0x1.dd235e10a73bbp-57,
	-0x1.7c50422622263p-55, 0x1.b1c86e3e231d5p-55, -0x1.1bbd1d3bcbb15p-54,
	0x1.0cc319cee31d2p-54, 0x1.469846e735ab3p-55, -0x1.2dfcd978e9db4p-55,
	0x1.c1a7792cb3387p-55, -0x1.07b8f4ad1d9fap-54, -0x1.5c3d956dcaebap-58,
	-0x1.0a40e3da6f64p-54, -0x1.8d6f438ad9334p-57, -0x1.1eee26b588a35p-54,
	0x1.4ffd70a5fddcdp-56, -0x1.1bdfbfa9298acp-54, 0x1.36eae30af0cb3p-56,
	0x1.ee3325c9ffd94p-55, 0x1.4e08fd10959acp-55, 0x1.3cdaf384e1a67p-57,
	0x1.76b2c6c921968p-57, -0x1.08a1883ccb5d2p-55, -0x1.fad5d3ffffa6fp-55,
	-0x1.00dae3875a949p-54, 0x1.4a385a63d07a7p-56, -0x1.2919e2040220fp-55,
	0x1.e5a50d5c192acp-55, 0x1.43a59ac016b4bp-55, -0x1.2d52107b43e1fp-55,
	-0x1.92ab93b470dc9p-55, 0x1.4b604603a88d3p-56, 0x1.3c5ec519d7271p-55,
	-0x1.ff7128fd391fp-55, -0x1.dae98e223747dp-55, 0x1.ec3bc41aa2008p-55,
	0x1.42b94c3a9eb32p-55, 0x1.a64a931d185eep-55, -0x1.e37bae43be3edp-55,
	0x1.7893b4d91cd9dp-56, 0x1.305c14160cc89p-58,
}
