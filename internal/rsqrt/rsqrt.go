// Package rsqrt implements the reciprocal square root 1/sqrt(x) using
// only floating point adds and multiplies, following the algorithm of
// Karp (Scientific Programming 1, 1993) cited by the paper: a table
// lookup, Chebyshev polynomial interpolation, and Newton-Raphson
// iteration.
//
// This is the kernel that makes a gravitational interaction cost 38
// floating point operations on hardware without a fast square root:
// the argument's exponent is halved by integer bit manipulation, a
// quadratic fit through Chebyshev nodes seeds y ~= 1/sqrt(m) for the
// mantissa m folded into [1,4), and two Newton iterations
//
//	y <- y * (1.5 - 0.5*m*y*y)
//
// polish it to full double precision. The seed table is built once at
// init time (the 1997 code likewise precomputed it); the per-call path
// contains no divisions and no calls to math.Sqrt.
//
// The production force kernels (internal/grav kernel.go) take their
// reciprocal square root the same way, from multiplies and adds: the
// square root and divide units are as slow against the FMA units
// today as they were on the Pentium Pro, and vector lanes have no
// table lookup, so there a bit-trick seed and four Newton steps on
// fused multiply-adds replace the table and the polynomial. Rsqrt
// itself stays the paper's scalar routine: it serves the Karp kernels
// grav.PPTile/PPSelf/M2P (the direct sum, the tests' fused walk and
// the accuracy tests' second opinion) and the Ablation_RsqrtKarp vs
// Ablation_RsqrtLibm pair, which times it against 1/math.Sqrt call for
// call.
package rsqrt

import "math"

// tableBits sets the seed table resolution: 2^tableBits intervals over
// the mantissa range [1,4). With quadratic interpolation the seed is
// accurate to ~1e-8, so one Newton step reaches ~1e-15 and two steps
// are below double rounding error.
const tableBits = 8

const tableSize = 1 << tableBits

// Each interval stores the coefficients of the quadratic
// c0 + t*(c1 + t*c2) in t = m - start(interval).
var seedC0, seedC1, seedC2 [tableSize]float64

// The mantissa range [1,4) spans two binades, so an interval covers
// 3.0 / tableSize in m.
const intervalWidth = 3.0 / tableSize

// chebCoeffs returns the coefficients of the degree-2 Chebyshev
// interpolant of 1/sqrt(u) on [a,b], expanded around a so evaluation
// is Horner in t = u-a.
func chebCoeffs(a, b float64) (c0, c1, c2 float64) {
	mid := 0.5 * (a + b)
	half := 0.5 * (b - a)
	// Chebyshev nodes of degree-2 interpolation on [a,b].
	var x, f [3]float64
	for k := 0; k < 3; k++ {
		x[k] = mid + half*math.Cos(float64(2*k+1)*math.Pi/6)
		f[k] = 1 / math.Sqrt(x[k])
	}
	// Newton divided differences, then shift the expansion
	// point from x[0] to a.
	d01 := (f[1] - f[0]) / (x[1] - x[0])
	d12 := (f[2] - f[1]) / (x[2] - x[1])
	d012 := (d12 - d01) / (x[2] - x[0])
	u0 := a - x[0]
	u1 := a - x[1]
	return f[0] + d01*u0 + d012*u0*u1, d01 + d012*(u0+u1), d012
}

func init() {
	for i := 0; i < tableSize; i++ {
		a := 1.0 + float64(i)*intervalWidth
		seedC0[i], seedC1[i], seedC2[i] = chebCoeffs(a, a+intervalWidth)
	}
}

// Rsqrt returns 1/sqrt(x) computed with adds and multiplies only on
// the hot path (plus integer exponent manipulation). Special cases:
//
//	Rsqrt(+Inf)  = 0
//	Rsqrt(±0)    = +Inf
//	Rsqrt(x < 0) = NaN
//	Rsqrt(NaN)   = NaN
func Rsqrt(x float64) float64 {
	return rsqrtN(x, 2)
}

// Rsqrt1 is Rsqrt with a single Newton-Raphson iteration: relative
// error ~1e-15. Exposed for the ablation benchmarks.
func Rsqrt1(x float64) float64 { return rsqrtN(x, 1) }

// Rsqrt0 is the bare Chebyshev table seed with no Newton iteration:
// relative error ~1e-8. Exposed for the ablation benchmarks.
func Rsqrt0(x float64) float64 { return rsqrtN(x, 0) }

func rsqrtN(x float64, iters int) float64 {
	if math.IsNaN(x) {
		return x
	}
	if x < 0 {
		return math.NaN()
	}
	if x == 0 {
		return math.Inf(1)
	}
	if math.IsInf(x, 1) {
		return 0
	}
	b := math.Float64bits(x)
	if b>>52 == 0 {
		// Subnormal: rescale by an even power of two and undo after.
		return rsqrtN(x*0x1p108, iters) * 0x1p54
	}
	e := int(b>>52) - 1023
	// Fold the mantissa into [1,4): odd exponents contribute 2.
	m := math.Float64frombits(b&0x000FFFFFFFFFFFFF | 0x3FF0000000000000)
	if e&1 != 0 {
		m *= 2
		e--
	}
	i := int((m - 1.0) * (1.0 / intervalWidth))
	if i >= tableSize {
		i = tableSize - 1
	}
	t := m - (1.0 + float64(i)*intervalWidth)
	y := seedC0[i] + t*(seedC1[i]+t*seedC2[i])
	for k := 0; k < iters; k++ {
		y = y * (1.5 - 0.5*m*y*y)
	}
	// Exact rescale by 2^(-e/2); e is even and within [-1074, 1023],
	// so -e/2 is within the normal exponent range.
	return y * math.Float64frombits(uint64(-e/2+1023)<<52)
}

// Flops is the number of floating point operations the paper charges
// for one gravitational interaction built on this kernel.
const Flops = 38

// Sqrt returns sqrt(x) as x * Rsqrt(x), still with adds and multiplies
// only on the hot path. Sqrt(0) = 0.
func Sqrt(x float64) float64 {
	if x == 0 {
		return 0
	}
	return x * Rsqrt(x)
}

// CorrectBits reports the number of correct mantissa bits of an
// approximation y to 1/sqrt(x); used by tests and the accuracy bench.
func CorrectBits(x, y float64) float64 {
	exact := 1 / math.Sqrt(x)
	rel := math.Abs(y-exact) / exact
	if rel == 0 {
		return 53
	}
	return -math.Log2(rel)
}
