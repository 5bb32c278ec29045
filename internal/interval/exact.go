package interval

import "math"

// Exact float arithmetic tests.  The rounding error of a float sum or
// product is itself a float (barring underflow), so it can be recovered
// and compared with zero: 2Sum for sums, FMA for products.  The solver's
// openness propagation (internal/icp/openbounds.go) keeps an endpoint's
// strictness only through exact operations, and the compiler's linear
// normalization (tnf.LinearNormalize) folds coefficients only when every
// step is exact.

// ExactSum returns a+b and reports whether the float sum equals the real
// sum.  Infinite and NaN sums are inexact.
func ExactSum(a, b float64) (float64, bool) {
	s := a + b
	if math.IsInf(s, 0) || math.IsNaN(s) {
		return s, false
	}
	bv := s - a
	av := s - bv
	return s, a-av == 0 && b-bv == 0
}

// minExactProduct is the smallest nonzero product magnitude whose FMA
// residual is itself a float: below it the residual can underflow to zero
// and hide an inexact product (a product that underflows to 0 would pass).
var minExactProduct = math.Ldexp(1, -969)

// ExactProduct returns a*b and reports whether the float product equals
// the real product.  A zero factor gives an exact 0 (the interval
// convention 0·∞ = 0); infinite and NaN products, and nonzero products
// below 2⁻⁹⁶⁹, are inexact.
func ExactProduct(a, b float64) (float64, bool) {
	if a == 0 || b == 0 {
		return 0, true
	}
	p := a * b
	if math.IsInf(p, 0) || math.IsNaN(p) || math.Abs(p) < minExactProduct {
		return p, false
	}
	return p, math.FMA(a, b, -p) == 0
}
