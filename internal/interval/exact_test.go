package interval

import (
	"math"
	"testing"
)

func TestExactSum(t *testing.T) {
	cases := []struct {
		a, b  float64
		exact bool
	}{
		{1, 2, true},
		{0.5, 0.25, true},
		{1e100, 1, false}, // absorbed
		{0.1, 0.2, false}, // 0.3 is not representable
		{-5, 5, true},
		{0, 0, true},
		{5e-324, 5e-324, true}, // subnormal sums are exact
	}
	for _, c := range cases {
		s, ex := ExactSum(c.a, c.b)
		if ex != c.exact {
			t.Errorf("ExactSum(%v, %v) exact = %v, want %v", c.a, c.b, ex, c.exact)
		}
		if s != c.a+c.b {
			t.Errorf("ExactSum sum mismatch")
		}
	}
	if _, ex := ExactSum(math.Inf(1), 1); ex {
		t.Error("inf sum cannot be exact")
	}
}

func TestExactProduct(t *testing.T) {
	if p, ex := ExactProduct(3, 4); p != 12 || !ex {
		t.Error("3*4")
	}
	if p, ex := ExactProduct(0, math.Inf(1)); p != 0 || !ex {
		t.Error("0*inf must be 0 (interval convention)")
	}
	if _, ex := ExactProduct(0.1, 0.3); ex {
		t.Error("0.1*0.3 is inexact")
	}
	if p, ex := ExactProduct(0.5, 0.25); p != 0.125 || !ex {
		t.Error("powers of two multiply exactly")
	}
	if _, ex := ExactProduct(math.Inf(1), 2); ex {
		t.Error("inf product cannot be exact")
	}
	// 2⁻⁶⁰⁰·(1+2⁻⁵²) squared underflows to 0, and FMA's residual
	// underflows with it: the product must still read inexact
	a := math.Ldexp(1+0x1p-52, -600)
	if p, ex := ExactProduct(a, a); ex {
		t.Errorf("underflowing product %v reported exact", p)
	}
}
