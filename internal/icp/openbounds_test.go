package icp

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// TestQuickSumEndpointSound: the endpoint produced by sumLo/sumHi always
// bounds the exact real sum, and openness is claimed only for exact sums.
func TestQuickSumEndpointSound(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := ept{v: r.Float64()*200 - 100, open: r.Intn(2) == 0}
		b := ept{v: r.Float64()*200 - 100, open: r.Intn(2) == 0}
		lo := sumLo(a, b)
		hi := sumHi(a, b)
		exact := a.v + b.v // float-rounded; true value within 1 ulp
		if lo.v > exact || hi.v < exact {
			return false
		}
		// openness only with exactness (then value matches float sum)
		if lo.open && lo.v != exact {
			return false
		}
		if hi.open && hi.v != exact {
			return false
		}
		// openness requires an open operand
		if lo.open && !(a.open || b.open) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Errorf("sum endpoints: %v", err)
	}
}

// TestQuickMulCornersSound: mulCorners encloses all products of the box.
func TestQuickMulCornersSound(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		span := func() (ept, ept) {
			a := r.Float64()*20 - 10
			b := r.Float64()*20 - 10
			if a > b {
				a, b = b, a
			}
			return ept{v: a, open: r.Intn(2) == 0}, ept{v: b, open: r.Intn(2) == 0}
		}
		xlo, xhi := span()
		ylo, yhi := span()
		lo, hi := mulCorners(xlo, xhi, ylo, yhi)
		for i := 0; i < 30; i++ {
			x := xlo.v + r.Float64()*(xhi.v-xlo.v)
			y := ylo.v + r.Float64()*(yhi.v-ylo.v)
			p := x * y
			if p < lo.v || p > hi.v {
				return false
			}
			// an open endpoint must not be attainable by interior points
			if lo.open && p == lo.v && x != xlo.v && x != xhi.v && y != ylo.v && y != yhi.v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Errorf("mulCorners: %v", err)
	}
}

func TestNegOfSubEndpoints(t *testing.T) {
	a := ept{v: 3, open: true}
	n := negOf(a)
	if n.v != -3 || !n.open {
		t.Errorf("negOf = %+v", n)
	}
	// subLo(z, y) = lower endpoint of z - y using y's upper endpoint
	lo := subLo(ept{v: 10, open: false}, ept{v: 4, open: true})
	if lo.v != 6 || !lo.open {
		t.Errorf("subLo = %+v", lo)
	}
	hi := subHi(ept{v: 10, open: true}, ept{v: 4, open: false})
	if hi.v != 6 || !hi.open {
		t.Errorf("subHi = %+v", hi)
	}
}

func TestMinMaxEpt(t *testing.T) {
	a := ept{v: 1, open: true}
	b := ept{v: 1, open: false}
	if m := minEpt(a, b); m.open {
		t.Error("tie openness must be conjunctive")
	}
	if m := maxEpt(a, b); m.open {
		t.Error("tie openness must be conjunctive")
	}
	c := ept{v: 2, open: true}
	if m := minEpt(a, c); m.v != 1 || !m.open {
		t.Errorf("minEpt = %+v", m)
	}
	if m := maxEpt(a, c); m.v != 2 || !m.open {
		t.Errorf("maxEpt = %+v", m)
	}
}

func TestRounding(t *testing.T) {
	x := 1.5
	if roundDown(x) >= x || roundUp(x) <= x {
		t.Error("rounding directions")
	}
	if !math.IsInf(roundDown(math.Inf(-1)), -1) {
		t.Error("inf passthrough")
	}
	if !math.IsNaN(roundUp(math.NaN())) {
		t.Error("nan passthrough")
	}
}
