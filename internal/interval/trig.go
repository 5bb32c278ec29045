package interval

import "math"

// Tan returns an enclosure of {tan(a) : a in v, a not at a pole}.
// Intervals containing a pole yield the entire line.
func (v Interval) Tan() Interval {
	if v.IsEmpty() {
		return Empty()
	}
	// poles at π/2 + kπ: the 2π-periodic phase check must cover both
	// residues π/2 and -π/2
	if v.Width() >= math.Pi || crossesPhase(v, math.Pi/2) || crossesPhase(v, -math.Pi/2) {
		return Entire()
	}
	return outward(math.Tan(v.Lo), math.Tan(v.Hi))
}

// Atan returns an enclosure of {atan(a) : a in v} ⊆ (-π/2, π/2).
func (v Interval) Atan() Interval {
	if v.IsEmpty() {
		return Empty()
	}
	res := outward(math.Atan(v.Lo), math.Atan(v.Hi))
	half := math.Pi / 2
	if res.Lo < -half {
		res.Lo = -half
	}
	if res.Hi > half {
		res.Hi = half
	}
	return res
}

// Tanh returns an enclosure of {tanh(a) : a in v} ⊆ [-1, 1].
func (v Interval) Tanh() Interval {
	if v.IsEmpty() {
		return Empty()
	}
	res := outward(math.Tanh(v.Lo), math.Tanh(v.Hi))
	if res.Lo < -1 {
		res.Lo = -1
	}
	if res.Hi > 1 {
		res.Hi = 1
	}
	return res
}

// InvTan projects z = tan(x) onto x given x's current domain.  As with
// InvSin, contraction happens only when x is narrower than one period.
func InvTan(z, x Interval) Interval {
	if z.IsEmpty() || x.IsEmpty() {
		return Empty()
	}
	if x.Width() >= math.Pi || math.IsInf(x.Lo, 0) || math.IsInf(x.Hi, 0) {
		return x
	}
	return shrinkTrig(z, x, Interval.Tan)
}

// InvAtan projects z = atan(x) onto x: x = tan(z ∩ (-π/2, π/2)).
func InvAtan(z Interval) Interval {
	half := math.Pi / 2
	zz := z.Intersect(Interval{-half, half})
	if zz.IsEmpty() {
		return Empty()
	}
	return zz.Tan()
}

// InvTanh projects z = tanh(x) onto x: x = atanh(z ∩ (-1, 1)).
func InvTanh(z Interval) Interval {
	zz := z.Intersect(Interval{-1, 1})
	if zz.IsEmpty() {
		return Empty()
	}
	lo := math.Inf(-1)
	if zz.Lo > -1 {
		lo = down(math.Atanh(zz.Lo))
	}
	hi := math.Inf(1)
	if zz.Hi < 1 {
		hi = up(math.Atanh(zz.Hi))
	}
	return New(lo, hi)
}
