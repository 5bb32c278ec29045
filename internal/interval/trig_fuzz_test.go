package interval

import (
	"math"
	"testing"
)

// bisectRef is the plain bisection InvSin/InvCos/InvTan performed
// before the forward-enclosure shortcut: reject x when f(x) misses zz,
// otherwise trim each end by 16 bisection steps.  It is the oracle
// FuzzTrigInverse holds shrinkTrig to, bit for bit.
func bisectRef(zz, x Interval, f func(Interval) Interval) Interval {
	feasible := func(p Interval) bool { return !f(p).Intersect(zz).IsEmpty() }
	if !feasible(x) {
		return Empty()
	}
	const steps = 16
	l, r := x.Lo, x.Hi
	for i := 0; i < steps && r-l > 0; i++ {
		m := l/2 + r/2
		if feasible(Interval{l, m}) {
			r = m
		} else {
			l = m
		}
	}
	newLo := l
	l, r = newLo, x.Hi
	for i := 0; i < steps && r-l > 0; i++ {
		m := l/2 + r/2
		if feasible(Interval{m, r}) {
			l = m
		} else {
			r = m
		}
	}
	return New(newLo, r)
}

// trigInverse names one inverse projection under test with its forward
// function, its point function and its range.
type trigInverse struct {
	name  string
	inv   func(z, x Interval) Interval
	fwd   func(Interval) Interval
	point func(float64) float64
	rng   Interval
}

var trigInverses = []trigInverse{
	{"InvSin", InvSin, Interval.Sin, math.Sin, Interval{-1, 1}},
	{"InvCos", InvCos, Interval.Cos, math.Cos, Interval{-1, 1}},
	{"InvTan", InvTan, Interval.Tan, math.Tan, Entire()},
}

// refInverse is the oracle's full projection: the same guards as the
// production wrappers, then plain bisection.
func refInverse(ti trigInverse, z, x Interval) Interval {
	if z.IsEmpty() || x.IsEmpty() {
		return Empty()
	}
	zz := z.Intersect(ti.rng)
	if zz.IsEmpty() {
		return Empty()
	}
	if x.Width() >= math.Pi || math.IsInf(x.Lo, 0) || math.IsInf(x.Hi, 0) {
		return x
	}
	return bisectRef(zz, x, ti.fwd)
}

// ulps returns a value n ulps above (n > 0) or below v.
func ulps(v float64, n int) float64 {
	dir := math.Inf(1)
	if n < 0 {
		dir, n = math.Inf(-1), -n
	}
	for ; n > 0; n-- {
		v = math.Nextafter(v, dir)
	}
	return v
}

// FuzzTrigInverse checks InvSin, InvCos and InvTan (selected by op%3)
// on x = [xlo, xhi], z = [zlo, zhi]: the result must equal plain
// bisection bit for bit and contain every sampled x point whose image
// lies in z.  Points whose image is within a few ulps of z's boundary
// are not sampled: there the point function's own rounding, not the
// projection, decides membership.
func FuzzTrigInverse(f *testing.F) {
	half := math.Pi / 2
	for op := uint8(0); op < 3; op++ {
		for _, k := range []float64{-1, 0, 1} {
			for _, ph := range []float64{half + 2*k*math.Pi, -half + 2*k*math.Pi} {
				// endpoints within a few ulps of the phase points
				for _, n := range []int{-3, -1, 0, 1, 3} {
					p := ulps(ph, n)
					f.Add(op, p, p+0.3, 0.2, 1.0)
					f.Add(op, p-0.3, p, -1.0, 0.9)
					f.Add(op, p-0.25, p+0.25, 0.999, 1.0)
				}
			}
		}
		// widths just under π
		f.Add(op, 0.1, ulps(0.1+math.Pi, -2), -0.5, 0.5)
		f.Add(op, -2.0, ulps(-2.0+math.Pi, -1), 0.3, 0.8)
		// z touching ±1
		f.Add(op, 0.2, 1.2, 1.0, 2.0)
		f.Add(op, -1.4, 0.4, -3.0, -1.0)
		f.Add(op, 1.0, 2.0, ulps(1, -1), 1.0)
		// point intervals
		f.Add(op, 0.5, 0.5, 0.0, 1.0)
		f.Add(op, 0.5, 0.5, 0.6, 1.0)
		f.Add(op, half, half, 1.0, 1.0)
		// contained, one side contracts, both sides contract
		f.Add(op, 0.1, 0.5, -2.0, 2.0)
		f.Add(op, 0.1, 0.5, 0.0, math.Sin(0.3))
		f.Add(op, 0.1, 0.5, math.Sin(0.2), math.Sin(0.4))
		// subnormal ends
		f.Add(op, 5e-324, 1.5e-323, -1.0, 1.0)
		f.Add(op, -1e-320, 1e-320, 1e-321, 1.0)
	}
	f.Fuzz(func(t *testing.T, op uint8, xlo, xhi, zlo, zhi float64) {
		ti := trigInverses[int(op)%len(trigInverses)]
		x, z := New(xlo, xhi), New(zlo, zhi)
		got, want := ti.inv(z, x), refInverse(ti, z, x)
		if math.Float64bits(got.Lo) != math.Float64bits(want.Lo) ||
			math.Float64bits(got.Hi) != math.Float64bits(want.Hi) {
			t.Fatalf("%s(z=%v, x=%v) = [%v, %v], bisection gives [%v, %v]",
				ti.name, z, x, got.Lo, got.Hi, want.Lo, want.Hi)
		}
		if x.IsEmpty() || z.IsEmpty() || math.IsInf(x.Lo, 0) || math.IsInf(x.Hi, 0) {
			return
		}
		const samples = 32
		for i := 0; i <= samples; i++ {
			p := x.Lo + (x.Hi-x.Lo)*float64(i)/samples
			if i == samples {
				p = x.Hi
			}
			if p < x.Lo || p > x.Hi {
				continue
			}
			y := ti.point(p)
			if math.IsNaN(y) || ulps(y, -4) < z.Lo || ulps(y, 4) > z.Hi {
				continue
			}
			if !got.Contains(p) {
				t.Fatalf("%s(z=%v, x=%v) = %v drops preimage %v (image %v)",
					ti.name, z, x, got, p, y)
			}
		}
	})
}

// BenchmarkInvSin times InvSin on x = [0.1, 0.5], where sin is
// increasing, for three z: one containing sin(x) (no contraction), one
// cutting only the right end, one cutting both ends.
func BenchmarkInvSin(b *testing.B) {
	x := New(0.1, 0.5)
	for _, c := range []struct {
		name string
		z    Interval
	}{
		{"contained", x.Sin()},
		{"one-side", New(-1, math.Sin(0.3))},
		{"both-sides", New(math.Sin(0.2), math.Sin(0.4))},
	} {
		b.Run(c.name, func(b *testing.B) {
			var r Interval
			for i := 0; i < b.N; i++ {
				r = InvSin(c.z, x)
			}
			if r.IsEmpty() {
				b.Fatal("empty projection")
			}
		})
	}
}
