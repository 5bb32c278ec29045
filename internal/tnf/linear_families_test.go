package tnf_test

import (
	"fmt"
	"testing"

	"icpic3/internal/benchmarks"
	"icpic3/internal/expr"
	"icpic3/internal/tnf"
)

// TestLinearNormalizeBenchmarkFamilies pins which benchmark comparisons
// the compiler rewrites, over every generator, polarity and grid point:
// thermostat's two mode equations are rewritten; pendulum's w' and poly's
// x' equations repeat an atom but fold inexactly and come back
// unchanged; every other comparison has no repeated atom and comes back
// unchanged (the same pointer).
func TestLinearNormalizeBenchmarkFamilies(t *testing.T) {
	type gen func(bool, int) (benchmarks.Instance, error)
	gens := []gen{benchmarks.Poly, benchmarks.Logistic, benchmarks.Vehicle, benchmarks.Thermostat,
		benchmarks.Pendulum, benchmarks.CounterNL, benchmarks.Frozen}
	rewritten := map[string]int{}
	for _, g := range gens {
		for _, safe := range []bool{true, false} {
			// 12 covers every family's parameter cycle (poly and logistic
			// have 12 grid points, pendulum 6, the others 3)
			for idx := 0; idx < 12; idx++ {
				in := benchmarks.Must(g(safe, idx))
				sys := in.Sys
				var cmps []*expr.Expr
				for _, f := range []*expr.Expr{sys.Init, sys.Trans, sys.Prop, expr.Weaken(sys.Prop, 1e-3)} {
					cmps = comparisons(f, cmps)
				}
				for _, c := range cmps {
					e := expr.Sub(c.Args[0], c.Args[1])
					got := tnf.LinearNormalize(e)
					var kind string
					switch {
					case got != e:
						kind = "rewritten"
						rewritten[in.Family]++
					case tnf.RepeatsAtom(e):
						kind = "fallback"
					default:
						kind = "unchanged"
					}
					if want := expectedNormalization(in.Family, c); kind != want {
						t.Errorf("%s: %s is %s, want %s", in.Name, c, kind, want)
					}
				}
			}
		}
	}
	if fmt.Sprint(rewritten) != "map[thermostat:48]" {
		t.Errorf("rewritten comparisons per family = %v, want thermostat's 2 mode equations × 24 instances", rewritten)
	}
}

// expectedNormalization classifies one benchmark comparison.
func expectedNormalization(family string, c *expr.Expr) string {
	lhs := c.Args[0]
	if c.Op != expr.OpEq || lhs.Op != expr.OpVar {
		return "unchanged"
	}
	switch {
	case family == "thermostat" && lhs.Name == "T'":
		return "rewritten"
	case family == "pendulum" && lhs.Name == "w'", family == "poly" && lhs.Name == "x'":
		return "fallback"
	}
	return "unchanged"
}

// comparisons appends the numeric comparisons in e's Boolean structure.
func comparisons(e *expr.Expr, out []*expr.Expr) []*expr.Expr {
	switch e.Op {
	case expr.OpLe, expr.OpLt, expr.OpGe, expr.OpGt, expr.OpEq, expr.OpNeq:
		return append(out, e)
	}
	for _, a := range e.Args {
		out = comparisons(a, out)
	}
	return out
}
