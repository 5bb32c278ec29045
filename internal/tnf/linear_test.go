package tnf

import (
	"math"
	"math/big"
	"sort"
	"testing"

	"icpic3/internal/expr"
	"icpic3/internal/interval"
)

// diff parses a comparison and returns lhs - rhs, the term compileCmp and
// compileEq normalize.
func diff(t testing.TB, src string) *expr.Expr {
	t.Helper()
	c, err := expr.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	return expr.Sub(c.Args[0], c.Args[1])
}

func TestLinearNormalize(t *testing.T) {
	cases := []struct {
		src  string
		want string // "" = returned unchanged (same pointer)
	}{
		// thermostat's two modes: T occurs twice, every fold is exact
		{"T' = T + 0.5 * (30 - T)", "(T' - ((0.5 * T) + 15))"},
		{"T' = T - 0.25 * T", "(T' - (0.75 * T))"},
		// pendulum and poly repeat an atom but fold inexactly
		// (0.2·0.8 and 0.2·0.25 are not floats)
		{"w' = w + 0.2 * (-1 * sin(th) - 0.8 * w)", ""},
		{"x' = x + 0.2 * (1 * x - 0.25 * x^3)", ""},
		// no repeated atom: vehicle, logistic, counternl
		{"v' = v + 0.5 * (4 - 0.01 * v^2)", ""},
		{"x' = 2.2 * x * (1 - x)", ""},
		{"n' = min(2 * n, 64)", ""},
		// non-linear atoms are compared structurally
		{"sin(x) + x * y <= 2 * sin(x) - x * y", "((-sin(x)) + (2 * (x * y)))"},
		// atom-free factors fold, on either side of a product
		{"x * (3 - 1) <= (-1) * x + 4", "((3 * x) - 4)"},
		// the bracketed rest starts positive; its later terms keep their signs
		{"y + 2 * x <= y - (-3) * z + x - 1", "(x - ((3 * z) - 1))"},
		// a total atom that cancels is dropped; all atoms gone leaves the constant
		{"x + 1 <= x", "1"},
		// a partial atom that cancels would drop its domain: keep the input
		{"log(x) + y <= log(x)", ""},
		// inexact constant fold (0.1 + 0.2 is not a float)
		{"x + 0.1 <= x + (-0.2) + y", ""},
		// underflowing coefficient product
		{"x <= 1e-300 * (1e-300 * x) + x", ""},
	}
	for _, c := range cases {
		e := diff(t, c.src)
		got := LinearNormalize(e)
		if c.want == "" {
			if got != e {
				t.Errorf("%s: rewritten to %s, want unchanged", c.src, got)
			}
			continue
		}
		if got == e || got.String() != c.want {
			t.Errorf("%s: got %s, want %s", c.src, got, c.want)
		}
	}
}

// TestLinearNormalizeNoRewriteAllocs guards the common path: a
// comparison with no repeated atom is scanned without allocating.
func TestLinearNormalizeNoRewriteAllocs(t *testing.T) {
	e := diff(t, "v' = v + 0.5 * (4 - 0.01 * v^2)")
	allocs := testing.AllocsPerRun(100, func() {
		if LinearNormalize(e) != e {
			t.Fatal("vehicle's equation must come back unchanged")
		}
	})
	if allocs != 0 {
		t.Errorf("no-rewrite path allocates %.0f/op, want 0", allocs)
	}
}

// TestCompileNormalizedEquation checks the compiled difference of a
// normalized equation: with T mentioned once, interval evaluation over
// the declared domains is tight.
func TestCompileNormalizedEquation(t *testing.T) {
	s := NewSystem()
	mustVar(t, s, "T", false, 0, 100)
	mustVar(t, s, "T'", false, 0, 100)
	c, err := expr.Parse("T' <= T + 0.5 * (30 - T)")
	if err != nil {
		t.Fatal(err)
	}
	l, err := s.CompileBool(c)
	if err != nil {
		t.Fatal(err)
	}
	// T' - 0.5·T - 15 over T, T' ∈ [0, 100] is [-65, 85], up to outward
	// rounding.  Written as it was, the difference encloses [-115, 135].
	d := s.Vars[l.Var].Domain
	if !d.ContainsInterval(interval.New(-65, 85)) || d.Lo < -65.001 || d.Hi > 85.001 {
		t.Errorf("difference domain = %v, want [-65, 85]", d)
	}
}

// FuzzLinearNormalize holds LinearNormalize to an exact rational oracle:
// it must not panic; a rewrite must have been warranted by a repeated
// atom, mention every atom once, have exactly the input's rational
// coefficients, and evaluate like the input (within 1e-12 of the summed
// magnitudes of its unfolded terms, the scale of float rounding in
// evaluating it); and a fold the oracle finds inexact must return the
// input pointer.
func FuzzLinearNormalize(f *testing.F) {
	for _, s := range []string{
		"T' = T + 0.5 * (30 - T)",
		"T' = T - 0.25 * T",
		"w' = w + 0.2 * (-1 * sin(th) - 0.8 * w)",
		"x' = x + 0.2 * (1 * x - 0.25 * x^3)",
		"v' = v + 0.5 * (4 - 0.01 * v^2)",
		"x * x - 2 * x * y + y * y >= 0",
		"log(x) - log(x) + 3 * (y - 2 * (y - 1)) <= -x",
		"0 * sqrt(x) + x <= x",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		c, err := expr.Parse(src)
		if err != nil || len(c.Args) != 2 || c.Op < expr.OpLe || c.Op > expr.OpNeq {
			return
		}
		e := expr.Sub(c.Args[0], c.Args[1])
		got := LinearNormalize(e)
		in := ratFormOf(e)
		if !in.exact {
			if got != e {
				t.Fatalf("%s: inexact fold rewritten to %s", e, got)
			}
			return
		}
		if got == e {
			return
		}
		if !in.repeated() {
			t.Fatalf("%s: rewritten to %s without a repeated atom", e, got)
		}
		out := ratFormOf(got)
		if !out.exact || out.repeated() {
			t.Fatalf("%s: rewrite %s is not a linear form with distinct atoms", e, got)
		}
		if in.c0.Cmp(out.c0) != 0 {
			t.Fatalf("%s: constant %v, rewrite %s has %v", e, in.c0, got, out.c0)
		}
		for i, key := range in.keys {
			c := in.coef[i]
			j := out.index(key)
			switch {
			case j >= 0 && c.Cmp(out.coef[j]) != 0:
				t.Fatalf("%s: coefficient of %s is %v, rewrite %s has %v", e, key, c, got, out.coef[j])
			case j < 0 && (c.Sign() != 0 || !expr.Total(in.atoms[i])):
				t.Fatalf("%s: rewrite %s drops %s (coefficient %v)", e, got, key, c)
			}
		}
		if len(out.keys) > len(in.keys) {
			t.Fatalf("%s: rewrite %s invents atoms", e, got)
		}
		vars := map[string]bool{}
		e.Vars(vars)
		for _, pt := range []float64{0.3, -1.7, 2.5} {
			env := expr.Env{}
			v := pt
			for _, name := range sortedNames(vars) { // reproducible points
				env[name] = v
				v = v*1.37 + 0.11
			}
			want, err := e.Eval(env)
			if err != nil || math.IsInf(want, 0) || math.IsNaN(want) {
				continue
			}
			have, err := got.Eval(env)
			if err != nil {
				t.Fatalf("%s: rewrite %s fails at %v: %v", e, got, env, err)
			}
			scale := magnitude(e, env)
			if math.IsInf(scale, 0) || math.IsNaN(scale) {
				continue
			}
			if math.Abs(have-want) > 1e-12*scale {
				t.Fatalf("%s = %v but rewrite %s = %v at %v", e, want, got, have, env)
			}
		}
	})
}

// ratForm is the oracle's linear form: exact rational coefficients per
// atom (keyed by rendering), built without any float arithmetic.
type ratForm struct {
	keys  []string
	atoms []*expr.Expr
	coef  []*big.Rat
	count []int // occurrences of each atom
	c0    *big.Rat
	exact bool // every constant finite and every coefficient a float64
}

func ratFormOf(e *expr.Expr) *ratForm {
	rf := &ratForm{c0: new(big.Rat), exact: true}
	rf.add(e, big.NewRat(1, 1))
	if rf.exact {
		for _, c := range append(rf.coef, rf.c0) {
			if _, exact := c.Float64(); !exact {
				rf.exact = false
			}
		}
	}
	return rf
}

func (rf *ratForm) index(key string) int {
	for i, k := range rf.keys {
		if k == key {
			return i
		}
	}
	return -1
}

func (rf *ratForm) repeated() bool {
	for _, n := range rf.count {
		if n > 1 {
			return true
		}
	}
	return false
}

func (rf *ratForm) add(e *expr.Expr, c *big.Rat) {
	neg := new(big.Rat).Neg(c)
	switch e.Op {
	case expr.OpConst:
		v, ok := ratOf(e.Val)
		if !ok {
			rf.exact = false
			return
		}
		rf.c0.Add(rf.c0, v.Mul(v, c))
		return
	case expr.OpAdd:
		rf.add(e.Args[0], c)
		rf.add(e.Args[1], c)
		return
	case expr.OpSub:
		rf.add(e.Args[0], c)
		rf.add(e.Args[1], neg)
		return
	case expr.OpNeg:
		rf.add(e.Args[0], neg)
		return
	case expr.OpMul:
		for i, k := range e.Args {
			if atomFree(k) {
				v, ok := ratValue(k)
				if !ok {
					rf.exact = false
					return
				}
				rf.add(e.Args[1-i], v.Mul(v, c))
				return
			}
		}
	}
	key := e.String()
	if i := rf.index(key); i >= 0 {
		rf.coef[i].Add(rf.coef[i], c)
		rf.count[i]++
		return
	}
	rf.keys = append(rf.keys, key)
	rf.atoms = append(rf.atoms, e)
	rf.coef = append(rf.coef, new(big.Rat).Set(c))
	rf.count = append(rf.count, 1)
}

func ratOf(v float64) (*big.Rat, bool) {
	if math.IsInf(v, 0) || math.IsNaN(v) {
		return nil, false
	}
	return new(big.Rat).SetFloat64(v), true
}

// ratValue is the exact value of an atom-free term.
func ratValue(e *expr.Expr) (*big.Rat, bool) {
	if e.Op == expr.OpConst {
		return ratOf(e.Val)
	}
	a, ok := ratValue(e.Args[0])
	if !ok {
		return nil, false
	}
	if e.Op == expr.OpNeg {
		return a.Neg(a), true
	}
	b, ok := ratValue(e.Args[1])
	if !ok {
		return nil, false
	}
	switch e.Op {
	case expr.OpAdd:
		return a.Add(a, b), true
	case expr.OpSub:
		return a.Sub(a, b), true
	}
	return a.Mul(a, b), true
}

// magnitude is Σ|cᵢ·atomᵢ| + |constants| over e's unfolded spine at env:
// the scale against which float rounding in evaluating e is measured.
func magnitude(e *expr.Expr, env expr.Env) float64 {
	switch e.Op {
	case expr.OpAdd, expr.OpSub:
		return magnitude(e.Args[0], env) + magnitude(e.Args[1], env)
	case expr.OpNeg:
		return magnitude(e.Args[0], env)
	case expr.OpMul:
		for i, k := range e.Args {
			if atomFree(k) {
				return magnitude(k, env) * magnitude(e.Args[1-i], env)
			}
		}
	}
	v, err := e.Eval(env)
	if err != nil {
		return math.Inf(1)
	}
	return math.Abs(v)
}

func sortedNames(set map[string]bool) []string {
	names := make([]string, 0, len(set))
	for n := range set {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
