package tnf

import (
	"math"

	"icpic3/internal/expr"
	"icpic3/internal/interval"
)

// Linear normalization (DESIGN.md §17).
//
// A comparison lhs ⋈ rhs compiles to a bound on d = lhs - rhs, and the
// solver encloses d by interval evaluation of its TNF chain.  When one
// subterm occurs more than once in that chain — T' - (T + 0.5·(P - T))
// mentions T twice — each occurrence ranges independently and the
// enclosure of d is too wide (the dependency problem), so the solver
// splits to refute what T' - 0.5·T - 0.5·P refutes by propagation.
//
// LinearNormalize collects like terms on the linear spine of d (sums,
// differences, negations and products with an atom-free factor) into
// Σ cᵢ·atomᵢ + c₀ with each atom once.  An atom is any other subterm —
// a variable, sin(th), x^3, x*y — compared structurally.  The rewrite is
// taken only when it denotes the same real function as its input:
//
//   - every coefficient product and sum is exact in float64
//     (interval.ExactProduct, interval.ExactSum), so the folded constants
//     are the real values the input's constants denote;
//   - an atom whose coefficients cancel to zero is dropped only when it
//     is total: dropping log(x) would drop the implicit x > 0;
//   - every constant is finite.
//
// Otherwise the input is returned unchanged (the same pointer), as it is
// when no atom repeats.  The pre-scan that decides the common no-repeat
// case walks the spine with a fixed-size atom buffer and allocates
// nothing; the linear form is built only once a repeat is found.

// linScanCap is the pre-scan's atom buffer.  A spine with more distinct
// atoms than this skips the pre-scan's verdict and is decided by the
// full pass, which allocates but sees every atom.
const linScanCap = 16

// LinearNormalize returns e with like terms collected on its linear
// spine, or e itself when no atom repeats or a fold is inexact.
func LinearNormalize(e *expr.Expr) *expr.Expr {
	var scan linScan
	if !scan.repeats(e) {
		return e
	}
	var lf linForm
	if !lf.add(e, 1) || !lf.repeated {
		return e
	}
	for _, t := range lf.terms {
		if t.c == 0 && !expr.Total(t.atom) {
			return e
		}
	}
	return lf.expr()
}

// linScan is the allocation-free pre-scan: the atoms seen so far.
type linScan struct {
	atoms [linScanCap]*expr.Expr
	n     int
}

// repeats reports whether some atom of e's linear spine occurs twice, or
// whether the spine has more distinct atoms than the buffer holds.
func (sc *linScan) repeats(e *expr.Expr) bool {
	switch e.Op {
	case expr.OpConst:
		return false
	case expr.OpAdd, expr.OpSub:
		return sc.repeats(e.Args[0]) || sc.repeats(e.Args[1])
	case expr.OpNeg:
		return sc.repeats(e.Args[0])
	case expr.OpMul:
		if atomFree(e.Args[0]) {
			return sc.repeats(e.Args[1])
		}
		if atomFree(e.Args[1]) {
			return sc.repeats(e.Args[0])
		}
	}
	for i := 0; i < sc.n; i++ {
		if sameExpr(sc.atoms[i], e) {
			return true
		}
	}
	if sc.n == len(sc.atoms) {
		return true
	}
	sc.atoms[sc.n] = e
	sc.n++
	return false
}

// atomFree reports whether e is built from constants by the spine's
// operators alone, so it folds to a coefficient.
func atomFree(e *expr.Expr) bool {
	switch e.Op {
	case expr.OpConst:
		return true
	case expr.OpAdd, expr.OpSub, expr.OpMul:
		return atomFree(e.Args[0]) && atomFree(e.Args[1])
	case expr.OpNeg:
		return atomFree(e.Args[0])
	}
	return false
}

// sameExpr is structural equality of expression trees.
func sameExpr(a, b *expr.Expr) bool {
	if a == b {
		return true
	}
	if a.Op != b.Op || a.Val != b.Val || a.Name != b.Name || a.N != b.N || len(a.Args) != len(b.Args) {
		return false
	}
	for i := range a.Args {
		if !sameExpr(a.Args[i], b.Args[i]) {
			return false
		}
	}
	return true
}

// linTerm is one collected atom with its folded coefficient.
type linTerm struct {
	atom *expr.Expr
	c    float64
}

// linForm is Σ terms[i].c·terms[i].atom + c0, atoms in order of first
// appearance.
type linForm struct {
	terms    []linTerm
	c0       float64
	repeated bool // some atom was met twice
}

// add accumulates c·e into the form.  It reports false when a fold is
// inexact or a constant is not finite.
func (lf *linForm) add(e *expr.Expr, c float64) bool {
	switch e.Op {
	case expr.OpConst:
		p, ok := times(c, e)
		if !ok {
			return false
		}
		lf.c0, ok = interval.ExactSum(lf.c0, p)
		return ok
	case expr.OpAdd:
		return lf.add(e.Args[0], c) && lf.add(e.Args[1], c)
	case expr.OpSub:
		return lf.add(e.Args[0], c) && lf.add(e.Args[1], -c)
	case expr.OpNeg:
		return lf.add(e.Args[0], -c)
	case expr.OpMul:
		for i, k := range e.Args {
			if atomFree(k) {
				cv, ok := times(c, k)
				return ok && lf.add(e.Args[1-i], cv)
			}
		}
	}
	for i := range lf.terms {
		if sameExpr(lf.terms[i].atom, e) {
			lf.repeated = true
			s, ok := interval.ExactSum(lf.terms[i].c, c)
			lf.terms[i].c = s
			return ok
		}
	}
	lf.terms = append(lf.terms, linTerm{atom: e, c: c})
	return true
}

// times returns c times the value of the atom-free term k, reporting
// false on an inexact step.
func times(c float64, k *expr.Expr) (float64, bool) {
	v, ok := constValue(k)
	if !ok {
		return 0, false
	}
	return interval.ExactProduct(c, v)
}

// constValue folds an atom-free term, reporting false on an inexact step.
func constValue(e *expr.Expr) (float64, bool) {
	switch e.Op {
	case expr.OpConst:
		return e.Val, !math.IsInf(e.Val, 0) && !math.IsNaN(e.Val)
	case expr.OpNeg:
		v, ok := constValue(e.Args[0])
		return -v, ok
	}
	a, ok := constValue(e.Args[0])
	if !ok {
		return 0, false
	}
	b, ok := constValue(e.Args[1])
	if !ok {
		return 0, false
	}
	switch e.Op {
	case expr.OpAdd:
		return interval.ExactSum(a, b)
	case expr.OpSub:
		return interval.ExactSum(a, -b)
	}
	return interval.ExactProduct(a, b)
}

// expr renders the form as t₁ ± (Σᵢ₌₂ |cᵢ|·atomᵢ ± |c₀|), zero terms left
// out, with the sign chosen so the bracketed sum starts positive.  The
// first atom — usually the comparison's left-hand side, T' in
// T' = T + 0.5·(P − T) — then meets the difference variable in one
// constraint, as in lhs − rhs, and root-level folding (Simplify) reaches
// it from a fixed difference in a single pass.
func (lf *linForm) expr() *expr.Expr {
	var first *expr.Expr
	var rest []linTerm // a nil atom stands for the constant
	for _, t := range lf.terms {
		switch {
		case t.c == 0:
		case first == nil:
			first = scaled(t.atom, t.c)
		default:
			rest = append(rest, t)
		}
	}
	if first == nil {
		return expr.Num(lf.c0)
	}
	if lf.c0 != 0 {
		rest = append(rest, linTerm{c: lf.c0})
	}
	if len(rest) == 0 {
		return first
	}
	sign := math.Copysign(1, rest[0].c)
	var sum *expr.Expr
	for _, t := range rest {
		mag := expr.Num(math.Abs(t.c))
		if t.atom != nil {
			mag = scaled(t.atom, math.Abs(t.c))
		}
		switch {
		case sum == nil:
			sum = mag
		case t.c*sign < 0:
			sum = expr.Sub(sum, mag)
		default:
			sum = expr.Add(sum, mag)
		}
	}
	if sign < 0 {
		return expr.Sub(first, sum)
	}
	return expr.Add(first, sum)
}

// scaled returns c·atom with the unit coefficients written without a
// product.
func scaled(atom *expr.Expr, c float64) *expr.Expr {
	switch c {
	case 1:
		return atom
	case -1:
		return expr.Neg(atom)
	}
	return expr.Mul(expr.Num(c), atom)
}
