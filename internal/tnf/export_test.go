package tnf

import "icpic3/internal/expr"

// RepeatsAtom exposes LinearNormalize's pre-scan to the external tests:
// whether some atom of e's linear spine occurs more than once.
func RepeatsAtom(e *expr.Expr) bool {
	var sc linScan
	return sc.repeats(e)
}
