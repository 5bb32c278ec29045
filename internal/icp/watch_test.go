package icp

import (
	"testing"

	"icpic3/internal/expr"
	"icpic3/internal/interval"
	"icpic3/internal/tnf"
)

// checkWatchInvariant fails t unless the watch lists mirror the clause
// database exactly: every watched literal has exactly one entry on its
// (var, dir) list, every entry belongs to a clause with a watch on that
// list, and every entry's bound equals the summary recomputed from the
// clause.  A stale bound could let propagateWatch skip a clause whose
// watch has fallen; a stale or duplicate entry would change the
// WatchVisits count.
func checkWatchInvariant(t testing.TB, s *Solver) {
	t.Helper()
	type key struct {
		ci  int32
		v   tnf.VarID
		dir tnf.Dir
	}
	entries := map[key]int{}
	for _, side := range []struct {
		lists [][]watch
		dir   tnf.Dir
	}{{s.watchLe, tnf.DirLe}, {s.watchGe, tnf.DirGe}} {
		for vi, list := range side.lists {
			v := tnf.VarID(vi)
			for _, w := range list {
				if w.ci < 0 || int(w.ci) >= len(s.clauses) {
					t.Fatalf("var %d dir %v: entry for clause %d of %d", v, side.dir, w.ci, len(s.clauses))
				}
				b, on := watchBound(&s.clauses[w.ci], v, side.dir)
				if !on {
					t.Fatalf("var %d dir %v: entry for clause %d, which has no watch there", v, side.dir, w.ci)
				}
				if b != w.b {
					t.Fatalf("var %d dir %v: clause %d entry bound %v, clause gives %v", v, side.dir, w.ci, w.b, b)
				}
				entries[key{w.ci, v, side.dir}]++
			}
		}
	}
	for ci := range s.clauses {
		c := &s.clauses[ci]
		for _, wi := range []int32{c.w0, c.w1} {
			if wi < 0 {
				continue
			}
			l := c.lits[wi]
			if n := entries[key{int32(ci), l.Var, l.Dir}]; n != 1 {
				t.Fatalf("clause %d watch %v has %d entries on its list, want 1", ci, l, n)
			}
		}
	}
}

// TestWatchInvariantAcrossReduceAndClone drives a solver through
// conflict-heavy queries with ReduceInterval=8, so learned clauses are
// deleted and the watch lists rebuilt many times, and checks the watch
// invariant after every Solve, on a Clone, and on the clone after it
// solves on its own.
func TestWatchInvariantAcrossReduceAndClone(t *testing.T) {
	sys := tnf.NewSystem()
	for _, n := range []string{"x", "y"} {
		if _, err := sys.AddVar(n, false, interval.New(-4, 4)); err != nil {
			t.Fatal(err)
		}
	}
	if err := sys.Assert(expr.MustParse("x*x + y*y <= 4 and x + y >= 1 and sin(x) <= 0.9")); err != nil {
		t.Fatal(err)
	}
	x, _ := sys.Lookup("x")
	y, _ := sys.Lookup("y")
	s := New(sys, Options{Eps: 1e-3, ReduceInterval: 8})
	queries := [][]tnf.Lit{
		nil,
		{tnf.MkGe(x, 3)},
		{tnf.MkLe(y, -2), tnf.MkLe(x, 0)},
		{tnf.MkGe(x, 1), tnf.MkGe(y, 1)},
		{tnf.MkGe(x, 1.9), tnf.MkGe(y, 0.5)},
		{tnf.MkLe(x, -1)},
		{tnf.MkGe(y, 1.5), tnf.MkLe(x, -0.6)},
		{tnf.MkGe(y, 1)},
		{tnf.MkLe(y, -0.8)},
	}
	for round := 0; round < 6; round++ {
		for i := 0; i < 10; i++ {
			// root-satisfied fodder, deletable by the next reduction
			b := float64(round*10 + i)
			s.AddClause(tnf.Clause{tnf.MkGe(x, -100-b), tnf.MkGe(y, -100), tnf.MkLe(x, 100+b)})
		}
		// watched on x and y; the y >= 1 (y <= -0.8) query falsifies the
		// y watch, which moves onto the x list next to its co-watch with
		// a tighter bound, so that entry's bound must follow
		d := float64(round) / 100
		s.AddClause(tnf.Clause{tnf.MkLe(x, 1.8+d), tnf.MkLe(y, 0.5), tnf.MkLe(x, 1.2-d)})
		s.AddClause(tnf.Clause{tnf.MkGe(x, -1.8-d), tnf.MkGe(y, -0.5), tnf.MkGe(x, -1.2+d)})
		for _, q := range queries {
			s.Solve(q)
			checkWatchInvariant(t, s)
		}
	}
	if s.Stats.Reductions == 0 || s.Stats.ClausesDeleted == 0 {
		t.Fatalf("%d reductions deleted %d clauses; fixture exercises nothing",
			s.Stats.Reductions, s.Stats.ClausesDeleted)
	}
	c := s.Clone()
	checkWatchInvariant(t, c)
	for _, q := range queries {
		rc, rs := c.Solve(q), s.Solve(q)
		if rc.Status != rs.Status {
			t.Fatalf("assumptions %v: clone %v, original %v", q, rc.Status, rs.Status)
		}
		checkWatchInvariant(t, c)
		checkWatchInvariant(t, s)
	}
}

// watchFixture returns a solver over x, y, w ∈ [0, 10] with the given
// clauses installed and seeded at level 0.
func watchFixture(t *testing.T, clauses func(x, y, w tnf.VarID) []tnf.Clause) (*Solver, [3]tnf.VarID) {
	t.Helper()
	sys := tnf.NewSystem()
	var vs [3]tnf.VarID
	for i, n := range []string{"x", "y", "w"} {
		v, err := sys.AddVar(n, false, interval.New(0, 10))
		if err != nil {
			t.Fatal(err)
		}
		vs[i] = v
	}
	s := New(sys, Options{})
	for _, c := range clauses(vs[0], vs[1], vs[2]) {
		s.AddClause(c)
	}
	if cf := s.propagate(); cf != nil {
		t.Fatal("seeding conflicted")
	}
	return s, vs
}

// raise sets v's lower bound to b at the current level and propagates.
func raise(t *testing.T, s *Solver, v tnf.VarID, b float64) {
	t.Helper()
	if cf, changed := s.setBound(v, sideLo, b, false, 0, reasonDecision, -1, -1, nil); cf != nil || !changed {
		t.Fatalf("setBound: conflict=%v changed=%v", cf, changed)
	}
	if cf := s.propagate(); cf != nil {
		t.Fatal("propagation conflicted")
	}
}

// TestWatchSkipRereadsBound pins the skip test to the bound as it is
// when each entry is reached.  Raising x to 2 scans watchLe[x] =
// [C1, C2, C3]: C1 asserts x >= 6, which falsifies C2's watch x <= 4
// mid-scan.  Visiting every entry in order, as the skip must
// reproduce, asserts C2's y >= 1 before C3's w >= 1; a bound read once
// per event would skip C2 and leave y >= 1 to the later x >= 6 scan.
func TestWatchSkipRereadsBound(t *testing.T) {
	s, vs := watchFixture(t, func(x, y, w tnf.VarID) []tnf.Clause {
		return []tnf.Clause{
			{tnf.MkLe(x, 1), tnf.MkGe(x, 6)},
			{tnf.MkLe(x, 4), tnf.MkGe(y, 1)},
			{tnf.MkLe(x, 1.5), tnf.MkGe(w, 1)},
		}
	})
	mark := len(s.trail)
	raise(t, s, vs[0], 2)
	want := []struct {
		v tnf.VarID
		b float64
	}{{vs[0], 2}, {vs[0], 6}, {vs[1], 1}, {vs[2], 1}}
	got := s.trail[mark:]
	if len(got) != len(want) {
		t.Fatalf("trail has %d new events, want %d", len(got), len(want))
	}
	for i, e := range got {
		if e.v != want[i].v || e.side != sideLo || e.nb != want[i].b {
			t.Errorf("event %d raises var %d to %v (side %d), want var %d to %v",
				i, e.v, e.nb, e.side, want[i].v, want[i].b)
		}
	}
}

// TestWatchSkipVisitsUnitClauses pins the ∓Inf bound of single-literal
// clauses: x <= 1 asserted at level 1 and undone by the backtrack must
// be re-asserted by the next event on watchLe[x], although that event
// (x >= 0.5) leaves the literal far from false.
func TestWatchSkipVisitsUnitClauses(t *testing.T) {
	s, vs := watchFixture(t, func(x, y, w tnf.VarID) []tnf.Clause { return nil })
	x := vs[0]
	s.pushLevel()
	s.AddClause(tnf.Clause{tnf.MkLe(x, 1)})
	if cf := s.propagate(); cf != nil || s.hi[x] != 1 {
		t.Fatalf("unit clause not asserted: conflict=%v hi=%v", cf, s.hi[x])
	}
	s.cancelUntil(0)
	if s.hi[x] != 10 {
		t.Fatalf("backtrack left hi = %v", s.hi[x])
	}
	raise(t, s, x, 0.5)
	if s.hi[x] != 1 {
		t.Errorf("x >= 0.5 did not re-assert the unit clause: hi = %v", s.hi[x])
	}
}
