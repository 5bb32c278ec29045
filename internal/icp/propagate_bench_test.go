package icp

import (
	"fmt"
	"testing"

	"icpic3/internal/interval"
	"icpic3/internal/tnf"
)

// buildPropBench returns a solver loaded with a clause soup shaped like
// an IC3 frame after many queries: a small fraction of the clauses
// watch the hot variable x0, while the rest merely mention it in an
// unwatched position.  The returned event index is a level-0 raise of
// x0's lower bound to raiseTo.  At 60 it falsifies every watched
// occurrence of MkLe(x0, 50) but asserts nothing (the co-watched
// literal is true by domain); at 40 it falsifies none.  Either way
// repeated propagation over the event is state-stable and can be timed.
func buildPropBench(tb testing.TB, watched, mention int, raiseTo float64) (*Solver, int32) {
	tb.Helper()
	sys := tnf.NewSystem()
	x0, err := sys.AddVar("x0", false, interval.New(0, 100))
	if err != nil {
		tb.Fatal(err)
	}
	const others = 19
	var xs [others]tnf.VarID
	for i := range xs {
		// hi = 80 makes MkLe(xi, 90) true by domain: the watched clauses
		// then take the blocker fast path and the rescan baseline an
		// early satisfied exit, so neither benchmark loop mutates state.
		v, err := sys.AddVar(fmt.Sprintf("x%d", i+1), false, interval.New(0, 80))
		if err != nil {
			tb.Fatal(err)
		}
		xs[i] = v
	}
	s := New(sys, Options{})
	hot := tnf.MkLe(x0, 50)
	for i := 0; i < watched; i++ {
		a, b := xs[i%others], xs[(i+1)%others]
		// hot is lits[0]: pickWatches takes the first two non-false lits,
		// so these clauses sit on watchLe[x0]
		s.AddClause(tnf.Clause{hot, tnf.MkLe(a, 90), tnf.MkLe(b, 90)})
	}
	for i := 0; i < mention; i++ {
		a, b := xs[i%others], xs[(i+2)%others]
		// hot is lits[2]: watched on a and b only, invisible to the
		// watch lists of x0 but still in any occurrence index over it
		s.AddClause(tnf.Clause{tnf.MkLe(a, 90), tnf.MkLe(b, 90), hot})
	}
	cf, changed := s.setBound(x0, sideLo, raiseTo, false, 0, reasonDecision, -1, -1, nil)
	if cf != nil || !changed {
		tb.Fatalf("setBound: conflict=%v changed=%v", cf, changed)
	}
	return s, int32(len(s.trail) - 1)
}

const (
	propBenchWatched = 200
	propBenchMention = 1800
)

// BenchmarkPropagateWatched times processing one falsifying bound event
// through the two-watched-literal lists: only the clauses actually
// watching (x0, ≤) are visited, and each visit is a blocker check.
// About 2.9–4.1 µs/op on a 2-vCPU container, against 2.0–4.2 µs/op
// with bare clause-id entries: every entry's bound is reached, so none
// is skipped.
func BenchmarkPropagateWatched(b *testing.B) {
	benchPropagateWatch(b, 60)
}

// BenchmarkPropagateWatchedSkip is BenchmarkPropagateWatched with an
// event (x0 >= 40) that stays below every entry's bound of 50: each
// entry is kept by one comparison without loading its clause.  About
// 0.5–0.7 µs/op on the same container.
func BenchmarkPropagateWatchedSkip(b *testing.B) {
	benchPropagateWatch(b, 40)
}

func benchPropagateWatch(b *testing.B, raiseTo float64) {
	s, ei := buildPropBench(b, propBenchWatched, propBenchMention, raiseTo)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if cf := s.propagateWatch(ei); cf != nil {
			b.Fatal("unexpected conflict")
		}
	}
}

// BenchmarkPropagateOccRescan is the pre-watch baseline on the same
// instance and event: occurrence-list propagation re-evaluated every
// clause containing the event's (var, dir) literal, watched or not.
func BenchmarkPropagateOccRescan(b *testing.B) {
	s, _ := buildPropBench(b, propBenchWatched, propBenchMention, 60)
	// the occurrence list of (x0, ≤): every clause in this instance
	occ := make([]int32, len(s.clauses))
	for i := range occ {
		occ[i] = int32(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, ci := range occ {
			if cf := s.checkClause(ci); cf != nil {
				b.Fatal("unexpected conflict")
			}
		}
	}
}

// TestPropagateWatchedMatchesRescan pins the two benchmark bodies to
// the same semantics on their shared fixture: neither asserts anything,
// neither conflicts, and the watched pass visits only the watching
// clauses while leaving the trail untouched.
func TestPropagateWatchedMatchesRescan(t *testing.T) {
	s, ei := buildPropBench(t, propBenchWatched, propBenchMention, 60)
	trailLen := len(s.trail)
	before := s.Stats.WatchVisits
	if cf := s.propagateWatch(ei); cf != nil {
		t.Fatal("watched pass conflicted")
	}
	visits := s.Stats.WatchVisits - before
	if visits != propBenchWatched {
		t.Errorf("watched pass visited %d clauses, want %d", visits, propBenchWatched)
	}
	for ci := range s.clauses {
		if cf := s.checkClause(int32(ci)); cf != nil {
			t.Fatalf("rescan conflicted on clause %d", ci)
		}
	}
	if len(s.trail) != trailLen {
		t.Errorf("trail grew from %d to %d events; fixture is not state-stable", trailLen, len(s.trail))
	}
}
