package ic3icp

import (
	"testing"
	"time"

	"icpic3/internal/benchmarks"
	"icpic3/internal/engine"
)

// TestCountersReported checks that the Counters table is the single
// source of the reported work profile: every finished run carries every
// key (zero included), and on a run that exercises them all, every key
// moves — so a table key that no increment site writes, e.g. a typo,
// fails here instead of reading as zero in every sink.
func TestCountersReported(t *testing.T) {
	budget := engine.Budget{Timeout: 30 * time.Second}
	quiet := Check(benchmarks.Must(benchmarks.Poly(true, 0)).Sys, Options{Budget: budget})
	busy := Check(benchmarks.Must(benchmarks.Frozen(false, 0)).Sys, Options{Budget: budget})
	if quiet.Verdict != engine.Safe || busy.Verdict != engine.Unsafe {
		t.Fatalf("verdicts = %v, %v; want safe, unsafe", quiet.Verdict, busy.Verdict)
	}
	seen := map[string]bool{}
	for _, c := range Counters {
		if seen[c.Key] || c.Help == "" {
			t.Errorf("counter %q duplicated or without help", c.Key)
		}
		seen[c.Key] = true
		if _, ok := quiet.Stats[c.Key]; !ok {
			t.Errorf("counter %q missing from a finished run's Stats", c.Key)
		}
		if busy.Stats[c.Key] == 0 {
			t.Errorf("counter %q never moved on frozen-unsafe-0", c.Key)
		}
	}
}
