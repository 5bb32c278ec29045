package ic3icp

// Counter is one reported work counter of a run: its Result.Stats key
// and a one-line description.
type Counter struct {
	Key  string
	Help string
}

// Counters is the single declaration of the work profile that leaves
// the engine.  Check reports every entry in Result.Stats (zero when the
// run never touched it), and every sink iterates this table: the
// harness summaries and BENCH JSON counters, benchdiff's per-counter
// deltas, and the service's icpserve_engine_counter_total family.  A
// new counter is one entry here plus the increment that feeds it.
var Counters = []Counter{
	{"queries", "blocking, bad-state and push queries sent to the main or push solvers"},
	{"pushAttempts", "clause-push consecution queries attempted"},
	{"pushSkippedTriggered", "clause pushes skipped as dormant by the push triggers"},
	{"solverRebuilds", "solver rebuilds from the durable-op log (activation-var GC)"},
	{"ctgBlocked", "counterexamples to generalization blocked"},
	{"prefixKeptLevels", "assumption-prefix levels retained across Solve calls"},
	{"trailEventsSaved", "trail events not redone thanks to prefix retention"},
	{"consecCacheHits", "consecution queries answered from the UNSAT memo"},
	{"consecCacheMisses", "consecution queries that went to a solver"},
	{"tnfOpsPruned", "TNF ops removed by compile-time simplification"},
}
