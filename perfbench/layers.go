package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os/exec"
	"strings"
	"time"

	"icpic3/internal/engine"
	"icpic3/internal/expr"
	"icpic3/internal/tnf"
	"icpic3/internal/ts"
)

// span is one timed call into a layer, recorded by the benchmark around
// the layer's public entry point.  Spans of one instance run share a
// trace id: the engine call, and the certify.Check of its result (run
// after the timed passes) as its child.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"` // 0: root
	Trace  string  `json:"trace"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_us"` // since the first timed pass began
	End    float64 `json:"end_us"`
}

// compileProbe compiles an instance through the tnf API into the
// encoding its engine builds — IC3's two-step query system, simplified
// as ic3icp simplifies it, or BMC's full unrolling — and reports its
// size.  It is the tnf layer measured on its own; the engines' own
// compiles sit inside the engine spans and the profile's tnf share.
func compileProbe(sys *ts.System, eng string) (tnf.Stats, int, error) {
	s := tnf.NewSystem()
	steps := 1
	if eng == "bmc" {
		steps = bmcDepth
	}
	for k := 0; k <= steps; k++ {
		if _, err := sys.DeclareStep(s, k); err != nil {
			return tnf.Stats{}, 0, err
		}
	}
	if err := s.Assert(ts.AtStep(sys.Init, 0)); err != nil {
		return tnf.Stats{}, 0, err
	}
	for k := 0; k < steps; k++ {
		if err := s.Assert(ts.AtStep(sys.Trans, k)); err != nil {
			return tnf.Stats{}, 0, err
		}
	}
	bads := 1
	if eng == "bmc" {
		bads = bmcDepth + 1
	}
	for k := 0; k < bads; k++ {
		if _, err := s.CompileBool(expr.Not(ts.AtStep(sys.Prop, k))); err != nil {
			return tnf.Stats{}, 0, err
		}
	}
	pruned := 0
	if eng != "bmc" { // bmc solves its unrolling unsimplified
		pruned = s.Simplify().Pruned()
	}
	return s.Stats(), pruned, nil
}

// Counters read from Result.Stats, by per-layer metric name.  The
// ic3icp query classes together are every Solve call the engine makes.
var (
	ic3Counters = []struct{ metric, stat string }{
		{"ic3icp.queries", "queries"},
		{"ic3icp.inf_queries", "infQueries"},
		{"ic3icp.init_queries", "initQueries"},
		{"ic3icp.prop_queries", "propQueries"},
		{"ic3icp.global_safe_checks", "globalSafeChecks"},
		{"ic3icp.ctg_promoted", "ctgPromoted"},
		{"ic3icp.inf_cubes", "infCubes"},
		{"ic3icp.obligations", "obligations"},
		{"ic3icp.frames", "frames"},
		{"ic3icp.blocked_cubes", "blockedCubes"},
		{"ic3icp.widened", "widened"},
		{"ic3icp.push_attempts", "pushAttempts"},
		{"ic3icp.push_skipped_triggered", "pushSkippedTriggered"},
		{"ic3icp.solver_rebuilds", "solverRebuilds"},
		{"ic3icp.spurious_cex", "spuriousCex"},
		{"ic3icp.memo_hits", "consecCacheHits"},
		{"icp.watch_visits", "watchVisits"},
		{"icp.trail_events_saved", "trailEventsSaved"},
		{"icp.prefix_kept_levels", "prefixKeptLevels"},
		{"icp.lits_minimized", "litsMinimized"},
		{"icp.clauses_deleted", "clausesDeleted"},
	}
	bmcCounters = []struct{ metric, stat string }{
		{"bmc.solves", "solves"},
		{"bmc.spurious", "spurious"},
		{"icp.decisions", "decisions"},
		{"icp.conflicts", "conflicts"},
	}
	ic3SolveClasses = []string{"queries", "infQueries", "initQueries", "propQueries", "globalSafeChecks"}
)

// callClasses returns the solver-call counts of one result, by class.
func callClasses(eng string, st map[string]int64) map[string]int64 {
	out := map[string]int64{}
	if eng == "bmc" {
		out["solves"] = st["solves"]
		return out
	}
	for _, c := range ic3SolveClasses {
		out[c] = st[c]
		out["solverCalls"] += st[c]
	}
	return out
}

// profileShares attributes a CPU profile to layers with `go tool
// pprof -traces`.  Each sample's self time goes to the package of its
// leaf frame ("<pkg>.cpu_frac", pkg being the last path element) and,
// for visitWatched, to that function; the cumulative shares count a
// sample once if any frame matches.
func profileShares(profile string) (map[string]float64, error) {
	out, err := exec.Command("go", "tool", "pprof", "-traces", profile).Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %w", err)
	}
	return parseTraces(out)
}

// cumulative names the cumulative shares: a sample counts if any of
// its frames is one of the functions.
var cumulative = map[string][]string{
	"interval.trig_inverse_cpu_frac":    {"icpic3/internal/interval.InvSin", "icpic3/internal/interval.InvCos", "icpic3/internal/interval.InvTan"},
	"ic3icp.promote_inductive_cpu_frac": {"icpic3/internal/ic3icp.(*checker).promoteInductive"},
	"runtime.gc_cpu_frac":               {"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc"},
}

func parseTraces(text []byte) (map[string]float64, error) {
	shares := map[string]float64{}
	var total, cur time.Duration
	var frames []string
	flush := func() {
		if len(frames) == 0 {
			return
		}
		total += cur
		leaf := frames[0]
		shares[pkgOf(leaf)+".cpu_frac"] += float64(cur)
		if leaf == "icpic3/internal/icp.(*Solver).visitWatched" {
			shares["icp.visit_watched_cpu_frac"] += float64(cur)
		}
		for m, fns := range cumulative {
			if anyFrame(frames, fns) {
				shares[m] += float64(cur)
			}
		}
		frames = frames[:0]
	}
	sc := bufio.NewScanner(bytes.NewReader(text))
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	inSamples := false
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			flush()
			inSamples = true
			continue
		}
		if !inSamples || strings.TrimSpace(line) == "" {
			continue
		}
		fields := strings.Fields(line)
		if len(frames) == 0 {
			// first line of a sample: "<value> <leaf function>"
			d, err := time.ParseDuration(fields[0])
			if err != nil || len(fields) < 2 {
				return nil, fmt.Errorf("pprof traces: bad sample line %q", line)
			}
			cur = d
			fields = fields[1:]
		}
		frames = append(frames, fields[0]) // drop a trailing "(inline)"
	}
	flush()
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if total == 0 {
		return nil, fmt.Errorf("pprof traces: no samples")
	}
	for k := range shares {
		shares[k] /= float64(total)
	}
	return shares, nil
}

func anyFrame(frames, fns []string) bool {
	for _, f := range frames {
		for _, fn := range fns {
			if f == fn {
				return true
			}
		}
	}
	return false
}

// pkgOf returns the last path element of a function's package:
// "icpic3/internal/icp.(*Solver).visitWatched" -> "icp".
func pkgOf(fn string) string {
	if i := strings.LastIndex(fn, "/"); i >= 0 {
		fn = fn[i+1:]
	}
	if i := strings.Index(fn, "."); i >= 0 {
		fn = fn[:i]
	}
	return fn
}

// sumCounters adds the named Stats counters over one pass's results.
func sumCounters(results []engine.Result, ctrs []struct{ metric, stat string }, into map[string]float64) {
	for _, c := range ctrs {
		into[c.metric] = 0
		for _, r := range results {
			into[c.metric] += float64(r.Stats[c.stat])
		}
	}
}
