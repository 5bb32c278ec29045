// Command perfbench is the repository's benchmark: closed-loop
// verification workloads whose every verdict is checked against the
// ground truth the instance generators fix, with decisive verdicts
// re-checked by certify.Check.  See README.md for the workloads, the
// metrics and how to read them.
//
// Usage (from the repository root, through the wrapper that builds it):
//
//	bash perfbench/run.sh --workload ic3-suite --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.  The exit code is 1 when a
// verdict contradicts the ground truth and 2 on a usage or set-up error.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"sort"
	"syscall"
	"time"
	"unsafe"

	"icpic3/internal/engine"
)

// Set-up is repeated for setup_s and ts.parse_ms, which are the
// medians: at least setupMinReps times and until setupMinTime of CPU
// time has passed, at most setupMaxReps times.
const (
	setupMinReps = 25
	setupMaxReps = 2000
	setupMinTime = time.Second
)

// heldOutSeed is used only to confirm a claimed gain, never while a
// change is being written.
const heldOutSeed = 7919

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

type options struct {
	workload workload
	seed     int64
	seconds  float64
	trace    bool
	out      string
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: ic3-suite, ic3-pendulum or bmc-deep")
	seed := fs.Int64("seed", 1, fmt.Sprintf("seed for grid points and run order (%d is held out for confirming claims)", heldOutSeed))
	seconds := fs.Float64("seconds", 20, "measure whole passes for this many seconds of wall time")
	trace := fs.Int("trace", 0, "1: traced run reporting the per-layer metrics")
	out := fs.String("out", filepath.Join(".bench_build", "perfbench"), "directory for the report, spans and CPU profile")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := findWorkload(*name)
	if err == nil && (*seconds <= 0 || (*trace != 0 && *trace != 1)) {
		err = errors.New("--seconds must be positive and --trace 0 or 1")
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	rep, err := bench(options{workload: w, seed: *seed, seconds: *seconds, trace: *trace == 1, out: *out}, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	line, _ := json.Marshal(rep.Summary)
	fmt.Fprintln(stdout, string(line))
	if !rep.Summary.Correct {
		return 1
	}
	return 0
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type summary struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// row is one instance's line of the report.
type row struct {
	Instance string           `json:"instance"`
	Point    point            `json:"point"`
	Verdict  string           `json:"verdict"` // after demotion
	Trusted  bool             `json:"trusted"`
	MedianMS float64          `json:"median_ms"`
	Samples  int              `json:"samples"`
	Calls    map[string]int64 `json:"calls"`
	Note     string           `json:"note,omitempty"`
}

type report struct {
	Workload string   `json:"workload"`
	Seed     int64    `json:"seed"`
	Trace    bool     `json:"trace"`
	Points   []point  `json:"points"`    // the drawn grid points, sorted
	Order    []string `json:"run_order"` // instance names in run order
	Passes   int      `json:"passes"`
	Procs    int      `json:"gomaxprocs"`
	Rows     []row    `json:"rows"`
	Summary  summary  `json:"summary"`
}

// runRec is one closed-loop engine call.
type runRec struct {
	inst       int
	pass       int
	start, end time.Time     // wall clock, for the spans
	cpu        time.Duration // process CPU time of the call
	res        engine.Result
}

// cpuNow is the CPU time the process has used so far, over all its
// threads, the collector's included.  The engines run one caller on one
// thread, so on an idle machine a call's CPU time is its wall time (plus
// the collector's concurrent share).  On a shared host it leaves out the
// time the hypervisor gives the vCPU to other guests (steal), which wall
// time counts.
func cpuNow() time.Duration {
	var ts syscall.Timespec
	const clockProcessCPUTimeID = 2
	if _, _, e := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockProcessCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); e != 0 {
		panic(e)
	}
	return time.Duration(ts.Nano())
}

// passes calls the engine on every instance in order, pass after pass.
// It starts a pass only when the longest pass so far would still end
// within d of wall time (the first pass always runs), so a run overshoots
// d only when a pass is slower than every pass before it.  It returns the
// runs and each pass's CPU time in seconds.
func passes(eng string, ins []instance, d time.Duration) ([]runRec, []float64) {
	var recs []runRec
	var cpus []float64
	var longest time.Duration
	t0 := time.Now()
	for len(cpus) == 0 || time.Since(t0)+longest <= d {
		p, c0 := time.Now(), cpuNow()
		for i := range ins {
			s, c := time.Now(), cpuNow()
			res := solve(eng, ins[i].Sys)
			c = cpuNow() - c
			recs = append(recs, runRec{inst: i, pass: len(cpus), start: s, end: time.Now(), cpu: c, res: res})
		}
		cpus = append(cpus, (cpuNow() - c0).Seconds())
		longest = max(longest, time.Since(p))
	}
	return recs, cpus
}

// setUp draws the workload's instances for the seed, generates every
// model text and parses it: the benchmark's set-up.
func setUp(w workload, seed int64) ([]instance, error) {
	ins, err := generate(w.draw(rand.New(rand.NewSource(seed))))
	if err == nil {
		err = parseAll(ins)
	}
	return ins, err
}

// setupTimes repeats the set-up and returns the median CPU seconds of a
// whole set-up and the median CPU milliseconds of its parsing.  The
// repeats run with the collector paused, each after a collection that
// also returns the freed memory to the system, so every repeat starts
// from the same cold heap, as a fresh process does.  ts.Parse allocates
// about 1 MB per model; whether a collection cycle, or the runtime's
// background release of memory, fell inside a repeat would otherwise
// decide the figure.  Allocation itself (zeroing, page faults) counts.
func setupTimes(w workload, seed int64) (float64, float64, error) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var setup, parse []float64
	var total time.Duration
	for len(setup) < setupMinReps || (total < setupMinTime && len(setup) < setupMaxReps) {
		debug.FreeOSMemory()
		t0 := cpuNow()
		ins, err := generate(w.draw(rand.New(rand.NewSource(seed))))
		if err != nil {
			return 0, 0, err
		}
		t1 := cpuNow()
		if err := parseAll(ins); err != nil {
			return 0, 0, err
		}
		t2 := cpuNow()
		total += t2 - t0
		setup = append(setup, (t2 - t0).Seconds())
		parse = append(parse, ms(t2-t1))
	}
	runtime.GC()
	return median(setup), median(parse), nil
}

// perSecond is the throughput of a run: instances per CPU second of the
// median pass, which a slow spell during one pass does not move.
func perSecond(n int, passCPU []float64) float64 { return float64(n) / median(passCPU) }

func bench(o options, stdout io.Writer) (*report, error) {
	w := o.workload
	ins, err := setUp(w, o.seed)
	if err != nil {
		return nil, err
	}
	rep := &report{Workload: w.name, Seed: o.seed, Trace: o.trace, Procs: runtime.GOMAXPROCS(0)}
	for _, in := range ins {
		rep.Order = append(rep.Order, in.Name)
		rep.Points = append(rep.Points, in.point)
	}
	sort.Slice(rep.Points, func(i, j int) bool {
		a, b := rep.Points[i], rep.Points[j]
		if a.Family != b.Family {
			return a.Family < b.Family
		}
		if a.Safe != b.Safe {
			return a.Safe
		}
		return a.Index < b.Index
	})
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return nil, err
	}
	base := filepath.Join(o.out, fmt.Sprintf("%s-seed%d-trace%d", w.name, o.seed, b2i(o.trace)))
	measure := time.Duration(o.seconds * float64(time.Second))

	var recs []runRec
	var passCPU []float64
	var tr *traced
	if !o.trace {
		recs, passCPU = passes(w.engine, ins, measure)
	} else {
		if tr, err = tracedPasses(w.engine, ins, measure, base+".cpu.pprof"); err != nil {
			return nil, err
		}
		recs, passCPU = tr.recs, tr.passCPU
	}
	rep.Passes = len(passCPU)

	// Everything below runs outside the timed region.
	outs := make([]outcome, len(recs))
	judged := make([][2]time.Time, len(recs))
	for k, r := range recs {
		judged[k][0] = time.Now()
		outs[k] = judge(&ins[r.inst], w.engine, r.res)
		judged[k][1] = time.Now()
	}
	sum := summary{Correct: true, Attempted: len(recs), Metrics: map[string]metric{}}
	times := make([][]float64, len(ins))
	trusted := 0
	for k, r := range recs {
		times[r.inst] = append(times[r.inst], ms(r.cpu))
		switch {
		case outs[k].Wrong:
			sum.Correct = false
			sum.Failed++
		case outs[k].Trusted:
			trusted++
		default:
			sum.Failed++
		}
	}
	medians := make([]float64, len(ins))
	logSum, worst := 0.0, 0.0
	for i := range ins {
		medians[i] = median(times[i])
		logSum += math.Log(medians[i])
		worst = math.Max(worst, medians[i])
	}
	// Rows: one per instance, judged on its first run; an outcome that
	// differs in a later pass is added to the note.
	for i, in := range ins {
		k := i // recs[i] is instance i's run in the first pass
		rw := row{Instance: in.Name, Point: in.point, Verdict: outs[k].Verdict.String(), Trusted: outs[k].Trusted,
			MedianMS: medians[i], Samples: len(times[i]), Calls: callClasses(w.engine, recs[k].res.Stats), Note: outs[k].Note}
		if !outs[k].Trusted && !outs[k].Wrong {
			rw.Verdict = engine.Unknown.String()
		}
		for j := k + len(ins); j < len(recs); j += len(ins) {
			if outs[j] != outs[k] {
				rw.Note += fmt.Sprintf("; pass %d: %s %s", recs[j].pass, outs[j].Verdict, outs[j].Note)
			}
		}
		rep.Rows = append(rep.Rows, rw)
	}

	if !o.trace {
		sum.Metrics["instances_per_s"] = metric{perSecond(len(ins), passCPU), "1/s"}
		sum.Metrics["time_geomean_ms"] = metric{math.Exp(logSum / float64(len(ins))), "ms"}
		sum.Metrics["time_worst_ms"] = metric{worst, "ms"}
		sum.Metrics["trusted_frac"] = metric{float64(trusted) / float64(len(recs)), "fraction"}
		sum.Metrics["max_rss_mb"] = metric{maxRSSMB(), "MB"} // before setupTimes grows the heap
	} else {
		if err := tr.layerMetrics(w.engine, ins, outs, judged, sum.Metrics, base); err != nil {
			return nil, err
		}
	}
	setupS, parseMS, err := setupTimes(w, o.seed)
	if err != nil {
		return nil, err
	}
	if !o.trace {
		sum.Metrics["setup_s"] = metric{setupS, "s"}
	} else {
		sum.Metrics["ts.parse_ms"] = metric{parseMS, "ms"}
	}
	rep.Summary = sum
	printReport(stdout, rep)
	f, err := os.Create(base + ".report.json")
	if err != nil {
		return nil, err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	err = enc.Encode(rep)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return rep, err
}

// traced is a traced run: an untraced stretch for the overhead baseline,
// then passes under the CPU profiler.
type traced struct {
	recs         []runRec
	passCPU      []float64
	untracedIPS  float64
	profile      string
	allocMB, gcs float64 // per traced pass
	t0           time.Time
}

func tracedPasses(eng string, ins []instance, d time.Duration, profile string) (*traced, error) {
	tr := &traced{profile: profile, t0: time.Now()}
	_, passCPU := passes(eng, ins, d/2)
	tr.untracedIPS = perSecond(len(ins), passCPU)
	f, err := os.Create(profile)
	if err != nil {
		return nil, err
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	tr.recs, tr.passCPU = passes(eng, ins, d/2)
	pprof.StopCPUProfile()
	runtime.ReadMemStats(&m1)
	if err := f.Close(); err != nil {
		return nil, err
	}
	tr.allocMB = float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20) / float64(len(tr.passCPU))
	tr.gcs = float64(m1.NumGC-m0.NumGC) / float64(len(tr.passCPU))
	return tr, nil
}

// layerMetrics fills the per-layer metrics of a traced run and writes
// its spans.
func (tr *traced) layerMetrics(eng string, ins []instance, outs []outcome, judged [][2]time.Time, m map[string]metric, base string) error {
	var spans []span
	us := func(t time.Time) float64 { return float64(t.Sub(tr.t0).Nanoseconds()) / 1e3 }
	engineMS := make([][]float64, len(ins))
	certMS := make([][]float64, len(ins))
	for k, r := range tr.recs {
		id := len(spans) + 1
		trace := fmt.Sprintf("%s#%d", ins[r.inst].Name, r.pass)
		spans = append(spans, span{ID: id, Trace: trace, Name: eng + ".check", Start: us(r.start), End: us(r.end)})
		engineMS[r.inst] = append(engineMS[r.inst], ms(r.cpu))
		if r.res.Verdict != engine.Unknown {
			j := judged[k]
			spans = append(spans, span{ID: id + 1, Parent: id, Trace: trace, Name: "certify.check", Start: us(j[0]), End: us(j[1])})
			certMS[r.inst] = append(certMS[r.inst], ms(j[1].Sub(j[0])))
		}
	}
	first := make([]engine.Result, len(ins))
	for i := range ins {
		first[i] = tr.recs[i].res
	}
	count := func(name string, v float64) { m[name] = metric{v, "count"} }

	// tnf: the benchmark's own compile of each model, one per instance.
	var compile, vars, cons, clauses, pruned float64
	for i := range ins {
		s := time.Now()
		st, p, err := compileProbe(ins[i].Sys, eng)
		if err != nil {
			return fmt.Errorf("%s: tnf compile: %w", ins[i].Name, err)
		}
		e := time.Now()
		spans = append(spans, span{ID: len(spans) + 1, Trace: ins[i].Name + "#probe", Name: "tnf.compile", Start: us(s), End: us(e)})
		compile += ms(e.Sub(s))
		vars += float64(st.Vars)
		cons += float64(st.Cons)
		clauses += float64(st.Clauses)
		pruned += float64(p)
	}
	m["tnf.compile_ms"] = metric{compile, "ms"}
	count("tnf.vars", vars)
	count("tnf.constraints", cons)
	count("tnf.clauses", clauses)
	count("tnf.ops_pruned", pruned)

	// Counts are per pass: the sum over the instance list of one pass.
	counts := map[string]float64{}
	sumCounters(first, ic3Counters, counts)
	sumCounters(first, bmcCounters, counts)
	for k, v := range counts {
		count(k, v)
	}
	calls := 0.0
	memoLookups := counts["ic3icp.memo_hits"]
	for _, r := range first {
		for _, c := range ic3SolveClasses {
			calls += float64(r.Stats[c])
		}
		memoLookups += float64(r.Stats["consecCacheMisses"])
	}
	count("ic3icp.solver_calls", calls)
	count("ic3icp.memo_lookups", memoLookups)
	m["ic3icp.memo_hit_ratio"] = metric{ratio(counts["ic3icp.memo_hits"], memoLookups), "ratio"}
	checkMS := 0.0
	for i := range ins {
		checkMS += median(engineMS[i])
	}
	ic3MS, bmcMS := checkMS, 0.0
	if eng == "bmc" {
		ic3MS, bmcMS = 0, checkMS
	}
	m["ic3icp.check_ms"] = metric{ic3MS, "ms"}
	m["ic3icp.us_per_solver_call"] = metric{ratio(ic3MS*1e3, calls), "us"}
	m["bmc.check_ms"] = metric{bmcMS, "ms"}

	// certify: one re-check per decisive result, outside the timed region.
	certTotal, cubes, failed := 0.0, 0.0, 0.0
	for i := range ins {
		if len(certMS[i]) > 0 {
			certTotal += median(certMS[i])
		}
		if c := first[i].Certificate; c != nil {
			cubes += float64(len(c.Cubes))
		}
		if o := outs[i]; o.Verdict != engine.Unknown && !o.Trusted && !o.Wrong {
			failed++
		}
	}
	m["certify.check_ms"] = metric{certTotal, "ms"}
	count("certify.cert_cubes", cubes)
	count("certify.failed", failed)

	m["runtime.alloc_mb"] = metric{tr.allocMB, "MB"}
	count("runtime.gc_cycles", tr.gcs)
	tracedIPS := perSecond(len(ins), tr.passCPU)
	m["trace.overhead_frac"] = metric{1 - tracedIPS/tr.untracedIPS, "fraction"}

	shares, err := profileShares(tr.profile)
	if err != nil {
		return err
	}
	for _, name := range []string{"tnf.cpu_frac", "interval.cpu_frac", "interval.trig_inverse_cpu_frac",
		"icp.cpu_frac", "icp.visit_watched_cpu_frac", "ic3icp.cpu_frac", "ic3icp.promote_inductive_cpu_frac",
		"bmc.cpu_frac", "runtime.cpu_frac", "runtime.gc_cpu_frac"} {
		m[name] = metric{shares[name], "fraction"}
	}
	return writeSpans(base+".spans.jsonl", spans)
}

func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

func printReport(w io.Writer, rep *report) {
	fmt.Fprintf(w, "perfbench %s seed %d trace %v: %d instances x %d passes, gomaxprocs %d\n",
		rep.Workload, rep.Seed, rep.Trace, len(rep.Rows), rep.Passes, rep.Procs)
	fmt.Fprintf(w, "%-22s %-8s %-7s %11s %3s  %s\n", "instance", "verdict", "trusted", "median_ms", "n", "solver calls")
	for _, r := range rep.Rows {
		keys := make([]string, 0, len(r.Calls))
		for k := range r.Calls {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		calls := ""
		for _, k := range keys {
			calls += fmt.Sprintf(" %s=%d", k, r.Calls[k])
		}
		fmt.Fprintf(w, "%-22s %-8s %-7v %11.3f %3d %s", r.Instance, r.Verdict, r.Trusted, r.MedianMS, r.Samples, calls)
		if r.Note != "" {
			fmt.Fprintf(w, "  [%s]", r.Note)
		}
		fmt.Fprintln(w)
	}
	names := make([]string, 0, len(rep.Summary.Metrics))
	for k := range rep.Summary.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(w, "  %-36s %14.6g %s\n", k, rep.Summary.Metrics[k].Value, rep.Summary.Metrics[k].Unit)
	}
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// maxRSSMB is the peak resident memory of this process.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // kilobytes on Linux
}
