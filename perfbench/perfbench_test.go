package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"strings"
	"testing"

	"icpic3/internal/engine"
)

func TestDrawIsSeeded(t *testing.T) {
	sizes := map[string]int{"ic3-suite": 39, "ic3-pendulum": 3, "bmc-deep": 18}
	for _, w := range workloads {
		a := w.draw(rand.New(rand.NewSource(11)))
		b := w.draw(rand.New(rand.NewSource(11)))
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: one seed drew %v and %v", w.name, a, b)
		}
		if len(a) != sizes[w.name] {
			t.Errorf("%s: %d instances, want %d", w.name, len(a), sizes[w.name])
		}
		seen := map[point]bool{}
		for _, p := range a {
			if seen[p] {
				t.Errorf("%s: %v drawn twice", w.name, p)
			}
			seen[p] = true
			if p.Index < 0 || p.Index >= gridSize[p.Family] {
				t.Errorf("%s: %v is off the grid", w.name, p)
			}
			switch {
			case w.name == "ic3-suite" && p.Family == "pendulum" && p.Safe,
				w.name == "bmc-deep" && (p.Family == "pendulum" || !p.Safe),
				w.name == "ic3-pendulum" && !(p.Family == "pendulum" && p.Safe):
				t.Errorf("%s: %v does not belong to the workload", w.name, p)
			}
		}
	}
	a := drawSuite(rand.New(rand.NewSource(1)))
	b := drawSuite(rand.New(rand.NewSource(2)))
	if reflect.DeepEqual(a, b) {
		t.Error("ic3-suite: seeds 1 and 2 drew the same list")
	}
}

// TestCountsRepeatExactly runs one pass of every workload twice on one
// seed: verdicts and every Result.Stats count must repeat exactly, no
// instance may contradict its ground truth, and none may stop on its
// budget.  This is what lets a count be quoted as an exact count.
func TestCountsRepeatExactly(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload twice")
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			var prev []engine.Result
			for rep := 0; rep < 2; rep++ {
				ins, err := generate(w.draw(rand.New(rand.NewSource(3))))
				if err == nil {
					err = parseAll(ins)
				}
				if err != nil {
					t.Fatal(err)
				}
				recs, _ := passes(w.engine, ins, 0)
				for k, r := range recs {
					in := &ins[r.inst]
					o := judge(in, w.engine, r.res)
					if o.Wrong {
						t.Errorf("%s: %s", in.Name, o.Note)
					}
					if r.res.Verdict == engine.Unknown && !o.Trusted {
						t.Errorf("%s: no verdict: %s", in.Name, r.res.Note)
					}
					if prev == nil {
						continue
					}
					p := prev[k]
					if p.Verdict != r.res.Verdict || !reflect.DeepEqual(p.Stats, r.res.Stats) {
						t.Errorf("%s: run 1 gave %s %v, run 2 %s %v", in.Name, p.Verdict, p.Stats, r.res.Verdict, r.res.Stats)
					}
				}
				prev = prev[:0]
				for _, r := range recs {
					prev = append(prev, r.res)
				}
			}
		})
	}
}

func TestParseTraces(t *testing.T) {
	text := `File: perfbench
Type: cpu
-----------+-------------------------------------------------------
      30ms   icpic3/internal/interval.Sin
             icpic3/internal/interval.InvSin (inline)
             icpic3/internal/icp.(*Solver).revise
             icpic3/internal/ic3icp.(*checker).promoteInductive
-----------+-------------------------------------------------------
      10ms   icpic3/internal/icp.(*Solver).visitWatched
             icpic3/internal/ic3icp.(*checker).blockQuery
-----------+-------------------------------------------------------
      1.00s  runtime.scanobject
             runtime.gcBgMarkWorker
-----------+-------------------------------------------------------
`
	got, err := parseTraces([]byte(text))
	if err != nil {
		t.Fatal(err)
	}
	const total = 1.04
	want := map[string]float64{
		"interval.cpu_frac":                 0.03 / total,
		"interval.trig_inverse_cpu_frac":    0.03 / total,
		"ic3icp.promote_inductive_cpu_frac": 0.03 / total,
		"icp.cpu_frac":                      0.01 / total,
		"icp.visit_watched_cpu_frac":        0.01 / total,
		"runtime.cpu_frac":                  1 / total,
		"runtime.gc_cpu_frac":               1 / total,
	}
	for k, v := range want {
		if d := got[k] - v; d > 1e-12 || d < -1e-12 {
			t.Errorf("%s = %g, want %g", k, got[k], v)
		}
	}
	if _, err := parseTraces([]byte("File: x\n")); err == nil {
		t.Error("a profile without samples parsed")
	}
}

// TestRunOutput checks the command's contract on the shortest runs: the
// last line is the summary, carrying exactly the metrics BENCHMARK.json
// declares for the mode, and a usage error prints no summary.
func TestRunOutput(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type decl struct{ Name, Unit string }
	var bench struct {
		EndToEnd []decl `json:"end_to_end"`
		PerLayer []decl `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bench); err != nil {
		t.Fatal(err)
	}
	for trace, want := range [][]decl{bench.EndToEnd, bench.PerLayer} {
		if trace == 1 && testing.Short() {
			continue // the traced run profiles and calls go tool pprof
		}
		var out, errb bytes.Buffer
		args := []string{"--workload", "ic3-suite", "--seed", "4", "--seconds", "0.001", "--trace", fmt.Sprint(trace), "--out", t.TempDir()}
		if code := run(args, &out, &errb); code != 0 {
			t.Fatalf("trace %d: exit %d: %s", trace, code, errb.String())
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var sum summary
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &sum); err != nil {
			t.Fatal(err)
		}
		if !sum.Correct || sum.Attempted != 39 || sum.Failed != 0 {
			t.Errorf("trace %d: summary %+v", trace, sum)
		}
		if len(sum.Metrics) != len(want) {
			t.Errorf("trace %d: %d metrics, BENCHMARK.json declares %d", trace, len(sum.Metrics), len(want))
		}
		for _, d := range want {
			m, ok := sum.Metrics[d.Name]
			if !ok || m.Unit != d.Unit || (trace == 0 && m.Value <= 0) {
				t.Errorf("trace %d: metric %s = %+v, want unit %s", trace, d.Name, m, d.Unit)
			}
		}
	}
	var out, errb bytes.Buffer
	if code := run([]string{"--workload", "nope"}, &out, &errb); code != 2 || out.Len() != 0 {
		t.Errorf("unknown workload: exit %d, stdout %q", code, out.String())
	}
}
