package main

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"time"

	"icpic3/internal/benchmarks"
	"icpic3/internal/bmc"
	"icpic3/internal/certify"
	"icpic3/internal/engine"
	"icpic3/internal/ic3icp"
	"icpic3/internal/ts"
)

// bmcDepth is the unrolling depth of bmc-deep.  Every instance there is
// safe, so each run unrolls all of it: fixed work per instance.
const bmcDepth = 128

// instanceBudget caps one engine call.  No instance of any workload comes
// near it; it only keeps a regressed engine from running past the
// benchmark's own time limit, and a run that hits it is unresolved.
const instanceBudget = 60 * time.Second

// generators are the instance families of internal/benchmarks.
var generators = map[string]func(bool, int) (benchmarks.Instance, error){
	"poly":       benchmarks.Poly,
	"logistic":   benchmarks.Logistic,
	"vehicle":    benchmarks.Vehicle,
	"thermostat": benchmarks.Thermostat,
	"pendulum":   benchmarks.Pendulum,
	"counternl":  benchmarks.CounterNL,
	"frozen":     benchmarks.Frozen,
}

// gridSize is the number of distinct grid points of each family: the
// generators cycle their parameters with the index, so points 0..n-1 are
// all the distinct instances (poly and logistic cycle a 4-way and a
// 3-way parameter, hence 12).
var gridSize = map[string]int{
	"poly": 12, "logistic": 12, "vehicle": 3, "thermostat": 3,
	"pendulum": 6, "counternl": 3, "frozen": 3,
}

// point names one instance of a family's grid.
type point struct {
	Family string `json:"family"`
	Safe   bool   `json:"safe"`
	Index  int    `json:"index"`
}

// workload is one instance list and the engine that decides it.
type workload struct {
	name   string
	engine string // "ic3icp" or "bmc"
	// draw returns the instance list, in run order, for a seed.
	draw func(r *rand.Rand) []point
}

var workloads = []workload{
	{name: "ic3-suite", engine: "ic3icp", draw: drawSuite},
	{name: "ic3-pendulum", engine: "ic3icp", draw: drawPendulum},
	{name: "bmc-deep", engine: "bmc", draw: drawBMC},
}

func findWorkload(name string) (workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// drawPoints draws k distinct grid points of one family and polarity.
func drawPoints(r *rand.Rand, family string, safe bool, k int) []point {
	idx := r.Perm(gridSize[family])[:k]
	sort.Ints(idx)
	out := make([]point, k)
	for i, j := range idx {
		out[i] = point{Family: family, Safe: safe, Index: j}
	}
	return out
}

func shuffled(r *rand.Rand, ps []point) []point {
	r.Shuffle(len(ps), func(i, j int) { ps[i], ps[j] = ps[j], ps[i] })
	return ps
}

// drawSuite: three grid points of every family and polarity except
// pendulum-safe, 39 instances.
func drawSuite(r *rand.Rand) []point {
	var ps []point
	for _, f := range benchmarks.Families() {
		for _, safe := range []bool{true, false} {
			if f == "pendulum" && safe {
				continue
			}
			ps = append(ps, drawPoints(r, f, safe, 3)...)
		}
	}
	return shuffled(r, ps)
}

// drawPendulum: pendulum-safe points 2, 3 and 5; the seed picks only the
// order.  Points 0, 1 and 4 run the same mechanism for far longer.
func drawPendulum(r *rand.Rand) []point {
	ps := []point{{"pendulum", true, 2}, {"pendulum", true, 3}, {"pendulum", true, 5}}
	return shuffled(r, ps)
}

// drawBMC: three safe grid points of each family without trig, 18
// instances.
func drawBMC(r *rand.Rand) []point {
	var ps []point
	for _, f := range benchmarks.Families() {
		if f == "pendulum" {
			continue
		}
		ps = append(ps, drawPoints(r, f, true, 3)...)
	}
	return shuffled(r, ps)
}

// instance is a generated model: its text, its ground truth, and the
// system parsed from the text.
type instance struct {
	point
	Name     string
	Expected engine.Verdict
	Source   string
	Sys      *ts.System
}

// generate builds the model text and ground truth of every point.
func generate(ps []point) ([]instance, error) {
	out := make([]instance, len(ps))
	for i, p := range ps {
		in, err := generators[p.Family](p.Safe, p.Index)
		if err != nil {
			return nil, err
		}
		out[i] = instance{point: p, Name: in.Name, Expected: in.Expected, Source: in.Source}
	}
	return out, nil
}

// parseAll parses every model text, as a user of the engines would.
func parseAll(ins []instance) error {
	for i := range ins {
		sys, err := ts.Parse(ins[i].Source)
		if err != nil {
			return fmt.Errorf("%s: %w", ins[i].Name, err)
		}
		ins[i].Sys = sys
	}
	return nil
}

// solve runs the workload's engine on one system: one closed-loop call.
func solve(eng string, sys *ts.System) engine.Result {
	budget := engine.Budget{Timeout: instanceBudget}
	if eng == "bmc" {
		return bmc.Check(sys, bmc.Options{MaxDepth: bmcDepth, Budget: budget})
	}
	return ic3icp.Check(sys, ic3icp.Options{Workers: 1, Budget: budget})
}

// outcome is the judgement of one result against the generator's ground
// truth.
type outcome struct {
	// Verdict is the engine's verdict, before any demotion.
	Verdict engine.Verdict
	// Wrong: a decisive verdict contradicting the ground truth.
	Wrong bool
	// Trusted: the expected outcome, and a decisive verdict whose
	// certificate or trace passed certify.Check.
	Trusted bool
	// Note says why an untrusted result is untrusted.
	Note string
}

// judge checks a result against the instance's ground truth and, for a
// decisive verdict, re-checks its evidence with certify.Check.  A failed
// re-check demotes the verdict as icpserve does: the claim is withdrawn
// and the run counts as unresolved.
func judge(in *instance, eng string, res engine.Result) outcome {
	o := outcome{Verdict: res.Verdict}
	switch {
	case res.Verdict == engine.Unknown && eng == "bmc" && in.Expected == engine.Safe:
		// Bounded model checking cannot prove safety; on a safe instance
		// the expected outcome is a completed search.
		want := fmt.Sprintf("no counterexample up to depth %d", bmcDepth)
		o.Trusted = res.Depth == bmcDepth && strings.HasPrefix(res.Note, want)
		if !o.Trusted {
			o.Note = "unknown: " + res.Note
		}
	case res.Verdict == engine.Unknown:
		o.Note = "unknown: " + res.Note
	case res.Verdict != in.Expected:
		o.Wrong = true
		o.Note = fmt.Sprintf("WRONG: %s, expected %s", res.Verdict, in.Expected)
	default:
		if err := certify.Check(in.Sys, res, certify.Options{}); err != nil {
			o.Note = fmt.Sprintf("CERTIFICATION FAILED: %s verdict withdrawn: %v", res.Verdict, err)
		} else {
			o.Trusted = true
		}
	}
	return o
}
