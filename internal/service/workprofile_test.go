package service

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"icpic3/internal/ic3icp"
)

// frozenModel (the benchmark suite's frozen-parameter family) needs
// several pushing phases before its proof closes, so a run reports
// nonzero push-attempt counters.
const frozenModel = `
system frozen
var x : real [0, 100]
var y : real [0, 1]
init x >= 0 and x <= 1 and y = 0
trans x' = x + y and y' = y
prop x <= 5
`

// TestWorkProfileMetrics asserts that a finished ic3 run's work
// counters flow through to the service metrics and that /metrics
// carries one icpserve_engine_counter_total line per ic3icp.Counters
// entry, holding the summed value.
func TestWorkProfileMetrics(t *testing.T) {
	s := newTestService(t, Config{Workers: 1})

	job, err := s.Submit(Request{Source: frozenModel, Engine: "ic3", Timeout: 30 * time.Second})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	st, err := s.Wait(job.ID, 30*time.Second)
	if err != nil || st.Verdict != "safe" {
		t.Fatalf("result = %+v, %v", st, err)
	}

	m := s.Metrics()
	if m.EngineCounter("pushAttempts") == 0 || m.EngineCounter("queries") == 0 {
		t.Error("no push attempts or queries recorded from a safe ic3 run")
	}
	text := m.String()
	for _, c := range ic3icp.Counters {
		prefix := fmt.Sprintf("icpserve_engine_counter_total{name=%q} ", c.Key)
		want := fmt.Sprintf("%s%d\n", prefix, m.EngineCounter(c.Key))
		if n := strings.Count(text, prefix); n != 1 || !strings.Contains(text, want) {
			t.Errorf("metrics has %d %q lines, want one reading %q:\n%s", n, prefix, want, text)
		}
	}
}
