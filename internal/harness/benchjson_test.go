package harness

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

// TestBenchEngineCountersRoundTrip checks that new snapshots write the
// work profile as one counters object and read it back unchanged.
func TestBenchEngineCountersRoundTrip(t *testing.T) {
	in := BenchEngine{Engine: "ic3-icp", SolvedSafe: 3,
		Counters: map[string]int64{"queries": 120, "ctgBlocked": 4}}
	b, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	if want := `"counters":{"ctgBlocked":4,"queries":120}`; !strings.Contains(string(b), want) {
		t.Fatalf("encoded %s, want %s", b, want)
	}
	var out BenchEngine
	if err := json.Unmarshal(b, &out); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(out, in) {
		t.Fatalf("round trip = %+v, want %+v", out, in)
	}
}
