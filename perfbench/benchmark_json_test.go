package main

import (
	"encoding/json"
	"os"
	"sort"
	"testing"
)

// TestBenchmarkJSONMatchesCode keeps the repository's BENCHMARK.json in
// step with what the benchmark prints: the same workloads, and as
// end-to-end metrics exactly the gated figures a --trace 0 run reports.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark")
	}
	var doc struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct {
			Name, Unit string
		} `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range doc.Workloads {
		if _, err := lookupWorkload(w.Name); err != nil {
			t.Error(err)
		}
		names = append(names, w.Name)
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %v, the code has %d workloads", names, len(workloads))
	}
	want := map[string]string{"setup_s": "s"}
	for name, m := range endToEnd(&windowResult{}) {
		if !latencyMetrics[name] {
			want[name] = m.Unit
		}
	}
	got := map[string]string{}
	for _, m := range doc.EndToEnd {
		got[m.Name] = m.Unit
	}
	if len(got) != len(want) {
		t.Errorf("end_to_end has %d metrics, the run reports %d", len(got), len(want))
	}
	for name, unit := range want {
		if got[name] != unit {
			t.Errorf("end_to_end %s: unit %q in BENCHMARK.json, %q in the code", name, got[name], unit)
		}
	}
	perLayer := map[string]bool{}
	for _, m := range doc.PerLayer {
		perLayer[m.Name] = true
	}
	var missing []string
	for name := range latencyMetrics {
		if !perLayer[name] {
			missing = append(missing, name)
		}
	}
	sort.Strings(missing)
	if len(missing) > 0 {
		t.Errorf("per_layer lacks the latency metrics %v", missing)
	}
}
