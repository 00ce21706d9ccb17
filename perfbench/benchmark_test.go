package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestBenchmarkJSONMatchesTables pins BENCHMARK.json's metric lists to the
// tables the program reports from, and its workloads to the runners.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		kind string
		json []struct{ Name, Unit, Better string }
		defs []metricDef
	}{{"end_to_end", b.EndToEnd, endToEnd}, {"per_layer", b.PerLayer, perLayer}} {
		if len(c.json) != len(c.defs) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program %d", c.kind, len(c.json), len(c.defs))
		}
		for i, d := range c.defs {
			j := c.json[i]
			if j.Name != d.name || j.Unit != d.unit || j.Better != d.better {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, program %+v", c.kind, i, j, d)
			}
		}
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(b.Workloads), len(workloads))
	}
	for _, w := range b.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %q has no runner", w.Name)
		}
	}
}
