package main

import (
	"encoding/json"
	"os"
	"testing"
)

// BENCHMARK.json is a second statement of what this package measures:
// the two must name the same workloads and the same metrics.
func TestBenchmarkJSONMatchesTheCode(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string } `json:"workloads"`
		spec
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	ws := workloads()
	if len(doc.Workloads) != len(ws) {
		t.Fatalf("BENCHMARK.json lists %d workloads, workloads() %d", len(doc.Workloads), len(ws))
	}
	for i, w := range ws {
		if doc.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json %q, workloads() %q", i, doc.Workloads[i].Name, w.name)
		}
	}

	listed := map[string]bool{}
	for _, m := range doc.EndToEnd {
		listed[m.Name] = true
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	measured := []string{"op_p50_ms", "op_tail_ms", "ops_per_s", "cpu_ms", "peak_rss_mb", "model_cycles", "setup_s"}
	for _, name := range measured {
		if !listed[name] {
			t.Errorf("end-to-end metric %s is measured but not in BENCHMARK.json", name)
		}
	}
	if len(listed) != len(measured) {
		t.Errorf("BENCHMARK.json lists %d end-to-end metrics, the code measures %d", len(listed), len(measured))
	}

	layer := map[string]bool{}
	for _, m := range doc.PerLayer {
		layer[m.Name] = true
	}
	for _, name := range serverMetricNames {
		if !layer[name] {
			t.Errorf("per-layer metric %s is measured but not in BENCHMARK.json", name)
		}
	}
	for _, name := range []string{"f90yrun.startup_ms", "host.calib_ms"} {
		if !layer[name] {
			t.Errorf("per-layer metric %s is measured but not in BENCHMARK.json", name)
		}
	}
}
